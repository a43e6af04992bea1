"""Kernel semantics pinned by independent brute-force oracles.

The kernels take and return channels-last (B, H, W, C) batches; the
oracles are written channels-first, and each test converts at the call
(``nhwc``/``nchw``).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngnet.errors import ShapeError
from ngnet.tensor import (UNFOLD_BLOCK_BYTES, _conv_geometry, _unfold_taps,
                          conv2d_backward, conv2d_forward,
                          global_avg_pool_backward, global_avg_pool_forward,
                          maxpool2_backward, maxpool2_forward)


def nhwc(a):
    """A channels-first (B, C, H, W) array as the kernels take it: a
    C-contiguous channels-last copy."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def nchw(a):
    """The channels-first view of a kernel's channels-last result."""
    return a.transpose(0, 3, 1, 2)


def naive_conv2d(x, k, stride):
    c_out = k.shape[0]
    c_in, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    h_out = (h + 2 - 3) // stride + 1
    w_out = (w + 2 - 3) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for co in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                for ci in range(c_in):
                    for di in range(3):
                        for dj in range(3):
                            out[co, i, j] += (k[co, ci, di, dj]
                                              * xp[ci, i * stride + di,
                                                   j * stride + dj])
    return out


def tensordot_conv2d_forward(x, k, stride):
    """Reference for conv2d_forward, which must match it bitwise: the
    channels-first kernel on a batch (B, C, H, W) that pads, gathers
    (B, C, 3, 3, H', W') patches and contracts them with np.tensordot,
    whose result is channels-last (B, H', W', C_out)."""
    h_out, w_out = _conv_geometry(x.shape[2], x.shape[3], stride)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty(x.shape[:2] + (3, 3, h_out, w_out))
    for i in range(3):
        for j in range(3):
            cols[:, :, i, j] = xp[:, :, i:i + stride * h_out:stride,
                                  j:j + stride * w_out:stride]
    return np.tensordot(cols, k, axes=([1, 2, 3], [1, 2, 3]))


def batch_conv2d_backward(g, x, k, stride):
    """Reference for conv2d_backward, within the float64 sum bound (see
    assert_backward_near): both GEMMs on one batch-sized channels-last
    unfold in (C_in, 3, 3) column order and one batch-sized taps array,
    scatter-added in row-major tap order; g and x channels-last."""
    b, h, w, c = x.shape
    c_out = k.shape[0]
    h_out, w_out = _conv_geometry(h, w, stride)
    xp = np.zeros((b, h + 2, w + 2, c))
    xp[:, 1:-1, 1:-1] = x
    cols = np.empty((b, h_out, w_out, c, 3, 3))
    for i in range(3):
        for j in range(3):
            cols[..., i, j] = xp[:, i:i + stride * h_out:stride,
                                 j:j + stride * w_out:stride]
    cols = cols.reshape(b * h_out * w_out, c * 9)
    gk = (g.transpose(3, 0, 1, 2).reshape(c_out, -1) @ cols).reshape(k.shape)
    gt = g.reshape(-1, c_out)
    taps = (gt @ k.reshape(c_out, -1)).reshape(b, h_out, w_out, c, 3, 3)
    gxp = np.zeros((b, h + 2, w + 2, c))
    for i in range(3):
        for j in range(3):
            gxp[:, i:i + stride * h_out:stride,
                j:j + stride * w_out:stride] += taps[..., i, j]
    return gxp[:, 1:-1, 1:-1], gk


# (B, C_in, H, W, C_out, stride): the toy CNN under grad_check; the
# critical-depth sweep (widths 6/12/24 at 8/4/2, one block) and its
# 80-sample eval batch (three blocks); the ResNet-8 convs at 32/16/8 at
# batch 32 and at the 96-sample eval batch; five samples at 32x32 (one
# sample per block at 8 channels, a short last block at 3); odd sizes; a
# batch of one; stride 2 at a height and/or width of one, where the odd
# output phases have no rows.
CONV_SHAPES = [
    (16, 3, 8, 8, 3, 1),
    (32, 3, 8, 8, 6, 1), (32, 6, 8, 8, 6, 1), (32, 6, 4, 4, 12, 1),
    (32, 12, 4, 4, 12, 1), (32, 12, 2, 2, 24, 1), (32, 24, 2, 2, 24, 1),
    (80, 6, 8, 8, 6, 1),
] + [(b,) + conv for b in (32, 96) for conv in [
    (3, 32, 32, 8, 1), (8, 32, 32, 8, 1), (8, 32, 32, 16, 2),
    (16, 16, 16, 16, 1), (16, 16, 16, 32, 2), (32, 8, 8, 32, 1)]] + [
    (5, 8, 32, 32, 8, 1), (5, 3, 32, 32, 8, 1),
    (3, 5, 7, 5, 4, 1), (3, 5, 7, 5, 4, 2),
    (1, 6, 8, 8, 6, 1), (1, 12, 2, 2, 24, 1), (1, 4, 7, 5, 3, 2),
    (2, 3, 1, 5, 4, 2), (2, 3, 5, 1, 4, 2), (2, 3, 1, 1, 4, 2),
]


def conv_case(shape):
    """x, kernels and grad_out, x and grad_out channels-last."""
    b, c, h, w, c_out, stride = shape
    rng = np.random.default_rng(b * c * h + c_out)
    x = nhwc(rng.standard_normal((b, c, h, w)))
    k = rng.standard_normal((c_out, c, 3, 3))
    h_out, w_out = _conv_geometry(h, w, stride)
    g = rng.standard_normal((b, h_out, w_out, c_out))
    return x, k, g, stride


def naive_conv2d_backward(g, x, k, stride):
    """Both gradients of naive_conv2d by direct sums, one sample (C, H, W)."""
    c_out, c_in = k.shape[:2]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for co in range(c_out):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                for ci in range(c_in):
                    for di in range(3):
                        for dj in range(3):
                            r, s = i * stride + di, j * stride + dj
                            gk[co, ci, di, dj] += g[co, i, j] * xp[ci, r, s]
                            gxp[ci, r, s] += g[co, i, j] * k[co, ci, di, dj]
    return gxp[:, 1:-1, 1:-1], gk


def assert_backward_near(gx, gk, want_x, want_k, g, x, k, stride):
    """Each element of both gradients within the float64 bound for a sum of
    n terms, n*eps*sum(|term|), of the wanted one: n = 9*C_out for grad_x,
    B*H'*W' for grad_k.  These sums are long enough to cancel, so a bound
    relative to the result would not hold.  All arrays channels-last."""
    abs_x, abs_k = conv2d_backward(abs(g), abs(x), abs(k), stride)
    eps = np.finfo(np.float64).eps
    assert gx.shape == want_x.shape and gk.shape == want_k.shape
    assert (abs(gx - want_x) <= 9 * k.shape[0] * eps * abs_x).all()
    assert (abs(gk - want_k) <= g[..., 0].size * eps * abs_k).all()


class TestConv2d:
    def test_all_ones_center(self):
        x = np.ones((1, 3, 3, 1))
        k = np.ones((1, 1, 3, 3))
        out = conv2d_forward(x, k, stride=1)
        assert out[0, 1, 1, 0] == 9.0

    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 6, 6))
        k = np.zeros((2, 2, 3, 3))
        k[0, 0, 1, 1] = 1.0
        k[1, 1, 1, 1] = 1.0
        out = conv2d_forward(nhwc(x), k, stride=1)
        assert np.array_equal(nchw(out), x)  # copy of one summand, hence bitwise

    @pytest.mark.parametrize("stride", [1, 2])
    def test_against_six_loop_oracle(self, stride):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 8, 8))
        k = rng.standard_normal((3, 2, 3, 3))
        np.testing.assert_allclose(nchw(conv2d_forward(nhwc(x), k, stride))[0],
                                   naive_conv2d(x[0], k, stride),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_bitwise_equals_tensordot(self, shape):
        """Bitwise for a batch of two or more.  For a batch of one tensordot
        hands BLAS a column-major operand, which rounds differently, so
        there each element is within the float64 bound for a sum of
        n = 9*C_in terms, n*eps*sum(|term|)."""
        x, k, _, stride = conv_case(shape)
        want = tensordot_conv2d_forward(nchw(x), k, stride)
        got = conv2d_forward(x, k, stride)
        if len(x) > 1:
            assert np.array_equal(got, want)
        else:
            bound = 9 * k.shape[1] * np.finfo(np.float64).eps * \
                conv2d_forward(abs(x), abs(k), stride)
            assert got.shape == want.shape and (abs(got - want) <= bound).all()

    def test_forward_peak_memory(self):
        """The 96-sample eval forward at 8 channels and 32x32 holds no
        batch-sized unfold: its peak stays below the output, a padded copy
        of the input and two unfold blocks (a whole unfold is 54 MiB)."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((96, 32, 32, 8))
        k = rng.standard_normal((8, 8, 3, 3))
        tracemalloc.start()
        try:
            out = conv2d_forward(x, k, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = 96 * 8 * 34 * 34 * x.itemsize
        assert peak < out.nbytes + padded + 2 * UNFOLD_BLOCK_BYTES

    def test_empty_batch(self):
        x, k = np.zeros((0, 8, 8, 3)), np.ones((4, 3, 3, 3))
        assert conv2d_forward(x, k).shape == (0, 8, 8, 4)
        gx, gk = conv2d_backward(np.zeros((0, 8, 8, 4)), x, k)
        assert gx.shape == x.shape and not gk.any()

    def test_rejects_non_3x3(self):
        with pytest.raises(ShapeError):
            conv2d_forward(np.ones((1, 4, 4, 1)), np.ones((1, 1, 5, 5)))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 8, 8, 2))
        k = rng.standard_normal((3, 2, 3, 3))
        assert np.array_equal(conv2d_forward(x, k), conv2d_forward(x, k))


class TestConv2dBackward:
    def test_zero_grad(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 4, 4, 2))
        k = rng.standard_normal((3, 2, 3, 3))
        gx, gk = conv2d_backward(np.zeros((1, 4, 4, 3)), x, k)
        assert not gx.any() and not gk.any()

    def test_one_hot_adjoint(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 5, 5, 1))
        k = rng.standard_normal((1, 1, 3, 3))
        g = np.zeros((1, 5, 5, 1))
        g[0, 2, 2, 0] = 1.0
        _, gk = conv2d_backward(g, x, k)
        patch = x[0, 1:4, 1:4, 0]
        np.testing.assert_allclose(gk[0, 0], patch, atol=1e-15)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_bitwise_equals_batch_reference(self, shape):
        """Against the scatter-add kernel on (C_in, 3, 3) columns, which
        sums in another order: both gradients within the float64 sum
        bound, and of the same layout."""
        x, k, g, stride = conv_case(shape)
        want_x, want_k = batch_conv2d_backward(g, x, k, stride)
        gx, gk = conv2d_backward(g, x, k, stride)
        assert_backward_near(gx, gk, want_x, want_k, g, x, k, stride)
        assert gk.flags.c_contiguous and gx.flags.c_contiguous

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_input_grad_of_a_sample_alone_is_bitwise_its_slice(self, shape):
        """grad_x's GEMM rows are independent of each other, so neither the
        blocks nor the batch around a sample change its bits."""
        x, k, g, stride = conv_case(shape)
        gx, _ = conv2d_backward(g, x, k, stride)
        for n in range(x.shape[0]):
            alone, _ = conv2d_backward(g[n:n + 1], x[n:n + 1], k, stride)
            assert np.array_equal(alone, gx[n:n + 1])

    @pytest.mark.parametrize("c, hw, c_out, stride", [
        (8, 32, 8, 1), (8, 32, 16, 2), (16, 16, 32, 2)])
    def test_backward_peak_memory(self, c, hw, c_out, stride):
        """The 96-sample eval backwards of the ResNet-8 convs at 32x32 and
        16x16 hold no batch-sized unfold (54 MiB at 8 channels and 32x32):
        the peak stays below grad_x, one padded block of input and two
        unfold blocks."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((96, hw, hw, c))
        k = rng.standard_normal((c_out, c, 3, 3))
        h_out, w_out = _conv_geometry(hw, hw, stride)
        g = rng.standard_normal((96, h_out, w_out, c_out))
        tracemalloc.start()
        try:
            gx, _ = conv2d_backward(g, x, k, stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded_block = c * (hw + 2) ** 2 * x.itemsize
        assert peak < gx.nbytes + padded_block + 2 * UNFOLD_BLOCK_BYTES

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 8), st.integers(1, 8), st.sampled_from([1, 2]),
           st.integers(0, 2 ** 31))
    def test_against_loop_oracle_any_shape(self, b, c, c_out, h, w, stride,
                                           seed):
        """Odd and even H and W: at stride 2 the odd output phase has as
        many rows (columns) as the even one when H (W) is even, one fewer
        when it is odd, and none when it is 1."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, c, h, w))
        k = rng.standard_normal((c_out, c, 3, 3))
        g = rng.standard_normal((b, c_out) + _conv_geometry(h, w, stride))
        want = [naive_conv2d_backward(g[n], x[n], k, stride) for n in range(b)]
        g, x = nhwc(g), nhwc(x)
        gx, gk = conv2d_backward(g, x, k, stride)
        assert_backward_near(gx, gk, nhwc(np.stack([gx for gx, _ in want])),
                             sum(gk for _, gk in want), g, x, k, stride)

    @pytest.mark.parametrize("shape", [(32, 3, 32, 32, 8, 1),
                                       (32, 3, 8, 8, 6, 1),
                                       (1, 4, 7, 5, 3, 2), (2, 3, 1, 1, 4, 2)])
    def test_without_input_grad(self, shape):
        x, k, g, stride = conv_case(shape)
        gx, gk = conv2d_backward(g, x, k, stride, input_grad=False)
        assert gx is None
        assert np.array_equal(gk, conv2d_backward(g, x, k, stride)[1])

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("b", [1, 3])
    def test_against_loop_oracle(self, stride, b):
        """Odd, unequal H and W."""
        rng = np.random.default_rng(7 + stride)
        x = rng.standard_normal((b, 2, 7, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        h_out, w_out = (7 - 1) // stride + 1, (5 - 1) // stride + 1
        g = rng.standard_normal((h_out, w_out, b, 3)).transpose(2, 3, 0, 1)
        want = [naive_conv2d_backward(g[n], x[n], k, stride) for n in range(b)]
        want_x = np.stack([gx for gx, _ in want])
        want_k = sum(gk for _, gk in want)
        gx, gk = conv2d_backward(nhwc(g), nhwc(x), k, stride)
        assert nchw(gx).shape == x.shape and gk.shape == k.shape
        np.testing.assert_allclose(nchw(gx), want_x, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gk, want_k, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_against_loop_oracle_across_blocks(self, stride):
        """Five 8x32x32 samples: at stride 1 the unfold spans five blocks."""
        rng = np.random.default_rng(7 + stride)
        x = rng.standard_normal((5, 8, 32, 32))
        k = rng.standard_normal((3, 8, 3, 3))
        g = rng.standard_normal((5, 3) + _conv_geometry(32, 32, stride))
        want = [naive_conv2d_backward(g[n], x[n], k, stride) for n in range(5)]
        g, x = nhwc(g), nhwc(x)
        gx, gk = conv2d_backward(g, x, k, stride)
        assert_backward_near(gx, gk, nhwc(np.stack([gx for gx, _ in want])),
                             sum(gk for _, gk in want), g, x, k, stride)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("stride", [1, 2])
    def test_finite_differences(self, seed, stride):
        rng = np.random.default_rng(seed)
        x = nhwc(rng.standard_normal((1, 2, 4, 4)))
        k = rng.standard_normal((2, 2, 3, 3))
        proj = rng.standard_normal(conv2d_forward(x, k, stride).shape)

        def loss(x_, k_):
            return float((conv2d_forward(x_, k_, stride) * proj).sum())

        gx, gk = conv2d_backward(proj, x, k, stride)
        h = 1e-5
        for arr, grad in ((x, gx), (k, gk)):
            flat = arr.ravel()
            gflat = grad.ravel()
            for j in range(0, flat.size, 7):
                orig = flat[j]
                flat[j] = orig + h
                lp = loss(x, k)
                flat[j] = orig - h
                lm = loss(x, k)
                flat[j] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-8) < 1e-4


def loop_unfold_taps(xp, stride, h_out, w_out):
    """Nine tap copies of a padded channels-last block into (3, 3, C)
    columns."""
    n, c = xp.shape[0], xp.shape[3]
    cols = np.empty((n, h_out, w_out, 3, 3, c))
    for i in range(3):
        for j in range(3):
            cols[:, :, :, i, j] = xp[:, i:i + stride * h_out:stride,
                                     j:j + stride * w_out:stride]
    return cols.reshape(-1, 9 * c)


class TestUnfold:
    def test_blocks_equal_per_sample_unfolds(self):
        """A block fills the leading rows of a larger buffer with the
        per-sample unfolds, stacked; odd H and W, both strides."""
        rng = np.random.default_rng(11)
        xp = np.pad(rng.standard_normal((5, 7, 9, 4)),
                    ((0, 0), (1, 1), (1, 1), (0, 0)))
        for stride in (1, 2):
            h_out, w_out = _conv_geometry(7, 9, stride)
            cols = np.full((6 * h_out * w_out, 36), np.nan)
            u = _unfold_taps(xp, stride, h_out, w_out, cols)
            assert np.shares_memory(u, cols) and u.flags.c_contiguous
            assert u.shape == (5 * h_out * w_out, 36)
            assert np.isnan(cols[len(u):]).all()
            want = np.concatenate([_unfold_taps(xp[n:n + 1], stride, h_out,
                                                w_out, cols.copy())
                                   for n in range(5)])
            assert np.array_equal(u, want)
            assert np.array_equal(u, loop_unfold_taps(xp, stride, h_out,
                                                      w_out))


def argmax_maxpool2_forward(x):
    """Reference for maxpool2_forward, which must match it bitwise: the
    window copy (B, C, H/2, W/2, 4), its argmax and take_along_axis; x
    channels-first."""
    b, c, h, w = x.shape
    win = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(b, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], idx


def argmax_maxpool2_backward(grad_out, idx):
    """Reference for maxpool2_backward: put_along_axis into zeroed windows,
    transposed back to (B, C, H, W)."""
    b, c, h2, w2 = grad_out.shape
    gwin = np.zeros((b, c, h2, w2, 4))
    np.put_along_axis(gwin, idx[..., None], grad_out[..., None], axis=-1)
    gx = gwin.reshape(b, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return gx.reshape(b, c, h2 * 2, w2 * 2)


def pool_case(seed):
    """A random even-sized channels-first batch whose windows hold ties,
    signed zeros, NaN and infinities, and a gradient; every third case
    integer-valued, so ties are common."""
    rng = np.random.default_rng(seed)
    b, c = rng.integers(1, 5, 2)
    h, w = 2 * rng.integers(1, 5, 2)
    if seed % 3:
        x = rng.standard_normal((b, c, h, w))
    else:
        x = rng.integers(-2, 3, (b, c, h, w)).astype(float)
    special = rng.random(x.shape) < 0.3
    x[special] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf],
                            special.sum())
    g = rng.standard_normal((b, c, h // 2, w // 2))
    g[rng.random(g.shape) < 0.2] = -0.0
    g[rng.random(g.shape) < 0.1] = np.nan
    return x, g


class TestMaxPool:
    def test_single_window(self):
        out, _ = maxpool2_forward(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]]))
        assert out[0, 0, 0, 0] == 4.0

    def test_tie_routes_top_left(self):
        x = np.ones((1, 2, 2, 1))
        out, idx = maxpool2_forward(x)
        g = maxpool2_backward(np.ones((1, 1, 1, 1)), idx, x.shape)
        assert g[0, 0, 0, 0] == 1.0 and g.sum() == 1.0

    def test_window_scan_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 4, 4, 1))
        out, _ = maxpool2_forward(x)
        for i in range(2):
            for j in range(2):
                assert out[0, i, j, 0] == x[0, 2 * i:2 * i + 2,
                                            2 * j:2 * j + 2, 0].max()

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2_forward(np.ones((1, 3, 4, 1)))

    @pytest.mark.parametrize("seed", range(60))
    def test_bitwise_equals_argmax_reference(self, seed):
        x, g = pool_case(seed)
        out, idx = maxpool2_forward(nhwc(x))
        want_out, want_idx = argmax_maxpool2_forward(x)
        assert out.tobytes() == nhwc(want_out).tobytes()  # NaN and -0.0 included
        assert idx.dtype == want_idx.dtype
        assert np.array_equal(idx, nhwc(want_idx))
        gx = maxpool2_backward(nhwc(g), idx, nhwc(x).shape)
        assert gx.tobytes() == nhwc(argmax_maxpool2_backward(g, want_idx)).tobytes()

    @pytest.mark.parametrize("window, want", [
        ([-0.0, 0.0, 0.0, -0.0], 0), ([0.0, -0.0, -0.0, 0.0], 0),
        ([1.0, np.nan, 2.0, np.nan], 1), ([np.nan, np.inf, 1.0, 0.0], 0),
        ([-np.inf, -np.inf, -np.inf, -np.inf], 0), ([1.0, 3.0, 3.0, 2.0], 1),
        ([-np.inf, 0.0, np.inf, np.inf], 2), ([1.0, 1.0, 1.0, np.nan], 3)])
    def test_tie_and_nan_rules(self, window, want):
        """First maximum wins, a -0.0/+0.0 tie keeps the first, first NaN
        wins; the window is [x00, x01, x10, x11]."""
        x = np.array(window).reshape(1, 2, 2, 1)
        out, idx = maxpool2_forward(x)
        assert idx[0, 0, 0, 0] == want
        assert out.tobytes() == x.reshape(4)[want:want + 1].tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_backward_finite_differences(self, seed):
        """A probe whose +h or -h forward picks other window elements than
        the base forward is skipped; every other probe is asserted."""
        rng = np.random.default_rng(100 + seed)
        x = nhwc(rng.standard_normal((1, 2, 4, 4)))
        proj = nhwc(rng.standard_normal((1, 2, 2, 2)))
        out, idx = maxpool2_forward(x)
        g = maxpool2_backward(proj, idx, x.shape)
        h = 1e-5
        flat = x.ravel()
        skipped = 0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            out_p, idx_p = maxpool2_forward(x)
            flat[j] = orig - h
            out_m, idx_m = maxpool2_forward(x)
            flat[j] = orig
            if not (np.array_equal(idx_p, idx) and np.array_equal(idx_m, idx)):
                skipped += 1
                continue
            fd = float(((out_p - out_m) * proj).sum()) / (2 * h)
            assert abs(fd - g.ravel()[j]) <= 1e-6
        assert skipped < flat.size


class TestGlobalAvgPool:
    def test_constant_channel(self):
        assert global_avg_pool_forward(np.full((1, 3, 3, 1), 7.0))[0, 0] == 7.0

    def test_small_mean(self):
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        assert global_avg_pool_forward(x)[0, 0] == 2.5

    @pytest.mark.parametrize("seed", range(20))
    def test_backward_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = nhwc(rng.standard_normal((1, 3, 2, 2)))
        proj = rng.standard_normal((1, 3))
        g = global_avg_pool_backward(proj, x.shape)
        h = 1e-5
        flat = x.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp = float((global_avg_pool_forward(x) * proj).sum())
            flat[j] = orig - h
            lm = float((global_avg_pool_forward(x) * proj).sum())
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - g.ravel()[j]) / max(abs(fd), abs(g.ravel()[j]), 1e-8)
            assert rel < 1e-4
