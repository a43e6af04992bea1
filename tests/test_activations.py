"""Shifted-activation semantics: forward rule, both gradients, invariants.

Inputs are channels-last (B, H, W, C), with per-channel t and slopes of
shape (C,), as the network passes them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ngnet.activations import (GRANULARITIES, SELU, SELU_ALPHA, SELU_LAMBDA,
                               Leaky, ReLU, make_base, ng_backward_input,
                               ng_forward, ng_grad_t, prelu_grad_a,
                               shift_shape)
from ngnet.errors import ContractError

BASES = ("identity", "relu", "lrelu", "prelu", "selu")


def ref_forward(base, t, x, a=None):
    """Reference for ng_forward's output, which must match it bitwise: the
    kernel before the branch mask, which builds u = x - t on a contiguous
    copy of x and keeps x itself where u >= 0 for linear_positive bases."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    t = np.broadcast_to(t, x.shape)
    u = x - t
    shifted = base.f(u, a) + t
    if base.linear_positive:
        return np.where(u >= 0.0, x, shifted)
    return shifted


def ref_backward_input(base, t, x, grad_out, a=None):
    """Reference for ng_backward_input: grad_out * f'(x - t), u rebuilt."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    u = x - np.broadcast_to(t, x.shape)
    return np.ascontiguousarray(grad_out) * base.df(u, a)


def ref_reduce_to_param(g, param_shape, batched):
    """The version of reduce_to_param that took the batch axis as an
    argument and summed it first, on its own, in NumPy's order; the kernel
    sums in another order (colsum_reduce), so within the float64 sum
    bound."""
    g = np.ascontiguousarray(g, dtype=np.float64)
    if batched:
        g = g.sum(axis=0)
    extra = g.ndim - len(param_shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(param_shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(param_shape)


def colsum_reduce(g, param_shape):
    """g summed down to a trailing shape of its samples: each column of its
    (N, size) view summed by one BLAS product with a vector of ones."""
    cols = g.reshape(-1, math.prod(param_shape))
    return (np.ones(len(cols)) @ cols).reshape(param_shape)


def ref_grad_t_terms(base, t, x, grad_out, a=None):
    """The terms ng_grad_t sums: grad_out * (1 - f'(x - t)), u rebuilt."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    u = x - np.broadcast_to(t, x.shape)
    return np.ascontiguousarray(grad_out) * (1.0 - base.df(u, a))


def ref_grad_t(base, t, x, grad_out, a=None):
    """Reference for ng_grad_t, which must match it bitwise: the terms
    summed down to t's storage shape by columns."""
    return colsum_reduce(ref_grad_t_terms(base, t, x, grad_out, a), t.shape)


def t_arr(t):
    return np.asarray(t, dtype=float)


def fwd(base, t, x, a=None):
    return ng_forward(base, t_arr(t), np.asarray(x, dtype=float), a)[0]


def bwd_x(base, t, x, grad_out, a=None):
    t, x = t_arr(t), np.asarray(x, dtype=float)
    _, m = ng_forward(base, t, x, a)
    return ng_backward_input(base, t, x, m, np.asarray(grad_out, dtype=float), a)


def grad_t(base, t, x, grad_out):
    t, x = t_arr(t), np.asarray(x, dtype=float)
    _, m = ng_forward(base, t, x)
    return ng_grad_t(base, t, x, m, np.asarray(grad_out, dtype=float))


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64)), \
        f"\n got {got!r}\nwant {want!r}"


class TestForward:
    def test_relu_above_shift(self):
        assert fwd(ReLU(), [-1.0], [0.5])[0] == 0.5

    def test_relu_floor(self):
        assert fwd(ReLU(), [-1.0], [-2.0])[0] == -1.0

    def test_lrelu_substitution(self):
        # 0.1 * (-2 - (-1)) + (-1) = -1.1
        assert np.isclose(fwd(Leaky(0.1), [-1.0], [-2.0])[0], -1.1)

    def test_relu_is_max(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100)
        np.testing.assert_array_equal(fwd(ReLU(), [-0.3], x), np.maximum(x, -0.3))

    def test_granularities_agree(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4, 4, 3))
        y_elem = fwd(ReLU(), np.full((4, 4, 3), -0.5), x)
        y_chan = fwd(ReLU(), np.full((3,), -0.5), x)
        y_layer = fwd(ReLU(), [-0.5], x)
        np.testing.assert_array_equal(y_elem, y_chan)
        np.testing.assert_array_equal(y_chan, y_layer)

    @pytest.mark.parametrize("base", ["relu", "lrelu", "selu"])
    def test_translation_anchor(self, base):
        # the wrapper is the base translated along y = x: NG_t(x) - t = f(x - t)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(50)
        b = make_base(base)
        np.testing.assert_allclose(fwd(b, [-0.7], x) - (-0.7), b.f(x - (-0.7)),
                                   atol=1e-15)

    @pytest.mark.parametrize("base", ["relu", "lrelu", "selu"])
    def test_continuity_at_kink(self, base):
        b = make_base(base)
        eps = 1e-8
        lo = fwd(b, [0.4], [0.4 - eps])[0]
        hi = fwd(b, [0.4], [0.4 + eps])[0]
        assert abs(hi - lo) < 1e-6

    def test_mask_is_x_ge_t(self):
        x = np.array([[-1.0, 0.5, 0.5, np.nan]])
        _, m = ng_forward(ReLU(), t_arr([0.5]), x)
        np.testing.assert_array_equal(m, [[False, True, True, False]])
        assert m.dtype == bool


class TestLinearRegion:
    """Above the shift the wrapper is bitwise the identity (the testable
    form of the low-capacity initial regime)."""

    @pytest.mark.parametrize("base", ["relu", "lrelu"])
    def test_identity_forward(self, base):
        rng = np.random.default_rng(3)
        x = np.abs(rng.standard_normal(100)) + 0.1
        assert np.array_equal(fwd(make_base(base), [0.0], x), x)

    def test_identity_backward(self):
        rng = np.random.default_rng(4)
        x = np.abs(rng.standard_normal(40)) + 0.1
        g = rng.standard_normal(40)
        assert np.array_equal(bwd_x(ReLU(), [0.0], x, g), g)

    def test_zero_t_gradient(self):
        rng = np.random.default_rng(5)
        x = np.abs(rng.standard_normal(40)) + 0.1
        assert grad_t(ReLU(), [0.0], x, np.ones(40))[0] == 0.0


class TestBackwardInput:
    def test_active_region(self):
        assert bwd_x(ReLU(), [0.0], [2.0], [1.0])[0] == 1.0

    def test_inactive_region(self):
        assert bwd_x(ReLU(), [0.0], [-1.0], [1.0])[0] == 0.0

    def test_kink_uses_right_derivative(self):
        assert bwd_x(ReLU(), [0.3], [0.3], [1.0])[0] == 1.0

    @pytest.mark.parametrize("base", ["relu", "lrelu", "selu"])
    def test_finite_differences(self, base):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(60)
        x = x[np.abs(x - 0.2) > 1e-3]  # kink-free sampling
        b = make_base(base)
        proj = rng.standard_normal(x.size)
        g = bwd_x(b, [0.2], x, proj)
        h = 1e-5
        for j in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = float(((fwd(b, [0.2], xp) - fwd(b, [0.2], xm)) * proj).sum()) / (2 * h)
            assert abs(fd - g[j]) / max(abs(fd), abs(g[j]), 1e-8) < 1e-4


class TestGradT:
    def test_active_branch_factor_zero(self):
        assert grad_t(ReLU(), [0.0], [2.0], [1.0])[0] == 0.0

    def test_inactive_branch_factor_one(self):
        assert grad_t(ReLU(), [0.0], [-1.0], [1.0])[0] == 1.0

    def test_kink_belongs_to_t(self):
        # x == t sits on the linear branch (the mask x >= t holds there), so
        # it adds nothing to t, and the input gradient passes (next test)
        assert grad_t(ReLU(), [0.5], [0.5], [1.0])[0] == 0.0

    def test_lrelu_general_factor(self):
        g = grad_t(Leaky(0.1), [0.0], [-1.0], [1.0])
        assert np.isclose(g[0], 0.9)

    @pytest.mark.parametrize("base", ["relu", "lrelu", "selu"])
    def test_finite_differences_on_t(self, base):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(60)
        t0 = 0.15
        x = x[np.abs(x - t0) > 1e-3]
        proj = rng.standard_normal(x.size)
        h = 1e-5
        b = make_base(base)

        def loss(tv):
            return float((fwd(b, [tv], x) * proj).sum())

        g = grad_t(b, [t0], x, proj)
        fd = (loss(t0 + h) - loss(t0 - h)) / (2 * h)
        assert abs(fd - g[0]) / max(abs(fd), abs(g[0]), 1e-8) < 1e-4

    def test_channel_reduction(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 3, 3, 2))  # batch of 4, 2 channels
        g = grad_t(ReLU(), np.full((2,), 0.1), x, np.ones_like(x))
        # each channel's entry equals the count of inactive elements
        expect = ((x - 0.1) < 0).sum(axis=(0, 1, 2)).astype(float)
        np.testing.assert_allclose(g.ravel(), expect)

    def test_kink_belongs_to_t_exactly(self):
        # at x == t: input grad passes (right derivative), t factor is 0
        assert bwd_x(ReLU(), [0.5], [0.5], [1.0])[0] == 1.0


class TestPReLU:
    @staticmethod
    def slope_grad(t, x, grad_out, a):
        return prelu_grad_a(Leaky(None), t_arr(t), np.asarray(x, dtype=float),
                            np.asarray(grad_out, dtype=float), a)

    def test_positive_inputs_zero_slope_grad(self):
        g = self.slope_grad([0.0], [1.0, 2.0], np.ones(2), np.array([0.25]))
        assert g[0] == 0.0

    def test_single_negative_unit(self):
        u, gout = -1.5, 0.7
        g = self.slope_grad([0.0], [u], [gout], np.array([0.25]))
        assert np.isclose(g[0], gout * u)

    def test_slope_applies_to_shifted_input(self):
        # x = -2, t = -1 -> u = -1: slope sees u, not x
        g = self.slope_grad([-1.0], [-2.0], [1.0], np.array([0.25]))
        assert np.isclose(g[0], -1.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(50)
        proj = rng.standard_normal(50)
        a0 = 0.25
        h = 1e-5

        def loss(av):
            return float((fwd(Leaky(None), [0.1], x, np.array([av])) * proj).sum())

        g = self.slope_grad([0.1], x, proj, np.array([a0]))
        fd = (loss(a0 + h) - loss(a0 - h)) / (2 * h)
        assert abs(fd - g[0]) / max(abs(fd), abs(g[0]), 1e-8) < 1e-4

    def test_non_prelu_base_rejected(self):
        with pytest.raises(ContractError):
            prelu_grad_a(ReLU(), t_arr([0.0]), np.zeros(3), np.zeros(3),
                         np.array([0.25]))

    def test_missing_slope_rejected(self):
        with pytest.raises(ContractError):
            fwd(Leaky(None), [0.0], [-1.0])


@pytest.mark.parametrize("name, kwargs", [("identity", {}),
                                          ("lrelu", {"alpha": 0.1}),
                                          ("prelu", {})])
def test_leaky_f_and_df_are_closed_forms(name, kwargs):
    """f(u) = u and f'(u) = 1 for u >= 0, f(u) = s * u and f'(u) = s below
    and at NaN, with s 1.0, alpha, or the channel's a; element by element
    in Python floats, bitwise, so that the kernel references, which read
    f and df, cannot drift together with the base."""
    rng = np.random.default_rng(5)
    u = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan],
                        rng.standard_normal(31)]).reshape(2, 3, 2, 3)
    a = rng.uniform(0.01, 0.99, 3) if name == "prelu" else None
    slope = {"identity": 1.0, "lrelu": 0.1, "prelu": a}[name]
    pairs = list(zip(u.ravel().tolist(),
                     np.broadcast_to(slope, u.shape).ravel().tolist()))
    base = make_base(name, **kwargs)
    assert_bitwise(base.f(u, a),
                   np.reshape([v if v >= 0 else s * v for v, s in pairs],
                              u.shape))
    assert_bitwise(base.df(u, a),
                   np.reshape([1.0 if v >= 0 else s for v, s in pairs],
                              u.shape))


class TestSELU:
    def test_zero(self):
        assert SELU().f(np.array([0.0]))[0] == 0.0

    def test_positive_branch(self):
        assert np.isclose(SELU().f(np.array([1.0]))[0], SELU_LAMBDA)

    def test_saturation(self):
        v = SELU().f(np.array([-20.0]))[0]
        assert np.isclose(v, -SELU_LAMBDA * SELU_ALPHA, rtol=1e-6)


class TestShiftShape:
    def test_conv_shapes(self):
        """A conv sample is (H, W, C); t is its trailing shape."""
        assert shift_shape("element", (8, 8, 4)) == (8, 8, 4)
        assert shift_shape("channel", (8, 8, 4)) == (4,)
        assert shift_shape("layer", (8, 8, 4)) == (1,)

    def test_dense_shapes(self):
        assert shift_shape("element", (16,)) == (16,)
        assert shift_shape("channel", (16,)) == (16,)
        assert shift_shape("layer", (16,)) == (1,)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-2, 2))
def test_floor_property_everywhere(x, t):
    """ReLU wrapper == max(x, t) for all x, t."""
    assert fwd(ReLU(), [t], [x])[0] == max(x, t)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=30), st.floats(-2, 2))
def test_linear_identity_property(xs, t):
    """If every x > t, forward is bitwise identity for the ReLU base."""
    x = np.asarray(xs)
    x = x[x > t]
    if x.size == 0:
        return
    assert np.array_equal(fwd(ReLU(), [t], x), x)


# ---------------------------------------------------------------------------
# Bitwise equality with the reference formula
# ---------------------------------------------------------------------------

def check_against_reference(base, t, x, grad_out, a=None):
    """Forward, input gradient and t-gradient bitwise equal to the
    reference, with C-contiguous full-shape results; the t-gradient also
    within the float64 sum bound, n*eps*sum(|term|), of the NumPy-order
    sum of the same terms."""
    y, m = ng_forward(base, t, x, a)
    dx = ng_backward_input(base, t, x, m, grad_out, a)
    dt = ng_grad_t(base, t, x, m, grad_out, a)
    for arr in (y, m, dx):
        assert arr.flags.c_contiguous
    assert_bitwise(y, ref_forward(base, t, x, a))
    assert_bitwise(dx, ref_backward_input(base, t, x, grad_out, a))
    assert_bitwise(dt, ref_grad_t(base, t, x, grad_out, a))
    terms = ref_grad_t_terms(base, t, x, grad_out, a)
    if np.isfinite(terms).all():
        batched = x.ndim == t.ndim + 1
        n = terms.size // t.size
        bound = n * np.finfo(np.float64).eps * colsum_reduce(abs(terms),
                                                             t.shape)
        assert (abs(dt - ref_reduce_to_param(terms, t.shape, batched))
                <= bound).all()


# Finite values, both signed zeros and exact ties; infinities are left out:
# at x == t == ±inf the reference's u = x - t is NaN while the mask x >= t
# holds, so the kernels return x there (documented in ng_forward).
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                    st.floats(-3, 3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bitwise_equals_reference(data):
    base = make_base(data.draw(st.sampled_from(BASES), label="base"))
    granularity = data.draw(st.sampled_from(GRANULARITIES), label="granularity")
    batch = data.draw(st.integers(1, 3), label="batch")
    if data.draw(st.booleans(), label="conv"):
        sample = tuple(data.draw(st.tuples(*[st.integers(1, 3)] * 3), label="hwc"))
    else:
        sample = (data.draw(st.integers(1, 4), label="features"),)
    shape = (batch,) + sample
    t = data.draw(arrays(np.float64, shift_shape(granularity, sample),
                         elements=_VALUES), label="t")
    x = data.draw(arrays(np.float64, shape, elements=_VALUES), label="x")
    # ties x == t, and NaN inputs
    tie = data.draw(arrays(np.bool_, shape), label="tie")
    x = np.where(tie, np.broadcast_to(t, shape), x)
    nan = data.draw(arrays(np.bool_, shape,
                           elements=st.sampled_from([False, False, True])),
                    label="nan")
    x[nan] = np.nan
    grad_out = data.draw(arrays(np.float64, shape, elements=_VALUES), label="g")
    a = None
    if base.has_slope_param:
        a = data.draw(arrays(np.float64, shift_shape("channel", sample),
                             elements=st.floats(0.01, 0.99)), label="a")
    check_against_reference(base, t, x, grad_out, a)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_signed_zero_ties_and_nan_bitwise(base, granularity):
    """Every pairing of ±0.0 in x with a stored t of ±0.0, and NaN inputs,
    on a conv output (B, H, W, C), at every granularity."""
    b = make_base(base)
    t_shape = shift_shape(granularity, (3, 2, 2))
    a = np.full((2,), 0.25) if b.has_slope_param else None
    rng = np.random.default_rng(11)
    for t_val in (0.0, -0.0):
        t = np.full(t_shape, t_val)
        for _ in range(2):
            x = rng.choice([0.0, -0.0, np.nan, 0.25, -0.25], size=(3, 3, 2, 2))
            g = rng.choice([0.0, -0.0, 1.5, -2.0], size=x.shape)
            check_against_reference(b, t, x, g, a)
