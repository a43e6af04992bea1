"""Dense numerical kernels: 3x3 convolution, pooling.

All arrays are float64 and all kernels are pure functions.  Convolution is
restricted to 3x3 kernels with zero padding 1 and stride 1 or 2; pooling is
2x2 non-overlapping max or global average.  Every kernel takes batches only:
``(B, C, H, W)`` in, with a single sample passed as ``(1, C, H, W)``, and
global average pooling's gradient ``(B, C)``.

Max pool compares the four strided views ``x[:, :, i::2, j::2]`` of its
windows in row-major order and keeps the rules of ``np.argmax`` over a
window: the first maximum wins, so a tie of -0.0 and +0.0 keeps the first,
and the first NaN wins.

Convolution is unfold + GEMM (Chellapilla, Puri & Simard 2006) on blocks
of samples whose unfold rows fit in ``UNFOLD_BLOCK_BYTES``, so an unfold
larger than L2 (32x32 inputs) is neither streamed from memory once per tap
nor read back by a batch-sized GEMM (Goto & van de Geijn 2008).  At 8x8
and batch 32 the whole batch is one block.  GEMM output rows do not depend
on each other, so blocking the forward and the input gradient is bitwise
neutral; the kernel gradient's sum over blocks is not.

The forward unfolds a block, padded channels-last, by nine tap copies of
stride nine into ``(n*H'*W', C*9)`` columns in the kernel's ``(C_in, 3, 3)``
order, the operands ``np.tensordot`` builds from channels-first patches,
so its results are bitwise those of ``tensordot``.  It keeps that unfold
until the benchmark stops keeping one value per finite-difference eval,
which alone makes a faster forward read as a memory regression.

The backward unfolds tap-major: one copy of a window view of the padded
channels-last block gives ``(n*H'*W', 9*C)`` columns in ``(3, 3, C)``
order, whose innermost run, kernel column by channel, is contiguous.  The
kernel gradient sums ``G.T @ U`` over blocks.  The input gradient is a
conv of the padded output gradient with the kernels flipped and C_in and
C_out swapped (Dumoulin & Visin 2016, arXiv:1603.07285) by output phase
(Shi et al. 2016, arXiv:1609.07009): rows and columns [p::s, q::s] take
the flipped taps [(1-p)%s::s, (1-q)%s::s] alone, with no zeros inserted.
One GEMM per phase and block, no scatter-add; blocks are sized by the
unfold of all phases, H'*W'*9*C_out values per sample.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# Half of a 2 MiB per-core L2, so one block of unfold rows and the input
# samples it reads stay cached across the nine tap copies and the GEMM.
UNFOLD_BLOCK_BYTES = 1 << 20


def as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _conv_geometry(h, w, stride):
    if stride not in (1, 2):
        raise ShapeError(f"stride must be 1 or 2, got {stride}")
    return (h + 2 - 3) // stride + 1, (w + 2 - 3) // stride + 1


def _block_samples(b, c, h_out, w_out, budget=UNFOLD_BLOCK_BYTES):
    """Samples per block: as many as keep a block of unfold rows within
    budget bytes, at most the batch and at least one."""
    return max(1, min(b, budget // (h_out * w_out * c * 9 * 8)))


def _unfold_block(x, stride, xp, cols):
    """Fill cols (n, H', W', C, 3, 3) with the 3x3 patches of the n samples
    x (n, C, H, W), staged channels-last in xp (n, H+2, W+2, C), whose
    one-pixel border must be zero."""
    h_out, w_out = cols.shape[1:3]
    xp[:, 1:-1, 1:-1] = x.transpose(0, 2, 3, 1)
    for i in range(3):
        for j in range(3):
            cols[..., i, j] = xp[:, i:i + stride * h_out:stride,
                                 j:j + stride * w_out:stride]


def _unfold_taps(xp, stride, h_out, w_out, cols, taps=(3, 3), first=0):
    """Copy the windows of taps (rows, columns) of xp (n, H, W, C), a
    contiguous padded channels-last block, from row and column first on, to
    the front of cols as (n*H'*W', taps*C) rows, one per output position,
    columns in (tap row, tap column, C) order."""
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    # a strided view of xp's buffer; np.ndarray checks that it fits there
    win = np.ndarray((n, h_out, w_out, *taps, c), xp.dtype, xp,
                     first * (sh + sw),
                     (sn, stride * sh, stride * sw, sh, sw, sc))
    u = cols.reshape(-1)[:win.size].reshape(win.shape)
    u[...] = win
    return u.reshape(n * h_out * w_out, -1)


def conv2d_forward(x, kernels, stride=1):
    """3x3 convolution with zero padding 1.

    x: (B, C_in, H, W); kernels: (C_out, C_in, 3, 3).
    Per block of samples, one GEMM of the block's unfold U (n*H'*W',
    C_in*9) with the kernels as stored, K (C_out, C_in*9): ``U @ K.T``,
    the BLAS call ``np.tensordot`` makes, written into the block's rows of
    one channels-last output.  For a batch of one ``tensordot`` handed BLAS
    a column-major U, which rounds differently in the last bit, so U is
    copied to that layout there (the batch is then its only block).
    """
    x = as_f64(x)
    kernels = as_f64(kernels)
    if kernels.ndim != 4 or kernels.shape[2:] != (3, 3):
        raise ShapeError(f"only 3x3 kernels are supported, got {kernels.shape}")
    if kernels.shape[1] != x.shape[1]:
        raise ShapeError(f"channel mismatch: input {x.shape} vs kernels {kernels.shape}")
    b, c, h, w = x.shape
    c_out = kernels.shape[0]
    h_out, w_out = _conv_geometry(h, w, stride)
    kt = kernels.reshape(c_out, -1).T
    step = _block_samples(b, c, h_out, w_out)
    xp = np.zeros((step, h + 2, w + 2, c))
    cols = np.empty((step, h_out, w_out, c, 3, 3))
    out = np.empty((b, h_out, w_out, c_out))
    for s in range(0, b, step):
        n = min(step, b - s)
        _unfold_block(x[s:s + n], stride, xp[:n], cols[:n])
        u = cols[:n].reshape(n * h_out * w_out, c * 9)
        if b == 1:
            u = np.asfortranarray(u)
        np.matmul(u, kt, out=out[s:s + n].reshape(n * h_out * w_out, c_out))
    return out.transpose(0, 3, 1, 2)


def conv2d_backward(grad_out, x, kernels, stride=1, input_grad=True):
    """Gradients of conv2d_forward w.r.t. its input and kernels.

    Returns ``(grad_x, grad_k)`` shaped like ``x`` and ``kernels``, grad_x
    a view of a channels-last array; with ``input_grad=False`` grad_x is not
    computed and ``None`` is returned in its place.  Per block of samples,
    with G the block's grad_out as channels-last rows (n*H'*W', C_out):

        grad_k += G.T @ U       U: the tap-major unfold of x
        grad_x  = V @ F         per output phase: V the stride-1 unfold of
                                G padded once, F (taps*C_out, C_in) the
                                kernels flipped, both at the phase's taps
    """
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    kernels = as_f64(kernels)
    b, c, h, w = x.shape
    c_out = kernels.shape[0]
    h_out, w_out = _conv_geometry(h, w, stride)
    if grad_out.shape != (b, c_out, h_out, w_out):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} inconsistent with forward "
            f"output ({b}, {c_out}, {h_out}, {w_out})")
    g = grad_out.transpose(0, 2, 3, 1)
    step = _block_samples(b, c, h_out, w_out)
    xp = np.zeros((step, h + 2, w + 2, c))
    cols = np.empty((step * h_out * w_out, 9 * c))
    gk = np.zeros((c_out, 9 * c))
    for s in range(0, b, step):
        n = min(step, b - s)
        xp[:n, 1:-1, 1:-1] = x[s:s + n].transpose(0, 2, 3, 1)
        gk += g[s:s + n].reshape(-1, c_out).T @ _unfold_taps(
            xp[:n], stride, h_out, w_out, cols)
    # grad_x blocks hold no more unfold bytes than these, so the wider
    # gradient unfold of a widening conv does not raise the peak
    step = _block_samples(b, c_out, h_out, w_out, cols.nbytes)
    del xp, cols
    grad_k = np.ascontiguousarray(gk.reshape(c_out, 3, 3, c).transpose(0, 3, 1, 2))
    if not input_grad:
        return None, grad_k
    flipped = kernels[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
    gx = np.empty((b, h, w, c))
    phases, size = [], 0  # gx[:, p::s, q::s], its taps, F at those taps
    for p in range(stride):
        for q in range(stride):
            out = gx[:, p::stride, q::stride]
            f = flipped[(1 - p) % stride::stride, (1 - q) % stride::stride]
            if out.size:  # none at stride 2 when H or W is 1
                phases.append((out, f.shape[:2], f.reshape(-1, c)))
                size = max(size, out.shape[1] * out.shape[2] * f.size // c)
    gp = np.zeros((step, h_out + 2, w_out + 2, c_out))
    cols = np.empty(step * size)
    for s in range(0, b, step):
        n = min(step, b - s)
        gp[:n, 1:-1, 1:-1] = g[s:s + n]
        for out, taps, f in phases:
            # row s*m + p of each phase reads its first tap at gp row m + s - 1
            u = _unfold_taps(gp[:n], 1, *out.shape[1:3], cols, taps,
                             stride - 1)
            if stride == 1:
                np.matmul(u, f, out=gx[s:s + n].reshape(-1, c))
            else:
                out[s:s + n] = (u @ f).reshape(out[s:s + n].shape)
    return gx.transpose(0, 3, 1, 2), grad_k


def _windows(x):
    """The four strided views of x's 2x2 windows, in row-major order."""
    return [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]


def maxpool2_forward(x):
    """2x2 non-overlapping max pool: (B, C, H, W) -> the maxima and their
    window indices 0-3, both (B, C, H/2, W/2).  A later window element
    replaces the running maximum only where it is strictly greater, or NaN
    where the running maximum is not (the rules of np.argmax)."""
    x = as_f64(x)
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    first, *rest = _windows(x)
    out = first.copy()
    idx = np.zeros(out.shape, dtype=np.intp)
    for k, v in enumerate(rest, start=1):
        # ~(v <= out) is v > out or either is NaN; out == out keeps a NaN out
        wins = ~(v <= out) & (out == out)
        np.copyto(out, v, where=wins)
        np.copyto(idx, k, where=wins)
    return out, idx


def maxpool2_backward(grad_out, idx, in_shape):
    """Route grad_out to the window elements idx names: one strided write
    per window position, the four of which tile the input-shaped result."""
    grad_out = as_f64(grad_out)
    b, c, h2, w2 = grad_out.shape
    if (2 * h2, 2 * w2) != tuple(in_shape[-2:]):
        raise ShapeError(f"pool backward shape {grad_out.shape} vs input {in_shape}")
    gx = np.empty((b, c, 2 * h2, 2 * w2))
    for k, view in enumerate(_windows(gx)):
        view[...] = np.where(idx == k, grad_out, 0.0)
    return gx


def global_avg_pool_forward(x):
    """Per-channel spatial mean: (B, C, H, W) -> (B, C)."""
    return as_f64(x).mean(axis=(2, 3))


def global_avg_pool_backward(grad_out, in_shape):
    grad_out = as_f64(grad_out)
    h, w = in_shape[-2:]
    return np.broadcast_to(grad_out[:, :, None, None] / (h * w),
                           grad_out.shape + (h, w)).copy()
