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

Convolution is unfold + GEMM (Chellapilla, Puri & Simard 2006).  The unfold
copies the input, padded channels-last, into a contiguous
``(B*H'*W', C*9)`` matrix with columns in the kernel's ``(C_in, 3, 3)``
order.  These are the operands ``np.tensordot`` builds from channels-first
patches, so the results are bitwise those of ``tensordot`` (for a batch of
one, see ``conv2d_forward`` and ``conv2d_backward``).

Both directions run over blocks of samples whose unfold rows fit in
``UNFOLD_BLOCK_BYTES``, so an unfold larger than L2 (32x32 inputs) is
neither streamed from memory once per tap nor read back by a batch-sized
GEMM (Goto & van de Geijn 2008).  The forward unfolds a block into one
reused buffer and multiplies it into that block's rows of the output; the
backward's input gradient multiplies a block of output gradients into one
reused taps buffer and scatter-adds it.  GEMM output rows do not depend on
the other rows, so blocking these is bitwise neutral.  The kernel gradient
contracts over all B*H'*W' rows, and splitting that sum would change its
rounding, so it alone still reads a batch-sized unfold.  At 8x8 and batch
32 the whole batch is one block.
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


def _block_samples(b, c, h_out, w_out):
    """Samples per block: as many as keep a block of unfold rows within
    UNFOLD_BLOCK_BYTES, at most the batch and at least one."""
    return max(1, min(b, UNFOLD_BLOCK_BYTES // (h_out * w_out * c * 9 * 8)))


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


def _unfold_channels_last(x, stride, h_out, w_out):
    """Gather the 3x3 patches of a (B, C, H, W) batch, padded by 1, into a
    contiguous (B*H'*W', C*9) matrix: one row per output position, columns
    in the kernel's (C_in, 3, 3) order.  Filled block by block."""
    b, c, h, w = x.shape
    step = _block_samples(b, c, h_out, w_out)
    xp = np.zeros((step, h + 2, w + 2, c))
    cols = np.empty((b, h_out, w_out, c, 3, 3))
    for s in range(0, b, step):
        n = min(step, b - s)
        _unfold_block(x[s:s + n], stride, xp[:n], cols[s:s + n])
    return cols.reshape(b * h_out * w_out, c * 9)


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

    Returns ``(grad_x, grad_k)`` shaped like ``x`` and ``kernels``; with
    ``input_grad=False`` grad_x is not computed and ``None`` is returned in
    its place.  With N = B*H'*W' output positions, the input is unfolded
    into the channels-last (N, C_in*9) matrix U and

        grad_k = G @ U          G:  (C_out, N),  grad_out as (C_out, B, H', W')
        taps   = Gt @ K         Gt: (N, C_out),  grad_out as (B, H', W', C_out)
                                K:  (C_out, C_in*9), the kernels as stored

    Both GEMMs take C-contiguous operands of exactly the shapes and layouts
    ``np.tensordot`` builds for the same contractions over the channels-first
    patches, so the BLAS calls, and hence the results, are bitwise the same
    for batched input.  For a batch of one ``tensordot`` reshapes the
    patches without copying and passes BLAS a transposed operand, so grad_k
    may then differ in the last bit.  grad_k sums over all N rows, so U is
    unfolded whole and freed after that GEMM.  The taps GEMM runs per block
    of samples into one reused buffer, and each block's nine (n*H'*W', C_in)
    taps are scatter-added in row-major tap order into one zeroed
    channels-last padded buffer; grad_x is a (B, C, H, W) view of its
    interior.
    """
    x = as_f64(x)
    grad_out = as_f64(grad_out)
    kernels = as_f64(kernels)
    b, c, h, w = x.shape
    c_out = kernels.shape[0]
    h_out, w_out = _conv_geometry(h, w, stride)
    if grad_out.shape != (b, c_out, h_out, w_out):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} inconsistent with forward "
            f"output ({b}, {c_out}, {h_out}, {w_out})")
    cols = _unfold_channels_last(x, stride, h_out, w_out)
    g = grad_out.transpose(1, 0, 2, 3).reshape(c_out, -1)
    grad_k = (g @ cols).reshape(kernels.shape)
    del cols
    if not input_grad:
        return None, grad_k
    k = kernels.reshape(c_out, -1)
    step = _block_samples(b, c, h_out, w_out)
    taps = np.empty((step, h_out, w_out, c, 3, 3))
    gxp = np.zeros((b, h + 2, w + 2, c))
    for s in range(0, b, step):
        n = min(step, b - s)
        gt = grad_out[s:s + n].transpose(0, 2, 3, 1).reshape(-1, c_out)
        tblk, gblk = taps[:n], gxp[s:s + n]
        np.matmul(gt, k, out=tblk.reshape(n * h_out * w_out, c * 9))
        for i in range(3):
            for j in range(3):
                gblk[:, i:i + stride * h_out:stride,
                     j:j + stride * w_out:stride] += tblk[..., i, j]
    return gxp[:, 1:-1, 1:-1].transpose(0, 3, 1, 2), grad_k


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
