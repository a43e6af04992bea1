"""Dense numerical kernels: 3x3 convolution, pooling.

All arrays are float64 and all kernels are pure functions.  Convolution is
restricted to 3x3 kernels with zero padding 1 and stride 1 or 2; pooling is
2x2 non-overlapping max or global average.  Inputs may be a single sample
``(C, H, W)`` or a batch ``(B, C, H, W)``; single samples are promoted
internally and the result is demoted back.

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


def _promote(x):
    x = as_f64(x)
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ShapeError(f"expected (C,H,W) or (B,C,H,W), got {x.shape}")


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

    x: (B, C_in, H, W) or (C_in, H, W); kernels: (C_out, C_in, 3, 3).
    Per block of samples, one GEMM of the block's unfold U (n*H'*W',
    C_in*9) with the kernels as stored, K (C_out, C_in*9): ``U @ K.T``,
    the BLAS call ``np.tensordot`` makes, written into the block's rows of
    one channels-last output.  For a batch of one ``tensordot`` handed BLAS
    a column-major U, which rounds differently in the last bit, so U is
    copied to that layout there (the batch is then its only block).
    """
    x, squeeze = _promote(x)
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
    out = out.transpose(0, 3, 1, 2)
    return out[0] if squeeze else out


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
    x, squeeze = _promote(x)
    grad_out = as_f64(grad_out)
    if grad_out.ndim == 3:
        grad_out = grad_out[None]
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
    grad_x = gxp[:, 1:-1, 1:-1].transpose(0, 3, 1, 2)
    return (grad_x[0] if squeeze else grad_x), grad_k


def maxpool2_forward(x):
    """2x2 non-overlapping max pool; ties go to the first element in
    row-major window order (numpy argmax convention)."""
    x, squeeze = _promote(x)
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    win = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(b, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    if squeeze:
        return out[0], idx[0]
    return out, idx


def maxpool2_backward(grad_out, idx, in_shape):
    """Route grad_out to the stored argmax positions."""
    grad_out = as_f64(grad_out)
    squeeze = grad_out.ndim == 3
    if squeeze:
        grad_out, idx = grad_out[None], idx[None]
    b, c, h2, w2 = grad_out.shape
    gwin = np.zeros((b, c, h2, w2, 4))
    np.put_along_axis(gwin, idx[..., None], grad_out[..., None], axis=-1)
    gx = gwin.reshape(b, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    gx = gx.reshape(b, c, h2 * 2, w2 * 2)
    if gx.shape[2:] != tuple(in_shape[-2:]):
        raise ShapeError(f"pool backward shape {gx.shape} vs input {in_shape}")
    return gx[0] if squeeze else gx


def global_avg_pool_forward(x):
    """Per-channel spatial mean: (B, C, H, W) -> (B, C)."""
    x, squeeze = _promote(x)
    out = x.mean(axis=(2, 3))
    return out[0] if squeeze else out


def global_avg_pool_backward(grad_out, in_shape):
    grad_out = as_f64(grad_out)
    squeeze = grad_out.ndim == 1
    if squeeze:
        grad_out = grad_out[None]
    h, w = in_shape[-2:]
    gx = np.broadcast_to(grad_out[:, :, None, None] / (h * w),
                         grad_out.shape + (h, w)).copy()
    return gx[0] if squeeze else gx
