"""Layer graphs, parameter initialization, and whole-network forward/backward.

A network is a flat sequence of layer specs (convs, dense, batch norm,
activations, pooling, residual-block markers); the last layer's output is
the logits.  The softmax cross-entropy loss is not a layer: ``forward``
applies it after the layer walk and ``backward`` starts from its gradient.
Parameters live outside the spec in a per-layer-index dict, so a spec is
reusable across seeds and schemes.  With labels ``forward`` returns the
loss and the cache ``backward`` reads, without them the logits alone;
neither it nor ``backward`` writes ``params`` (``fold_running_stats`` does).
A prefix's output, ``NetworkSpec(spec.layers[:i], ...)``, is layer i's input.

A plain (unwrapped) activation is represented internally as the shifted
wrapper with a fixed t = 0, which is exactly ``f(x)``; this keeps a single
code path for all activation gradients.  A shift that does not train gets
no gradient entry, so the optimizer never sees it.  An activation layer's
cache holds the branch mask ``x >= t`` its forward returned, and its input
``x`` only when the base's backward reads it
(``BaseActivation.backward_reads_x``: SELU and PReLU).

Every layer takes and returns C-contiguous channels-last ``(B, H, W, C)``
batches (``ngnet.tensor``), or ``(B, D)`` features, and per-channel
parameters broadcast on the last axis.  ``forward`` converts the
``(B, C, H, W)`` input batch once; a ``Dense`` on a 4-D input flattens it
in ``(C, H, W)`` order, the order of ``W``'s columns.  Batch norm sums per
channel over its input's ``(N, C)`` view; its forward allocates two
full-size arrays (the cached ``xhat`` and the output), its backward one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import (PRELU_A_INIT, BaseActivation, make_base,
                          ng_backward_input, ng_forward, ng_grad_t,
                          prelu_grad_a, shift_shape)
from .errors import ConfigError, ContractError, ShapeError
from .tensor import (_colsum, _conv_geometry, _wide, as_f64, conv2d_backward,
                     conv2d_forward, global_avg_pool_backward,
                     global_avg_pool_forward, maxpool2_backward,
                     maxpool2_forward)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9
INIT_SCHEMES = ("xavier", "msra", "orthogonal")


# ---------------------------------------------------------------------------
# Layer specs
# ---------------------------------------------------------------------------

@dataclass
class ActivationSpec:
    """Declarative description of one activation layer."""
    base: str = "relu"
    base_kwargs: dict = field(default_factory=dict)
    ng: bool = False
    t_init: float = -1.0
    granularity: str = "channel"
    trainable: bool = True

    def make_base(self):
        return make_base(self.base, **self.base_kwargs)


@dataclass
class Conv:
    channels: int
    stride: int = 1
    bias: bool = True


@dataclass
class Dense:
    units: int


@dataclass
class BatchNorm:
    pass


@dataclass
class Activation:
    spec: ActivationSpec
    # built once from spec, so forward/backward build no object per call
    base: BaseActivation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.base = self.spec.make_base()

    @property
    def trains_t(self) -> bool:
        return self.spec.ng and self.spec.trainable


@dataclass
class MaxPool:
    pass


@dataclass
class GlobalAvgPool:
    pass


@dataclass
class ResBlockStart:
    pass


@dataclass
class ResBlockEnd:
    pass


@dataclass
class NetworkSpec:
    layers: list
    input_shape: tuple  # one sample, e.g. (C, H, W) or (D,)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

# family -> s in its depth rule, depth = 2 + s*k with k >= 1
DEPTH_STEPS = {"plain_cnn": 3, "resnet": 6}


def check_depth(family, depth):
    """Raise ConfigError unless `family` builds at `depth`: plain CNN
    2 + 3k, ResNet 2 + 6k; other families take any depth."""
    step = DEPTH_STEPS.get(family)
    if step is not None and (depth < 2 + step or (depth - 2) % step):
        raise ConfigError(f"{family} depth must be 2 + {step}k with k >= 1, "
                          f"got {depth}")


def check_input_hw(family, input_hw):
    """Raise ConfigError unless `family` builds on this input side: the
    plain CNN's two max pools need a multiple of 4."""
    if family == "plain_cnn" and input_hw % 4:
        raise ConfigError(f"plain_cnn input side must be divisible by 4 "
                          f"(two max pools), got {input_hw}")


def _conv_unit(width, with_bn, activation=None, stride=1) -> list:
    """A conv, biased unless batch norm follows it, then the batch norm if
    `with_bn`, then the activation if one is given."""
    layers: list = [Conv(width, stride, bias=not with_bn)]
    if with_bn:
        layers.append(BatchNorm())
    if activation is not None:
        layers.append(Activation(activation))
    return layers


def build_plain_cnn(depth, base_width, num_classes, with_bn, activation,
                    input_hw=32, in_channels=3) -> NetworkSpec:
    """VGG-style stack: stem conv + three equal stages at widths w, 2w, 4w
    separated by 2x2 max pools, then global average pooling and a dense
    classifier.  depth = 2 + 3k (stem + 3k convs + classifier)."""
    check_depth("plain_cnn", depth)
    check_input_hw("plain_cnn", input_hw)
    k = (depth - 2) // DEPTH_STEPS["plain_cnn"]
    layers = _conv_unit(base_width, with_bn, activation)     # stem
    for width, pool in ((base_width, MaxPool), (2 * base_width, MaxPool),
                        (4 * base_width, GlobalAvgPool)):
        for _ in range(k):
            layers += _conv_unit(width, with_bn, activation)
        layers.append(pool())
    layers.append(Dense(num_classes))
    return NetworkSpec(layers, (in_channels, input_hw, input_hw))


def build_resnet(depth, base_width, num_classes, activation, with_bn=True,
                 input_hw=32, in_channels=3) -> NetworkSpec:
    """Three stages of two-conv identity blocks; downsampling blocks use
    stride 2 and a zero-padded strided identity shortcut.  depth = 6k + 2."""
    check_depth("resnet", depth)
    k = (depth - 2) // DEPTH_STEPS["resnet"]
    layers = _conv_unit(base_width, with_bn, activation)     # stem
    for stage in range(3):
        width = base_width * (2 ** stage)
        for block in range(k):
            stride = 2 if stage > 0 and block == 0 else 1
            layers.append(ResBlockStart())
            layers += _conv_unit(width, with_bn, activation, stride)
            layers += _conv_unit(width, with_bn)
            layers += [ResBlockEnd(), Activation(activation)]
    layers += [GlobalAvgPool(), Dense(num_classes)]
    return NetworkSpec(layers, (in_channels, input_hw, input_hw))


def build_mlp(hidden, num_classes, activation, input_dim) -> NetworkSpec:
    layers: list = []
    for units in hidden:
        layers.append(Dense(units))
        layers.append(Activation(activation))
    layers.append(Dense(num_classes))
    return NetworkSpec(layers, (input_dim,))


def build_toy_cnn(num_classes, activation, input_hw=8,
                  in_channels=3) -> NetworkSpec:
    """Two conv layers of three kernels and a dense classifier; the small
    capacity-sweep model."""
    layers = [*_conv_unit(3, False, activation),
              *_conv_unit(3, False, activation), Dense(num_classes)]
    return NetworkSpec(layers, (in_channels, input_hw, input_hw))


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

@dataclass
class InitScheme:
    kind: str = "msra"  # one of INIT_SCHEMES
    seed: int = 0


def _fans(shape):
    if len(shape) == 4:  # (C_out, C_in, kh, kw)
        rf = shape[2] * shape[3]
        return shape[1] * rf, shape[0] * rf
    if len(shape) == 2:  # (out, in)
        return shape[1], shape[0]
    raise ShapeError(f"no fan convention for shape {shape}")


def draw_weight(kind, shape, rng) -> np.ndarray:
    """One weight tensor; (kind, rng state, shape) fully determine it."""
    fan_in, fan_out = _fans(shape)
    if kind == "xavier":
        return rng.standard_normal(shape) * math.sqrt(2.0 / (fan_in + fan_out))
    if kind == "msra":
        return rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)
    if kind == "orthogonal":
        rows, cols = shape[0], int(np.prod(shape[1:]))
        flat = rng.standard_normal((rows, cols))
        if rows < cols:
            flat = flat.T
        q, r = np.linalg.qr(flat)
        q = q * np.sign(np.diag(r))
        if rows < cols:
            q = q.T
        return np.ascontiguousarray(q[:rows, :cols].reshape(shape))
    raise ConfigError(f"unknown init scheme {kind!r}")


def init_params(spec: NetworkSpec, scheme: InitScheme) -> dict:
    """Per-layer parameter dict; bitwise-deterministic in (spec, scheme).
    Tracks each layer's channels-last input sample shape (no batch axis)
    as it walks."""
    params: dict = {}
    shape = tuple(spec.input_shape)
    if len(shape) == 3:  # (C, H, W) -> (H, W, C)
        shape = (*shape[1:], shape[0])
    for i, layer in enumerate(spec.layers):
        rng = np.random.default_rng(np.random.SeedSequence(scheme.seed, spawn_key=(i,)))
        p: dict = {}
        if isinstance(layer, Conv):
            p["W"] = draw_weight(scheme.kind, (layer.channels, shape[-1], 3, 3), rng)
            if layer.bias:
                p["b"] = np.zeros(layer.channels)
            shape = _conv_geometry(*shape[:2], layer.stride) + (layer.channels,)
        elif isinstance(layer, Dense):
            in_dim = int(np.prod(shape))
            p["W"] = draw_weight(scheme.kind, (layer.units, in_dim), rng)
            p["b"] = np.zeros(layer.units)
            shape = (layer.units,)
        elif isinstance(layer, BatchNorm):
            c = shape[-1]
            p["gamma"] = np.ones(c)
            p["beta"] = np.zeros(c)
            p["running_mean"] = np.zeros(c)
            p["running_var"] = np.ones(c)
        elif isinstance(layer, Activation):
            a_spec = layer.spec
            if a_spec.ng:
                t_shape = shift_shape(a_spec.granularity, shape)
                p["t"] = np.full(t_shape, float(a_spec.t_init))
            else:
                p["t"] = np.zeros((1,))
            if layer.base.has_slope_param:
                p["a"] = np.full(shift_shape("channel", shape), PRELU_A_INIT)
        elif isinstance(layer, MaxPool):
            h, w, c = shape
            if h % 2 or w % 2:
                raise ConfigError(f"max pool on odd spatial dims {shape}")
            shape = (h // 2, w // 2, c)
        elif isinstance(layer, GlobalAvgPool):
            shape = (shape[-1],)
        # markers: shape-preserving, no parameters
        if p:
            params[i] = p
    return params


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(spec: NetworkSpec, params: dict, batch, labels=None, mode="train"):
    """Run the network; returns (logits, loss, cache).

    `batch` is (B, C, H, W), converted to channels-last here, or (B, D).
    The logits are the last layer's output.  With `labels`, loss is their
    softmax cross-entropy and cache what ``backward`` reads; without, both
    are None, and each layer's intermediates are freed as the walk moves
    on.  train mode normalises batch norm by the batch statistics and
    caches them; eval mode reads the running statistics.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be train or eval, got {mode!r}")
    x = as_f64(batch)
    if x.ndim == 4:
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    skip_stack = []
    caches = [] if labels is not None else None
    for i, layer in enumerate(spec.layers):
        c = {"in_shape": x.shape}
        if isinstance(layer, Conv):
            c["x"] = x
            x = conv2d_forward(x, params[i]["W"], layer.stride)
            if layer.bias:
                x += _wide(params[i]["b"], x)
        elif isinstance(layer, Dense):
            # in (C, H, W) order, the order of W's columns
            flat = (x.transpose(0, 3, 1, 2) if x.ndim == 4 else x).reshape(
                x.shape[0], -1)
            c["x"] = flat
            x = flat @ params[i]["W"].T + params[i]["b"]
        elif isinstance(layer, BatchNorm):
            x = _bn_forward(params[i], x, mode, c)
        elif isinstance(layer, Activation):
            if layer.base.backward_reads_x:
                c["x"] = x
            x, c["mask"] = ng_forward(layer.base, params[i]["t"], x,
                                      params[i].get("a"))
        elif isinstance(layer, MaxPool):
            x, idx = maxpool2_forward(x)
            c["idx"] = idx
        elif isinstance(layer, GlobalAvgPool):
            x = global_avg_pool_forward(x)
        elif isinstance(layer, ResBlockStart):
            skip_stack.append(x)
        elif isinstance(layer, ResBlockEnd):
            skip = skip_stack.pop()
            c["skip_shape"] = skip.shape
            x = x + _shortcut(skip, x.shape)
        else:
            raise ConfigError(f"unknown layer {layer!r}")
        if caches is not None:
            caches.append(c)
    if labels is None:
        return x, None, None
    labels = np.asarray(labels)
    probs = _softmax(x)
    picked = probs[np.arange(x.shape[0]), labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    return x, loss, {"layers": caches, "probs": probs, "labels": labels}


def _coldot(a, b, ch):
    """Per-channel sums of a*b, with no temporary."""
    return np.einsum("ij,ij->j", a.reshape(-1, ch), b.reshape(-1, ch))


def _bn_forward(p, x, mode, c):
    """Batch norm over every axis but the last.  Allocates two full-size
    arrays: the centred input, normalised in place and cached as xhat, and
    the output."""
    ch = x.shape[-1]
    if mode == "train":
        if x.shape[0] < 2:
            raise ConfigError("batch norm needs batch size >= 2 in train mode")
        n = x.size // ch
        mean = _colsum(x, ch) / n
        xhat = x - _wide(mean, x)
        # two passes: E[x^2] - E[x]^2 would cancel catastrophically
        var = _coldot(xhat, xhat, ch) / n
        c["mean"], c["var"] = mean, var
    else:
        xhat = x - _wide(p["running_mean"], x)
        var = p["running_var"]
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= _wide(inv_std, x)
    c["xhat"], c["inv_std"] = xhat, inv_std
    y = xhat * _wide(p["gamma"], x)
    y += _wide(p["beta"], x)
    return y


def fold_running_stats(params: dict, cache) -> None:
    """Update batch norm's running statistics from a train forward's cache."""
    for i, c in enumerate(cache["layers"]):
        if "var" in c:
            p = params[i]
            p["running_mean"] = BN_MOMENTUM * p["running_mean"] + (1 - BN_MOMENTUM) * c["mean"]
            p["running_var"] = BN_MOMENTUM * p["running_var"] + (1 - BN_MOMENTUM) * c["var"]


def _shortcut(skip, out_shape):
    """Identity shortcut; on downsampling, strided identity with zero-padded
    channels (parameter-free)."""
    if skip.shape == out_shape:
        return skip
    strided = skip[:, ::2, ::2]
    if strided.shape[1:3] != out_shape[1:3] or strided.shape[3] > out_shape[3]:
        raise ShapeError(f"cannot form shortcut {skip.shape} -> {out_shape}")
    padded = np.zeros(out_shape)
    padded[..., :strided.shape[3]] = strided
    return padded


def _shortcut_backward(grad_out, skip_shape):
    if grad_out.shape == skip_shape:
        return grad_out
    g = np.zeros(skip_shape)
    g[:, ::2, ::2] = grad_out[..., :skip_shape[3]]
    return g


def backward(spec: NetworkSpec, params: dict, cache,
             out_grads: dict = None) -> dict:
    """Gradients of the batch-mean loss, from the `cache` of a forward with
    labels, for every trainable tensor.

    Returns {layer_index: {name: grad}}; a shift that does not train
    (plain, or `trainable` false) and batch-norm running stats get no
    entry.  When `out_grads` is a dict, it also receives, by layer index,
    the loss gradient at each Conv/Dense layer's pre-activation: its
    output, or, for a conv followed by batch norm, the batch norm's output.
    (The batch-norm backward subtracts the per-channel mean, so the mean
    of the gradient at the conv output itself is 0 in exact arithmetic.)
    """
    if cache is None:
        raise ContractError("backward needs the cache of a forward with labels")
    caches = cache["layers"]
    if len(caches) != len(spec.layers):
        raise ContractError("cache does not match this network spec")
    grad = cache["probs"].copy()
    n = grad.shape[0]
    grad[np.arange(n), cache["labels"]] -= 1.0
    grad /= n
    grads: dict = {}
    pending_skip: list = []
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        c = caches[i]
        if isinstance(layer, Conv):
            if out_grads is not None:
                out_grads.setdefault(i, grad)  # unless batch norm follows
            if layer.bias:
                gb = _colsum(grad, layer.channels)
            # nothing reads the gradient of the network input
            grad, gw = conv2d_backward(grad, c["x"], params[i]["W"], layer.stride,
                                       input_grad=i > 0)
            grads[i] = {"W": gw}
            if layer.bias:
                grads[i]["b"] = gb
        elif isinstance(layer, Dense):
            if out_grads is not None:
                out_grads[i] = grad
            gw = grad.T @ c["x"]
            gb = grad.sum(axis=0)
            grad = grad @ params[i]["W"]
            if len(c["in_shape"]) == 4:  # back from (C, H, W) order
                b, h, w, ch = c["in_shape"]
                grad = grad.reshape(b, ch, h, w).transpose(0, 2, 3, 1).copy()
            grads[i] = {"W": gw, "b": gb}
        elif isinstance(layer, BatchNorm):
            if out_grads is not None:
                out_grads[i - 1] = grad  # the conv it normalises
            grad, g = _bn_backward(params[i], grad, c)
            grads[i] = g
        elif isinstance(layer, Activation):
            t, a = params[i]["t"], params[i].get("a")
            x = c.get("x")  # None where the backward reads only the mask
            g: dict = {}
            if layer.trains_t:
                g["t"] = ng_grad_t(layer.base, t, x, c["mask"], grad, a)
            if a is not None:
                g["a"] = prelu_grad_a(layer.base, t, x, grad, a)
            grad = ng_backward_input(layer.base, t, x, c["mask"], grad, a)
            grads[i] = g
        elif isinstance(layer, MaxPool):
            grad = maxpool2_backward(grad, c["idx"], c["in_shape"])
        elif isinstance(layer, GlobalAvgPool):
            grad = global_avg_pool_backward(grad, c["in_shape"])
        elif isinstance(layer, ResBlockEnd):
            pending_skip.append((grad, c["skip_shape"]))
            # grad continues into the inner path unchanged
        elif isinstance(layer, ResBlockStart):
            g_out, skip_shape = pending_skip.pop()
            grad = grad + _shortcut_backward(g_out, skip_shape)
    return grads


def _bn_backward(p, grad, c):
    """Input, gamma and beta gradients of _bn_forward.  Allocates one
    full-size array, the input gradient; `grad`, which may also feed a
    shortcut, is only read."""
    xhat, inv_std = c["xhat"], c["inv_std"]
    ch = grad.shape[-1]
    dbeta = _colsum(grad, ch)
    dgamma = _coldot(grad, xhat, ch)
    dx = np.empty(grad.shape)
    if "var" in c:  # normalised by the batch statistics
        # dx = gamma/sigma * (g - dbeta/n - xhat*dgamma/n)
        n = grad.size // ch
        np.multiply(xhat, _wide(dgamma / n, grad), out=dx)
        dx += _wide(dbeta / n, grad)
        np.subtract(grad, dx, out=dx)
        dx *= _wide(p["gamma"] * inv_std, grad)
    else:
        np.multiply(grad, _wide(p["gamma"] * inv_std, grad), out=dx)
    return dx, {"gamma": dgamma, "beta": dbeta}
