"""Layer graphs, parameter initialization, and whole-network forward/backward.

A network is a flat sequence of layer specs (convs, dense, batch norm,
activations, pooling, residual-block markers, softmax head).  Parameters
live outside the spec in a per-layer-index dict, so a spec is reusable
across seeds and schemes.  ``forward`` caches what ``backward`` reads,
or nothing for a loss-only or accuracy forward; both are pure apart from
batch-norm running statistics, which are updated in train mode.

A plain (unwrapped) activation is represented internally as the shifted
wrapper with a fixed t = 0, which is exactly ``f(x)``; this keeps a single
code path for all activation gradients.  A shift that does not train gets
no gradient entry, so the optimizer never sees it.  An activation layer's
cache holds the branch mask ``x >= t`` its forward returned, and its input
``x`` only when the base's backward reads it
(``BaseActivation.backward_reads_x``: SELU and PReLU).

Batch norm runs on one channels-last row per sample (``_bn_rows``), a free
view of a conv output, and takes its per-channel statistics as column
reductions; each direction allocates two full-size arrays, and the cache
keeps ``xhat`` as those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import (BaseActivation, PReLU, make_base,
                          ng_backward_input, ng_forward, ng_grad_t,
                          prelu_grad_a, shift_shape)
from .errors import ConfigError, ContractError, ShapeError
from .tensor import (_conv_geometry, as_f64, conv2d_backward, conv2d_forward,
                     global_avg_pool_backward, global_avg_pool_forward,
                     maxpool2_backward, maxpool2_forward)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


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
class SoftmaxCrossEntropy:
    pass


@dataclass
class ResBlockStart:
    stride: int = 1


@dataclass
class ResBlockEnd:
    pass


@dataclass
class NetworkSpec:
    layers: list
    input_shape: tuple  # one sample, e.g. (C, H, W) or (D,)
    num_classes: int


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


def build_plain_cnn(depth, base_width, num_classes, with_bn, activation,
                    input_hw=32, in_channels=3) -> NetworkSpec:
    """VGG-style stack: stem conv + three equal stages at widths w, 2w, 4w
    separated by 2x2 max pools, then global average pooling and a softmax
    classifier.  depth = 2 + 3k (stem + 3k convs + classifier)."""
    check_depth("plain_cnn", depth)
    check_input_hw("plain_cnn", input_hw)
    k = (depth - 2) // 3

    def conv_act(ch, layers):
        layers.append(Conv(ch, bias=not with_bn))
        if with_bn:
            layers.append(BatchNorm())
        layers.append(Activation(activation))

    layers: list = []
    conv_act(base_width, layers)          # stem
    for _ in range(k):
        conv_act(base_width, layers)
    layers.append(MaxPool())
    for _ in range(k):
        conv_act(2 * base_width, layers)
    layers.append(MaxPool())
    for _ in range(k):
        conv_act(4 * base_width, layers)
    layers.append(GlobalAvgPool())
    layers.append(Dense(num_classes))
    layers.append(SoftmaxCrossEntropy())
    return NetworkSpec(layers, (in_channels, input_hw, input_hw), num_classes)


def build_resnet(depth, base_width, num_classes, activation, with_bn=True,
                 input_hw=32, in_channels=3) -> NetworkSpec:
    """Three stages of two-conv identity blocks; downsampling blocks use
    stride 2 and a zero-padded strided identity shortcut.  depth = 6k + 2."""
    check_depth("resnet", depth)
    k = (depth - 2) // 6
    layers: list = [Conv(base_width, bias=not with_bn)]
    if with_bn:
        layers.append(BatchNorm())
    layers.append(Activation(activation))
    for stage in range(3):
        width = base_width * (2 ** stage)
        for block in range(k):
            stride = 2 if stage > 0 and block == 0 else 1
            layers.append(ResBlockStart(stride))
            layers.append(Conv(width, stride=stride, bias=not with_bn))
            if with_bn:
                layers.append(BatchNorm())
            layers.append(Activation(activation))
            layers.append(Conv(width, bias=not with_bn))
            if with_bn:
                layers.append(BatchNorm())
            layers.append(ResBlockEnd())
            layers.append(Activation(activation))
    layers.append(GlobalAvgPool())
    layers.append(Dense(num_classes))
    layers.append(SoftmaxCrossEntropy())
    return NetworkSpec(layers, (in_channels, input_hw, input_hw), num_classes)


def build_mlp(hidden, num_classes, activation, input_dim) -> NetworkSpec:
    layers: list = []
    for units in hidden:
        layers.append(Dense(units))
        layers.append(Activation(activation))
    layers.append(Dense(num_classes))
    layers.append(SoftmaxCrossEntropy())
    return NetworkSpec(layers, (input_dim,), num_classes)


def build_toy_cnn(num_classes, activation, input_hw=8, in_channels=3,
                  kernels=3) -> NetworkSpec:
    """Two conv layers of a few kernels, a dense layer, softmax; the small
    capacity-sweep model."""
    layers = [
        Conv(kernels), Activation(activation),
        Conv(kernels), Activation(activation),
        Dense(num_classes), SoftmaxCrossEntropy(),
    ]
    return NetworkSpec(layers, (in_channels, input_hw, input_hw), num_classes)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

@dataclass
class InitScheme:
    kind: str = "msra"  # xavier | msra | orthogonal
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
    Tracks each layer's input sample shape (no batch axis) as it walks."""
    params: dict = {}
    shape = tuple(spec.input_shape)
    for i, layer in enumerate(spec.layers):
        rng = np.random.default_rng(np.random.SeedSequence(scheme.seed, spawn_key=(i,)))
        p: dict = {}
        if isinstance(layer, Conv):
            p["W"] = draw_weight(scheme.kind, (layer.channels, shape[0], 3, 3), rng)
            if layer.bias:
                p["b"] = np.zeros(layer.channels)
            shape = (layer.channels,) + _conv_geometry(*shape[1:], layer.stride)
        elif isinstance(layer, Dense):
            in_dim = int(np.prod(shape))
            p["W"] = draw_weight(scheme.kind, (layer.units, in_dim), rng)
            p["b"] = np.zeros(layer.units)
            shape = (layer.units,)
        elif isinstance(layer, BatchNorm):
            c = shape[0]
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
            if a_spec.base == "prelu":
                p["a"] = np.full(shift_shape("channel", shape), PReLU.A_INIT)
        elif isinstance(layer, MaxPool):
            c, h, w = shape
            if h % 2 or w % 2:
                raise ConfigError(f"max pool on odd spatial dims {shape}")
            shape = (c, h // 2, w // 2)
        elif isinstance(layer, GlobalAvgPool):
            shape = (shape[0],)
        # markers and softmax: shape-preserving, no parameters
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


def forward(spec: NetworkSpec, params: dict, batch, labels=None, mode="train",
            keep_cache=True, act_inputs: dict = None):
    """Run the network; returns (logits, loss, cache).

    loss is None when labels are absent.  train mode uses batch statistics
    for batch norm and updates the running ones; eval mode reads the
    running statistics only.  With `keep_cache` false the cache is None and
    each layer's intermediates are freed as the walk moves on, for forwards
    that only want the logits or the loss.  When `act_inputs` is a dict, it
    also receives, by layer index, the input of each Activation layer (the
    cache keeps it only where the backward reads it).
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be train or eval, got {mode!r}")
    x = as_f64(batch)
    skip_stack = []
    caches = []
    logits = loss = None
    for i, layer in enumerate(spec.layers):
        c = {"in_shape": x.shape}
        if isinstance(layer, Conv):
            c["x"] = x
            x = conv2d_forward(x, params[i]["W"], layer.stride)
            if layer.bias:
                x = x + params[i]["b"][None, :, None, None]
        elif isinstance(layer, Dense):
            flat = x.reshape(x.shape[0], -1)
            c["x"] = flat
            x = flat @ params[i]["W"].T + params[i]["b"]
        elif isinstance(layer, BatchNorm):
            x = _bn_forward(params[i], x, mode, c)
        elif isinstance(layer, Activation):
            if act_inputs is not None:
                act_inputs[i] = x
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
        elif isinstance(layer, SoftmaxCrossEntropy):
            logits = x
            probs = _softmax(x)
            c["probs"] = probs
            if labels is not None:
                labels = np.asarray(labels)
                n = x.shape[0]
                picked = probs[np.arange(n), labels]
                loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
                c["labels"] = labels
        else:
            raise ConfigError(f"unknown layer {layer!r}")
        if keep_cache:
            caches.append(c)
    if logits is None:
        raise ConfigError("network has no softmax head")
    if not keep_cache:
        return logits, loss, None
    return logits, loss, {"layers": caches, "n_layers": len(spec.layers)}


def _bn_rows(x):
    """One channels-last row per sample, (B, H*W*C), of a (B, C) or
    (B, C, H, W) batch: a view of a conv output, whose memory is
    channels-last; a copy of a C-contiguous 4-D input."""
    return np.moveaxis(x, 1, -1).reshape(x.shape[0], -1)


def _bn_unrows(rows, shape):
    """The (B, C, ...) view of sample rows, for a batch of `shape`."""
    return np.moveaxis(rows.reshape((shape[0],) + shape[2:] + (shape[1],)),
                       -1, 1)


def _colsum(rows, ch):
    """Per-channel sums of sample rows: one BLAS product over their (N, C)
    view, several times faster than (N, C).sum(axis=0)."""
    cols = rows.reshape(-1, ch)
    return np.ones(cols.shape[0]) @ cols


def _coldot(a, b, ch):
    """Per-channel sums of a*b over sample rows, with no temporary."""
    return np.einsum("ij,ij->j", a.reshape(-1, ch), b.reshape(-1, ch))


def _wide(v, rows):
    """Per-channel `v` repeated along one sample row.  Elementwise ops with
    it run NumPy's inner loop over a whole row; `v` broadcast over the
    (N, C) view runs it C elements at a time, 2-3x slower at C = 8."""
    return np.tile(v, rows.shape[1] // v.size)


def _bn_forward(p, x, mode, c):
    """Batch norm on the sample rows of `x` (_bn_rows).  Allocates two
    full-size arrays: the centred rows, normalised in place and cached as
    xhat, and the output, returned as a (B, C, ...) view of channels-last
    memory like a conv output."""
    ch = x.shape[1]
    rows = _bn_rows(x)
    if mode == "train":
        if x.shape[0] < 2:
            raise ConfigError("batch norm needs batch size >= 2 in train mode")
        n = rows.size // ch
        mean = _colsum(rows, ch) / n
        xhat = rows - _wide(mean, rows)
        # two passes: E[x^2] - E[x]^2 would cancel catastrophically
        var = _coldot(xhat, xhat, ch) / n
        p["running_mean"] = BN_MOMENTUM * p["running_mean"] + (1 - BN_MOMENTUM) * mean
        p["running_var"] = BN_MOMENTUM * p["running_var"] + (1 - BN_MOMENTUM) * var
    else:
        xhat = rows - _wide(p["running_mean"], rows)
        var = p["running_var"]
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= _wide(inv_std, rows)
    c["xhat"] = xhat
    c["inv_std"] = inv_std
    c["train_stats"] = mode == "train"
    y = xhat * _wide(p["gamma"], rows)
    y += _wide(p["beta"], rows)
    return _bn_unrows(y, x.shape)


def _shortcut(skip, out_shape):
    """Identity shortcut; on downsampling, strided identity with zero-padded
    channels (parameter-free)."""
    if skip.shape == out_shape:
        return skip
    strided = skip[:, :, ::2, ::2]
    if strided.shape[2:] != out_shape[2:] or strided.shape[1] > out_shape[1]:
        raise ShapeError(f"cannot form shortcut {skip.shape} -> {out_shape}")
    padded = np.zeros(out_shape)
    padded[:, :strided.shape[1]] = strided
    return padded


def _shortcut_backward(grad_out, skip_shape):
    if grad_out.shape == skip_shape:
        return grad_out
    g = np.zeros(skip_shape)
    g[:, :, ::2, ::2] = grad_out[:, :skip_shape[1]]
    return g


def backward(spec: NetworkSpec, params: dict, cache,
             out_grads: dict = None) -> dict:
    """Gradients of the batch-mean loss, against the labels the forward
    cached, for every trainable tensor.

    Returns {layer_index: {name: grad}}; a shift that does not train
    (plain, or `trainable` false) and batch-norm running stats get no
    entry.  When `out_grads` is a dict, it also receives, by layer index,
    the loss gradient at each Conv/Dense layer's pre-activation: its
    output, or, for a conv followed by batch norm, the batch norm's output.
    (The batch-norm backward subtracts the per-channel mean, so the mean
    of the gradient at the conv output itself is 0 in exact arithmetic.)
    """
    caches = cache["layers"]
    if cache.get("n_layers") != len(spec.layers):
        raise ContractError("cache does not match this network spec")
    grads: dict = {}
    pending_skip: list = []
    grad = None
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        c = caches[i]
        if isinstance(layer, SoftmaxCrossEntropy):
            lab = c.get("labels")
            if lab is None:
                raise ContractError("backward needs labels (none cached)")
            probs = c["probs"]
            n = probs.shape[0]
            grad = probs.copy()
            grad[np.arange(n), lab] -= 1.0
            grad /= n
        elif isinstance(layer, Conv):
            if out_grads is not None:
                out_grads.setdefault(i, grad)  # unless batch norm follows
            if layer.bias:
                gb = grad.sum(axis=(0, 2, 3))
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
            grad = (grad @ params[i]["W"]).reshape(c["in_shape"])
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
    """Input, gamma and beta gradients of _bn_forward, on sample rows.
    Allocates two full-size arrays: the gradient's rows (a copy, since
    `grad` may also feed a shortcut) and the C-contiguous input gradient,
    whose memory holds the train-mode temporary until it is written."""
    xhat, inv_std = c["xhat"], c["inv_std"]
    ch = grad.shape[1]
    g = np.array(np.moveaxis(grad, 1, -1), order="C").reshape(xhat.shape)
    dbeta = _colsum(g, ch)
    dgamma = _coldot(g, xhat, ch)
    dx = np.empty(grad.shape)
    if c["train_stats"]:
        # dx = gamma/sigma * (g - dbeta/n - xhat*dgamma/n); until the result
        # is copied in, dx's memory holds the temporary t
        n = g.size // ch
        t = np.multiply(xhat, _wide(dgamma / n, g), out=dx.reshape(g.shape))
        t += _wide(dbeta / n, g)
        g -= t
    g *= _wide(p["gamma"] * inv_std, g)
    np.copyto(dx, _bn_unrows(g, grad.shape))
    return dx, {"gamma": dgamma, "beta": dbeta}
