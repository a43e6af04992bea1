"""Base activation functions and the trainable-shift wrapper.

The wrapper turns a base activation ``f`` into ``x -> f(x - t) + t`` with a
trainable shift ``t``.  For a ReLU base this is ``max(x, t)``: inputs above
``t`` pass through unchanged, so a sufficiently low ``t`` makes the layer
linear on its input distribution, and raising ``t`` during training
introduces nonlinearity.

Shift granularity:
  * element: one t per input element (per feature-map position, or per node
    of a dense layer);
  * channel: one t shared by all spatial positions of a channel (dense
    layers fall back to per-node);
  * layer: a single scalar t.

Gradients follow the chain rule.  d/dt of the wrapped output is
``1 - f'(x - t)``; at the kink the input gradient uses the active-side
derivative ``f'(0+) = 1`` while the t-gradient uses the inactive branch
(factor 1), so ``x == t`` contributes to t, not to x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import as_f64

GRANULARITIES = ("element", "channel", "layer")

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


class BaseActivation:
    """A scalar activation with value and (right-)derivative."""

    name = "base"
    has_slope_param = False
    # True when f(u) == u for u >= 0; lets the wrapper return x exactly on
    # the positive branch instead of (x - t) + t, which differs in the last
    # ulp and would break the exact floor/identity properties
    linear_positive = False

    def f(self, u, a=None):
        raise NotImplementedError

    def df(self, u, a=None):
        """Derivative at u, using the right derivative at the kink."""
        raise NotImplementedError


class Identity(BaseActivation):
    name = "identity"
    linear_positive = True

    def f(self, u, a=None):
        return u

    def df(self, u, a=None):
        return np.ones_like(u)


class ReLU(BaseActivation):
    name = "relu"
    linear_positive = True

    def f(self, u, a=None):
        return np.maximum(u, 0.0)

    def df(self, u, a=None):
        return (u >= 0.0).astype(np.float64)


@dataclass
class LeakyReLU(BaseActivation):
    alpha: float = 0.01
    name = "lrelu"
    linear_positive = True

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"leaky slope must be in (0,1), got {self.alpha}")

    def f(self, u, a=None):
        return np.where(u >= 0.0, u, self.alpha * u)

    def df(self, u, a=None):
        return np.where(u >= 0.0, 1.0, self.alpha)


class PReLU(BaseActivation):
    """Negative slope `a` is a trainable per-channel parameter, passed in by
    the caller (init 0.25)."""

    name = "prelu"
    has_slope_param = True
    linear_positive = True
    A_INIT = 0.25

    def f(self, u, a=None):
        a = self._slope(u, a)
        return np.where(u >= 0.0, u, a * u)

    def df(self, u, a=None):
        a = self._slope(u, a)
        return np.where(u >= 0.0, 1.0, a)

    @staticmethod
    def _slope(u, a):
        if a is None:
            raise ContractError("PReLU needs its slope parameter")
        return broadcast_param(np.asarray(a, dtype=np.float64), u.shape)


@dataclass
class SELU(BaseActivation):
    lam: float = SELU_LAMBDA
    alpha: float = SELU_ALPHA
    name = "selu"

    def __post_init__(self):
        if self.lam <= 0 or self.alpha <= 0:
            raise ValueError("SELU constants must be positive")

    def f(self, u, a=None):
        return np.where(u > 0.0, self.lam * u,
                        self.lam * self.alpha * np.expm1(np.minimum(u, 0.0)))

    def df(self, u, a=None):
        return np.where(u > 0.0, self.lam,
                        self.lam * self.alpha * np.exp(np.minimum(u, 0.0)))


def selu_forward(x):
    return SELU().f(as_f64(x))


_BASES = {
    "identity": Identity,
    "relu": ReLU,
    "lrelu": LeakyReLU,
    "prelu": PReLU,
    "selu": SELU,
}


def make_base(name: str, **kwargs) -> BaseActivation:
    try:
        cls = _BASES[name]
    except KeyError:
        raise ValueError(f"unknown base activation {name!r}") from None
    return cls(**kwargs)


def broadcast_param(p, x_shape):
    """Broadcast a per-channel/per-element parameter to a (batched) input.

    p has the shape of a single sample's parameter (e.g. (C,1,1), (C,H,W),
    (D,) or (1,)); x may carry a leading batch axis.
    """
    p = np.asarray(p, dtype=np.float64)
    try:
        return np.broadcast_to(p, x_shape)
    except ValueError:
        raise ShapeError(f"parameter shape {p.shape} does not broadcast "
                         f"to input shape {x_shape}") from None


def shift_shape(granularity: str, sample_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Storage shape of t for one input sample of the given shape."""
    if granularity == "layer":
        return (1,)
    if len(sample_shape) == 3:  # (C, H, W)
        if granularity == "channel":
            return (sample_shape[0], 1, 1)
        if granularity == "element":
            return tuple(sample_shape)
    elif len(sample_shape) == 1:  # dense features: channel falls back to per-node
        if granularity in ("channel", "element"):
            return tuple(sample_shape)
    raise ShapeError(f"granularity {granularity!r} undefined for shape {sample_shape}")


@dataclass
class NgActivation:
    """A base activation wrapped with a trainable shift.

    ``t`` holds the shift at its granularity's storage shape.  When
    ``trainable`` is false it stays fixed (used for the fixed-shift
    capacity sweeps).
    """

    base: BaseActivation
    t: np.ndarray
    granularity: str = "channel"
    trainable: bool = True

    def __post_init__(self):
        self.t = as_f64(self.t)

    def pre_shift(self, x):
        return as_f64(x) - broadcast_param(self.t, np.shape(x))


def ng_forward(act: NgActivation, x, a=None):
    """f(x - t) + t, elementwise.

    For bases that are the identity on u >= 0 the positive branch returns x
    itself, so the wrapper is exactly max(x, t) for ReLU and exactly the
    identity whenever every input clears the shift.
    """
    x = as_f64(x)
    u = act.pre_shift(x)
    shifted = act.base.f(u, a) + broadcast_param(act.t, x.shape)
    if act.base.linear_positive:
        return np.where(u >= 0.0, x, shifted)
    return shifted


def ng_backward_input(act: NgActivation, x, grad_out, a=None):
    """grad_out * f'(x - t)."""
    u = act.pre_shift(x)
    return as_f64(grad_out) * act.base.df(u, a)


def reduce_to_param(g, param_shape, batched):
    """Sum a full-shape gradient down to a parameter's storage shape.

    Sums over the batch axis (if present) and over every broadcast axis of
    the parameter.  With a batch-mean loss upstream this yields the exact
    gradient of that loss.
    """
    g = as_f64(g)
    if batched:
        g = g.sum(axis=0)
    extra = g.ndim - len(param_shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(param_shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(param_shape)


def ng_grad_t(act: NgActivation, x, grad_out, a=None, batched=None):
    """Gradient of the loss w.r.t. the shift t.

    Per element the factor is ``1 - f'(x - t)``; contributions sharing one t
    (spatial positions, batch samples) are summed, which is the exact
    derivative of the upstream (batch-mean) loss.  Non-trainable shifts get
    a zero gradient.
    """
    x = as_f64(x)
    if not act.trainable:
        return np.zeros_like(act.t)
    if batched is None:
        batched = x.ndim == act.t.ndim + 1
    u = act.pre_shift(x)
    g = as_f64(grad_out) * (1.0 - act.base.df(u, a))
    return reduce_to_param(g, act.t.shape, batched)


def prelu_grad_a(act: NgActivation, x, grad_out, a, batched=None):
    """Gradient w.r.t. the PReLU slope, evaluated on the shifted input."""
    if not isinstance(act.base, PReLU):
        raise ContractError("slope gradient is defined only for a PReLU base")
    x = as_f64(x)
    a = np.asarray(a, dtype=np.float64)
    if batched is None:
        batched = x.ndim == act.t.ndim + 1
    u = act.pre_shift(x)
    g = as_f64(grad_out) * np.where(u < 0.0, u, 0.0)
    return reduce_to_param(g, a.shape, batched)
