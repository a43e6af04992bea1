"""Base activation functions and the trainable-shift kernels.

The kernels turn a base activation ``f`` into ``x -> f(x - t) + t`` with a
trainable shift ``t``.  For a ReLU base this is ``max(x, t)``: inputs above
``t`` pass through unchanged, so a sufficiently low ``t`` makes the layer
linear on its input distribution, and raising ``t`` during training
introduces nonlinearity.

Shift granularity (``t``'s storage shape, see ``shift_shape``: the
trailing shape of the channels-last input sample it broadcasts against):
  * element: one t per input element (per feature-map position, or per node
    of a dense layer);
  * channel: one t, shape (C,), shared by all spatial positions of a
    channel (dense layers fall back to per-node);
  * layer: a single scalar t.

The forward also returns the branch mask ``m = x >= t``, which the layer
caches for its backward.  The bases that are the identity on
``u = x - t >= 0`` differ only in their slope below it: 0 for ReLU, and
for ``Leaky`` 1.0 (identity), a fixed ``alpha`` (leaky ReLU) or the
trained per-channel ``a`` (PReLU).  For them the mask alone picks
each element's branch, so the gradients need no recomputed ``x - t``: the
input gradient is ``grad * f'`` with ``f' = 1`` where ``m`` holds and the
base's negative slope elsewhere, and the t-gradient is ``grad * (1 - f')``.
A tie ``x == t`` has ``m`` true: it sits on the linear branch for the
input gradient and contributes nothing to ``t``.  SELU is not linear on
``u >= 0`` at the kink, so its gradients still evaluate ``f'(x - t)``.
``BaseActivation.backward_reads_x`` says which bases' backward needs
``x`` besides the mask; for the others the ``x`` argument of the backward
kernels is not read and may be None.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import _colsum, _wide, as_f64

GRANULARITIES = ("element", "channel", "layer")

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772


class BaseActivation:
    """A scalar activation with value and (right-)derivative."""

    has_slope_param = False
    # True when f(u) == u for u >= 0 and f(u) == neg_slope * u below; lets
    # the kernels return x exactly on the positive branch instead of
    # (x - t) + t, which differs in the last ulp and would break the exact
    # floor/identity properties
    linear_positive = False

    def f(self, u, a=None):
        raise NotImplementedError

    def df(self, u, a=None):
        """Derivative at u, using the right derivative at the kink."""
        raise NotImplementedError

    def neg_slope(self, a=None):
        """f'(u) for u < 0, for linear_positive bases."""
        raise NotImplementedError

    @property
    def backward_reads_x(self) -> bool:
        """Whether the backward reads the layer input ``x`` and not only the
        mask: a base that is not linear_positive evaluates ``f'(x - t)``,
        and the PReLU slope gradient reads ``x - t``."""
        return self.has_slope_param or not self.linear_positive


class ReLU(BaseActivation):
    linear_positive = True

    def f(self, u, a=None):
        return np.maximum(u, 0.0)

    def df(self, u, a=None):
        return (u >= 0.0).astype(np.float64)

    def neg_slope(self, a=None):
        return 0.0


# the initial value of PReLU's trainable slope, in every channel
PRELU_A_INIT = 0.25


@dataclass
class Leaky(BaseActivation):
    """u for u >= 0 and slope * u below: the identity (slope 1.0), leaky
    ReLU (a fixed slope in (0, 1)) and PReLU (slope None: the trainable
    per-channel slope `a`, passed in by the caller)."""

    slope: float | None
    linear_positive = True

    @property
    def has_slope_param(self) -> bool:
        return self.slope is None

    def f(self, u, a=None):
        return np.where(u >= 0.0, u, self.neg_slope(a) * u)

    def df(self, u, a=None):
        return np.where(u >= 0.0, 1.0, self.neg_slope(a))

    def neg_slope(self, a=None):
        if self.slope is not None:
            return self.slope
        if a is None:
            raise ContractError("PReLU needs its slope parameter")
        return np.asarray(a, dtype=np.float64)


@dataclass
class SELU(BaseActivation):
    lam: float = SELU_LAMBDA
    alpha: float = SELU_ALPHA

    def __post_init__(self):
        if self.lam <= 0 or self.alpha <= 0:
            raise ValueError("SELU constants must be positive")

    def f(self, u, a=None):
        return np.where(u > 0.0, self.lam * u,
                        self.lam * self.alpha * np.expm1(np.minimum(u, 0.0)))

    def df(self, u, a=None):
        return np.where(u > 0.0, self.lam,
                        self.lam * self.alpha * np.exp(np.minimum(u, 0.0)))


def _lrelu(alpha=0.01):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"leaky slope must be in (0,1), got {alpha}")
    return Leaky(alpha)


# name -> factory, whose parameters are the keyword arguments the base takes
_BASES = {
    "identity": lambda: Leaky(1.0),
    "relu": ReLU,
    "lrelu": _lrelu,
    "prelu": lambda: Leaky(None),
    "selu": SELU,
}


def make_base(name: str, **kwargs) -> BaseActivation:
    try:
        make = _BASES[name]
    except KeyError:
        raise ValueError(f"unknown base activation {name!r}") from None
    takes = inspect.signature(make).parameters
    unknown = sorted(kwargs.keys() - takes)
    if unknown:
        raise ValueError(f"base activation {name!r} takes no keyword argument "
                         f"{', '.join(map(repr, unknown))} (it takes "
                         f"{', '.join(takes) or 'none'})")
    return make(**kwargs)


def shift_shape(granularity: str, sample_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Storage shape of t for one channels-last input sample, (H, W, C) or
    (D,): the trailing shape of the sample that t broadcasts against."""
    if granularity == "layer":
        return (1,)
    if granularity == "channel":
        return tuple(sample_shape[-1:])
    if granularity == "element":
        return tuple(sample_shape)
    raise ShapeError(f"granularity {granularity!r} undefined for shape {sample_shape}")


# The kernels take the base, the shift t at its storage shape (it broadcasts
# against x, which may carry a leading batch axis) and, in the backward, the
# mask the forward returned.

def ng_forward(base: BaseActivation, t, x, a=None):
    """(f(x - t) + t, branch mask x >= t), elementwise.

    For linear_positive bases the positive branch returns x itself, so the
    ReLU wrapper is exactly max(x, t) and every wrapper is exactly the
    identity whenever every input clears the shift.  Both branches agree
    with f(x - t) + t for finite inputs; x == t == ±inf returns x.
    """
    t = _wide(t, x)
    m = np.greater_equal(x, t, out=np.empty(x.shape, dtype=bool))
    if isinstance(base, ReLU):
        # f(u) + t is 0.0 + t on the lower branch, which turns a stored
        # -0.0 into +0.0; on a tie np.maximum returns its second operand,
        # so x == t gives x, signed zeros included, and a NaN propagates
        t += 0.0
        return np.maximum(t, x, out=np.empty(x.shape)), m
    x = as_f64(x)
    shifted = base.f(x - t, a) + t
    if base.linear_positive:
        return np.where(m, x, shifted), m
    return shifted, m


def _dfdx(base, t, x, m, a):
    """f'(x - t): picked by the mask for linear_positive bases."""
    if base.linear_positive:
        return np.where(m, 1.0, base.neg_slope(a))
    return base.df(as_f64(x) - t, a)


def ng_backward_input(base: BaseActivation, t, x, m, grad_out, a=None):
    """grad_out * f'(x - t)."""
    df = m if isinstance(base, ReLU) else _dfdx(base, t, x, m, a)
    return np.multiply(grad_out, df, out=np.empty(m.shape))


def reduce_to_param(g, param_shape):
    """Sum a full-shape gradient down to a parameter's storage shape, a
    trailing shape of g's samples (or (1,)): the column sums of g's
    (N, size) view.  With a batch-mean loss upstream this yields the exact
    gradient of that loss."""
    return _colsum(as_f64(g), math.prod(param_shape)).reshape(param_shape)


def ng_grad_t(base: BaseActivation, t, x, m, grad_out, a=None):
    """Gradient of the loss w.r.t. the shift t.

    Per element the factor is ``1 - f'(x - t)``; contributions sharing one t
    (spatial positions, batch samples) are summed, which is the exact
    derivative of the upstream (batch-mean) loss.
    """
    factor = ~m if isinstance(base, ReLU) else 1.0 - _dfdx(base, t, x, m, a)
    g = np.multiply(grad_out, factor, out=np.empty(m.shape))
    return reduce_to_param(g, t.shape)


def prelu_grad_a(base: BaseActivation, t, x, grad_out, a):
    """Gradient w.r.t. the PReLU slope, evaluated on the shifted input."""
    if not base.has_slope_param:
        raise ContractError("slope gradient is defined only for a PReLU base")
    x = as_f64(x)
    a = np.asarray(a, dtype=np.float64)
    u = x - t
    g = as_f64(grad_out) * np.where(u < 0.0, u, 0.0)
    return reduce_to_param(g, a.shape)
