"""Measurements on training state: per-layer statistics, the analytic
bounds on the variance of a single-step weight update, t-evolution traces,
and a finite-difference gradient checker.

All statistics use the population convention (divide by the count), which
is what the bound derivation assumes.  The bound itself holds for the
rank-one update of a single sample on a dense layer:

    dW[i, j] = -lr * g[i] * z[j]

    lr^2 * mean(g)^2 * var(z)
        <= var(dW)
        <= 2 * lr^2 * (var(g) * mean(z)^2 + var(z) * var(g)
                       + var(z) * mean(g)^2)

so the sandwich probe runs on batch-size-1 updates only; averaged-batch
updates are outside the regime and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import reduce_to_param
from .errors import ContractError, RegimeError
from .network import Activation, Conv, Dense, NetworkSpec, backward, forward

KINK_WINDOW = 1e-3
FD_STEP = 1e-5
# relative slack on both sides of the sandwich, for rounding in var(dW)
SANDWICH_SLACK = 1e-9
# grad_check runs two forwards per trained value, so it is for small nets only
GRAD_CHECK_MAX_PARAMS = 2000


def _pop_var(x):
    x = np.asarray(x, dtype=np.float64)
    return float(x.var())  # numpy default ddof=0 is the population variance


def variance_bounds(z, g, lr):
    """Lower and upper bounds on var(dW) for the rank-one update above."""
    z = np.asarray(z, dtype=np.float64).ravel()
    g = np.asarray(g, dtype=np.float64).ravel()
    if z.size == 0 or g.size == 0:
        raise ContractError("variance bounds need non-empty vectors")
    mz, vz = float(z.mean()), _pop_var(z)
    mg, vg = float(g.mean()), _pop_var(g)
    lower = lr ** 2 * mg ** 2 * vz
    upper = 2.0 * lr ** 2 * (vg * mz ** 2 + vz * vg + vz * mg ** 2)
    return lower, upper


def sandwich_check(z, g, lr) -> dict:
    """Verify the bounds against the realized update of one sample.

    z is the dense layer's input vector (n,), g the loss gradient at its
    pre-activation (m,).  Returns the seven ``layerstats.csv`` columns the
    check measures.  Raises RegimeError if either carries a batch axis of
    more than one sample.
    """
    z = np.asarray(z, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if z.ndim == 2:
        if z.shape[0] != 1:
            raise RegimeError("sandwich check requires a batch of one sample")
        z = z[0]
    if g.ndim == 2:
        if g.shape[0] != 1:
            raise RegimeError("sandwich check requires a batch of one sample")
        g = g[0]
    dw = -lr * np.outer(g, z)
    var_dw = _pop_var(dw)
    lower, upper = variance_bounds(z, g, lr)
    if not (lower <= var_dw * (1 + SANDWICH_SLACK)
            and var_dw <= upper * (1 + SANDWICH_SLACK)):
        raise AssertionError(
            f"variance sandwich violated: {lower} <= {var_dw} <= {upper}")
    return {"mean_z": float(z.mean()), "var_z": _pop_var(z),
            "mean_g": float(g.mean()), "var_g": _pop_var(g), "var_dw": var_dw,
            "lower_bound": lower, "upper_bound": upper}


def weight_variance_trace(spec: NetworkSpec, params: dict):
    """Per-layer population variance of the weight entries, conv and dense."""
    rows = []
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, (Conv, Dense)):
            rows.append((i, _pop_var(params[i]["W"])))
    return rows


def stability_score(weight_vars) -> float:
    """Spread of log weight variance across layers; 0 means perfectly even."""
    v = np.asarray([wv for _, wv in weight_vars], dtype=np.float64)
    v = np.maximum(v, 1e-300)
    return float(np.log(v).std())


def t_trace(spec: NetworkSpec, params: dict):
    """Per shifted activation: its ``ttrace.csv`` columns but run id and
    epoch."""
    rows = []
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Activation) and layer.spec.ng:
            t = params[i]["t"]
            rows.append({"layer": i, "t_mean": float(t.mean()),
                         "t_std": float(t.std()), "t_min": float(t.min()),
                         "t_max": float(t.max())})
    return rows


def _linear_zg(spec, params, batch, labels, mode, z_of=lambda z: z):
    """Forward and backward on `batch`: per Conv/Dense layer index, in
    order, ``z_of`` of its input z and the loss gradient g at its
    pre-activation (the batch-norm output where batch norm follows).
    ``z_of`` runs before the backward, which consumes the cache."""
    _, _, cache = forward(spec, params, batch, labels, mode=mode)
    zs = [(i, z_of(c["x"])) for i, c in enumerate(cache["layers"])
          if isinstance(spec.layers[i], (Conv, Dense))]
    out_grads: dict = {}
    backward(spec, params, cache, out_grads=out_grads)
    return [(i, z, out_grads[i]) for i, z in zs]


def _is_logits(spec, i):
    """Whether layer i's output is the logits.  Each row of the
    softmax-cross-entropy gradient there sums to zero, so its mean_g is 0
    in exact arithmetic and np.mean(g) only rounding noise."""
    return i == len(spec.layers) - 1


# layerstats.csv columns only the batch-of-one probes fill
_PROBE_ONLY = dict.fromkeys(("var_z", "var_g", "var_dw", "lower_bound",
                            "upper_bound"), float("nan"))


def mean_shift_trace(spec: NetworkSpec, params: dict, batch, labels):
    """Per linear layer, its ``layerstats.csv`` columns but run id and
    step: the mean of its input z and of the loss gradient g at its
    pre-activation, the two quantities the bounds depend on, and its
    weight variance; NaN in the probe-only columns."""
    zg = _linear_zg(spec, params, batch, labels, "train",
                    lambda z: float(np.mean(z)))
    return [dict(_PROBE_ONLY, layer=i, mean_z=mean_z,
                 mean_g=0.0 if _is_logits(spec, i) else float(np.mean(g)),
                 weight_var=_pop_var(params[i]["W"]))
            for i, mean_z, g in zg]


def sandwich_probes(spec: NetworkSpec, params: dict, xs, ys, lr):
    """Batch-size-1 eval-mode updates of each sample of `xs` on each dense
    layer, checked against the analytic variance bounds: the
    ``layerstats.csv`` rows but run id, with the sample's index as step.
    At the logits mean_g, and with it lower_bound, is written as 0."""
    rows = []
    for k in range(len(ys)):
        for i, z, g in _linear_zg(spec, params, xs[k:k + 1], ys[k:k + 1],
                                  "eval"):
            if isinstance(spec.layers[i], Dense):
                row = dict(sandwich_check(z, g, lr), step=k, layer=i,
                           weight_var=_pop_var(params[i]["W"]))
                if _is_logits(spec, i):
                    row.update(mean_g=0.0, lower_bound=0.0)
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: dict          # parameter group -> worst relative error
    checked: int
    excluded_kink: int
    passed: bool
    tolerance: float


def _param_group(key):
    return {"W": "weights", "b": "biases", "gamma": "bn", "beta": "bn",
            "a": "prelu_a", "t": "ng_t"}[key]


def _kink_mask(x, t):
    """Which components of a shift t sit within the kink window of some
    element of its layer's input x."""
    near = (np.abs(x - t) < KINK_WINDOW).astype(float)
    return reduce_to_param(near, t.shape) > 0


def grad_check(spec: NetworkSpec, params: dict, batch, labels,
               tolerance=1e-4) -> GradCheckReport:
    """Compare each gradient backward returns against central differences,
    value by value; GRAD_CHECK_MAX_PARAMS bounds the values checked, so
    batch-norm running statistics and a fixed shift count for nothing.
    Shift components within the kink window of any probe input are
    excluded and counted rather than checked."""
    _, _, cache = forward(spec, params, batch, labels, mode="train")
    analytic = backward(spec, params, cache)
    n_params = sum(g.size for p in analytic.values() for g in p.values())
    if n_params > GRAD_CHECK_MAX_PARAMS:
        raise ContractError(f"grad_check is for small nets ({n_params} params)")

    worst: dict = {}
    checked = excluded = 0
    for i in sorted(analytic):
        for key, g_an in analytic[i].items():
            w = params[i][key]
            kink = None
            if key == "t":
                # moving t across an input's kink invalidates the central
                # difference; the slope parameter never moves the kink.
                # Every parameter checked so far is restored exactly, so
                # the prefix gives the input the first forward saw
                head = NetworkSpec(spec.layers[:i], spec.input_shape)
                x, _, _ = forward(head, params, batch)
                kink = _kink_mask(x, w)
            flat = w.ravel()
            for j in range(flat.size):
                if kink is not None and kink.ravel()[j]:
                    excluded += 1
                    continue
                orig = flat[j]
                try:
                    flat[j] = orig + FD_STEP
                    lp = forward(spec, params, batch, labels)[1]
                    flat[j] = orig - FD_STEP
                    lm = forward(spec, params, batch, labels)[1]
                finally:
                    flat[j] = orig
                g_fd = (lp - lm) / (2 * FD_STEP)
                denom = max(abs(g_fd), abs(g_an.ravel()[j]), 1e-8)
                rel = abs(g_fd - g_an.ravel()[j]) / denom
                group = _param_group(key)
                worst[group] = max(worst.get(group, 0.0), rel)
                checked += 1
    passed = all(e < tolerance for e in worst.values())
    return GradCheckReport(worst, checked, excluded, passed, tolerance)
