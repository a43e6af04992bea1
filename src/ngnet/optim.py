"""SGD with momentum and weight decay, and the momentum rule for the
activation shift t.

Weight decay is coupled L2 (added to the gradient before the momentum
accumulation) and applies only to conv/dense weight matrices, never to
biases, batch-norm parameters, PReLU slopes, or t.

The shift update puts the learning rate inside the momentum buffer:
``dt <- T_MOMENTUM * dt + T_LR * grad``, applied as ``t <- t - dt`` (descent
sign).  The shift trains at the fixed ``T_LR = 0.01`` and
``T_MOMENTUM = 0.9``, whatever ``optim.lr`` and ``optim.momentum`` say, and
no config key sets them (ROADMAP item 2).  At ``lr == T_LR`` and
``momentum == T_MOMENTUM`` the shift follows the weight rule's trajectory.
A tensor trains, and has a velocity, only once ``network.backward``
returns a gradient for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

DECAYED_KEYS = {"W"}
T_LR = 0.01
T_MOMENTUM = 0.9


@dataclass(slots=True)
class OptimConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005


def _check_finite(grads: dict):
    for i, p in grads.items():
        for key, g in p.items():
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient at layer {i} "
                                      f"{key!r}; parameters untouched")


def sgd_step(params: dict, grads: dict, velocities: dict, cfg: OptimConfig):
    """One in-place momentum-SGD step over every gradient in `grads`.

    `velocities` maps ``(layer, key)`` to a momentum buffer, made at zero
    on the tensor's first gradient, so a run starts from ``{}``.  Shift
    parameters t (and only they) follow the t recurrence at T_LR and
    T_MOMENTUM, whatever `cfg` says; `cfg` sets the rule of every other
    tensor.  Raises DivergenceError before touching anything if any
    gradient is non-finite.
    """
    _check_finite(grads)
    for i, layer_grads in grads.items():
        for key, g in layer_grads.items():
            w = params[i][key]
            v = velocities.get((i, key))
            if v is None:
                v = velocities[i, key] = np.zeros_like(w)
            if key == "t":
                v *= T_MOMENTUM
                v += T_LR * g
                w -= v
            else:
                if key in DECAYED_KEYS and cfg.weight_decay:
                    g = g + cfg.weight_decay * w
                v *= cfg.momentum
                v += g
                w -= cfg.lr * v
