"""SGD with momentum and weight decay, and the momentum rule for the
activation shift t.

Weight decay is coupled L2 (added to the gradient before the momentum
accumulation) and applies only to conv/dense weight matrices, never to
biases, batch-norm parameters, PReLU slopes, or t.

The shift update puts the learning rate inside the momentum buffer:
``dt <- t_momentum * dt + t_lr * grad``, applied as ``t <- t - dt`` (descent
sign).  At ``t_lr == lr`` and ``t_momentum == momentum`` that is the weight
rule's trajectory, but a loaded config trains the shift at ``t_lr = 0.01``
and ``t_momentum = 0.9`` whatever ``optim.lr`` and ``optim.momentum`` say:
the constructor copies the default lr and momentum before the config sets
them (ROADMAP item 2).  A tensor trains, and has a velocity, only once
``network.backward`` returns a gradient for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

DECAYED_KEYS = {"W"}


@dataclass(slots=True)
class OptimConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    t_lr: float = None
    t_momentum: float = None

    def __post_init__(self):
        if self.t_lr is None:
            self.t_lr = self.lr
        if self.t_momentum is None:
            self.t_momentum = self.momentum
        self.validate()

    def validate(self):
        """Raise ValueError for a learning rate, momentum or weight decay
        out of range, for the weights or for the shift."""
        for name in ("lr", "t_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("momentum", "t_momentum"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be non-negative")


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
    parameters t (and only they) follow the t recurrence with
    t_lr/t_momentum.  Raises DivergenceError before touching anything if
    any gradient is non-finite.
    """
    _check_finite(grads)
    for i, layer_grads in grads.items():
        for key, g in layer_grads.items():
            w = params[i][key]
            v = velocities.get((i, key))
            if v is None:
                v = velocities[i, key] = np.zeros_like(w)
            if key == "t":
                v *= cfg.t_momentum
                v += cfg.t_lr * g
                w -= v
            else:
                if key in DECAYED_KEYS and cfg.weight_decay:
                    g = g + cfg.weight_decay * w
                v *= cfg.momentum
                v += g
                w -= cfg.lr * v
