"""SGD with momentum and weight decay, the momentum rule for the activation
shift t, and learning-rate schedules.

Weight decay is coupled L2 (added to the gradient before the momentum
accumulation) and applies only to conv/dense weight matrices, never to
biases, batch-norm parameters, PReLU slopes, or t.

The shift update puts the learning rate inside the momentum buffer:
``dt <- t_momentum * dt + t_lr * grad``, applied as ``t <- t - dt`` (descent
sign).  With a constant learning rate this is the same trajectory as the
weight rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .network import Activation, NetworkSpec

DECAYED_KEYS = {"W"}
NON_GRADIENT_KEYS = {"running_mean", "running_var"}


@dataclass
class StepSchedule:
    epochs: list = field(default_factory=list)
    factor: float = 0.1


@dataclass
class PlateauSchedule:
    patience: int = 10
    factor: float = 0.1
    metric: str = "train_loss"  # or "test_error"
    threshold: float = 1e-4


@dataclass
class OptimConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    t_lr: float = None
    t_momentum: float = None
    schedule: object = None

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


def zero_velocities(params: dict) -> dict:
    return {i: {k: np.zeros_like(v) for k, v in p.items()
                if k not in NON_GRADIENT_KEYS}
            for i, p in params.items()}


def _check_finite(grads: dict):
    for i, p in grads.items():
        for key, g in p.items():
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient at layer {i} "
                                      f"{key!r}; parameters untouched")


def sgd_step(params: dict, grads: dict, velocities: dict, cfg: OptimConfig,
             spec: NetworkSpec = None, lr_multiplier: float = 1.0):
    """One in-place momentum-SGD step over every gradient in `grads`.

    Shift parameters t (and only they) follow the t recurrence with
    t_lr/t_momentum; non-trainable shifts are skipped entirely.  Raises
    DivergenceError before touching anything if any gradient is non-finite.
    """
    _check_finite(grads)
    lr = cfg.lr * lr_multiplier
    t_lr = cfg.t_lr * lr_multiplier
    for i, layer_grads in grads.items():
        for key, g in layer_grads.items():
            w = params[i][key]
            v = velocities[i][key]
            if key == "t":
                layer = spec.layers[i] if spec is not None else None
                if layer is not None and isinstance(layer, Activation) \
                        and not (layer.spec.ng and layer.spec.trainable):
                    continue
                v *= cfg.t_momentum
                v += t_lr * g
                w -= v
            else:
                if key in DECAYED_KEYS and cfg.weight_decay:
                    g = g + cfg.weight_decay * w
                v *= cfg.momentum
                v += g
                w -= lr * v


class ScheduleState:
    """Tracks the cumulative learning-rate multiplier across epochs."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.multiplier = 1.0
        self._best = None
        self._stale = 0

    def epoch_multiplier(self, epoch: int, metric: float = None) -> float:
        """Multiplier to use for `epoch` (0-based), given the previous
        epoch's metric value for plateau schedules."""
        s = self.schedule
        if s is None:
            return self.multiplier
        if isinstance(s, StepSchedule):
            if epoch in s.epochs:
                self.multiplier *= s.factor
        elif isinstance(s, PlateauSchedule):
            if metric is not None:
                if self._best is None or metric < self._best - s.threshold:
                    self._best = metric
                    self._stale = 0
                else:
                    self._stale += 1
                    if self._stale >= s.patience:
                        self.multiplier *= s.factor
                        self._stale = 0
        else:
            raise ValueError(f"unknown schedule {s!r}")
        return self.multiplier


def schedule_lr(schedule, history) -> float:
    """Multiplier after replaying a per-epoch metric history."""
    state = ScheduleState(schedule)
    mult = 1.0
    for epoch, metric in enumerate(history):
        mult = state.epoch_multiplier(epoch, metric)
    return mult
