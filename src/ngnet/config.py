"""Experiment configuration: flat key=value files with dotted keys.

Example::

    experiment = critical_depth
    model.family = plain_cnn
    model.width = 8
    activation.base = relu
    activation.ng = true
    optim.lr = 0.01
    dataset.kind = synthetic_blobs
    seed = 7

'#' starts a comment; values are parsed as bool/int/float when they look
like one, lists as comma-separated values.  The free-text keys (out,
run_id, dataset.path) keep their text as written.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from functools import reduce

from .activations import GRANULARITIES
from .datasets import synthetic_train_count
from .errors import ConfigError
from .network import (INIT_SCHEMES, ActivationSpec, check_depth,
                      check_input_hw)
from .optim import OptimConfig, PlateauSchedule, StepSchedule

EXPERIMENT_KINDS = ("single_run", "capacity_sweep", "critical_depth",
                    "learning_behavior", "variance_study")
FAMILIES = ("mlp", "toy_cnn", "plain_cnn", "resnet")
DATASET_KINDS = ("synthetic_blobs", "synthetic_spirals", "cifar10_binary")
FREE_TEXT_KEYS = ("out", "run_id", "dataset.path")


def _parse_scalar(s: str):
    s = s.strip()
    low = s.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            pass
    return s


def parse_value(s: str):
    if "," in s:
        return [_parse_scalar(p) for p in s.split(",") if p.strip()]
    return _parse_scalar(s)


def _assign(cfg: dict, assignment: str, where: str):
    """Set one dotted key=value on the nested dict `cfg`."""
    key, value = assignment.split("=", 1)
    key = key.strip()
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{where}: {key!r} conflicts with an "
                              "earlier scalar key")
    node[parts[-1]] = value.strip() if key in FREE_TEXT_KEYS \
        else parse_value(value)


def parse_config_text(text: str) -> dict:
    """Flat key=value lines into a nested dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        _assign(out, line, f"line {lineno}")
    return out


def load_config(path: str, overrides=()) -> dict:
    with open(path) as fh:
        cfg = parse_config_text(fh.read())
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must be key=value, got {ov!r}")
        _assign(cfg, ov, f"override {ov!r}")
    return cfg


@dataclass
class ModelConfig:
    family: str = "mlp"  # mlp | toy_cnn | plain_cnn | resnet
    depth: int = 8
    width: int = 8
    hidden: list = field(default_factory=lambda: [16, 16])
    with_bn: bool = False
    input_hw: int = 8
    in_channels: int = 3


@dataclass
class DatasetConfig:
    kind: str = "synthetic_spirals"
    classes: int = 3
    n: int = 1200
    dims: int = 2
    spread: float = 0.6
    noise: float = 0.08
    path: str = ""
    subset: int = 2000
    augment: bool = False
    as_images: bool = False


@dataclass
class ExperimentConfig:
    experiment: str = "single_run"
    model: ModelConfig = field(default_factory=ModelConfig)
    activation: ActivationSpec = field(default_factory=ActivationSpec)
    init: str = "msra"
    optim: OptimConfig = field(default_factory=OptimConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    epochs: int = 30
    batch_size: int = 32
    seed: int = None
    out: str = "."
    run_id: str = ""
    # sweep-specific knobs
    t_values: list = field(default_factory=lambda: [-2.0, -1.0, -0.5, -0.25])
    depth_start: int = 8
    depth_step: int = 6
    depth_count: int = 4
    probe_steps: int = 8


def sample_shape(cfg: ExperimentConfig) -> tuple:
    """The shape of one input sample, which the dataset is built at and
    the model for: (3, 32, 32) for CIFAR; (in_channels, input_hw,
    input_hw) for the image families and an MLP on images; else (dims,)
    for blobs and (2,) for spirals."""
    d, m = cfg.dataset, cfg.model
    if d.kind == "cifar10_binary":
        return (3, 32, 32)
    if d.as_images or m.family != "mlp":
        return (m.in_channels, m.input_hw, m.input_hw)
    return (2,) if d.kind == "synthetic_spirals" else (d.dims,)


def _fill(obj, d: dict, path=""):
    """Set the keys of `d` on the dataclass `obj`, recursing into its
    sections (nested dataclasses).  A section, or a dict such as
    activation.base_kwargs, takes keys, never a value."""
    names = {f.name for f in fields(obj)}
    for key, value in d.items():
        if key not in names:
            raise ConfigError(f"unknown config key {path + key!r}")
        current = getattr(obj, key)
        if (is_dataclass(current) or isinstance(current, dict)) \
                and not isinstance(value, dict):
            raise ConfigError(f"{path + key!r} is a section; set its "
                              f"keys as {path + key}.<key>, got {value!r}")
        if is_dataclass(current):
            _fill(current, value, path + key + ".")
        elif isinstance(value, dict) and not isinstance(current, dict):
            raise ConfigError(f"unknown config key "
                              f"{path + key + '.' + next(iter(value))!r}")
        else:
            setattr(obj, key, value)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value, least):
    return _is_number(value) and isinstance(value, int) and value >= least


def _validate_schedule(s):
    if s is None:
        return
    if not isinstance(s, (StepSchedule, PlateauSchedule)):
        raise ConfigError(f"optim.schedule is set by the schedule.* keys, "
                          f"got {s!r}")
    checks = [("factor", _is_number(s.factor) and 0 < s.factor < math.inf,
               "a finite number > 0")]
    if isinstance(s, StepSchedule):
        checks += [("epochs", all(_is_count(e, 0) for e in s.epochs),
                    "integers >= 0")]
    else:
        checks += [("patience", _is_count(s.patience, 1), "a positive integer"),
                   ("metric", s.metric in ("train_loss", "test_error"),
                    "train_loss or test_error")]
    for key, ok, what in checks:
        if not ok:
            raise ConfigError(f"schedule.{key} must be {what}, "
                              f"got {getattr(s, key)!r}")


def _built_depths(cfg: ExperimentConfig):
    """The keys that set the depths the experiment builds, and the depths:
    the whole ladder of a critical-depth sweep, else model.depth."""
    if cfg.experiment == "critical_depth":
        return "depth_start/depth_step/depth_count", [
            cfg.depth_start + k * cfg.depth_step
            for k in range(cfg.depth_count)]
    return "model.depth", [cfg.model.depth]


def _name_key(key, check, *args):
    """Run a builder's check, naming the config key a refusal comes from."""
    try:
        check(*args)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _validate(cfg: ExperimentConfig):
    """Reject types and ranges the run would otherwise trip over, or run
    with silently, once every override has been applied.  Every key is
    checked, also one the experiment does not read."""
    def get(name):
        return reduce(getattr, name.split("."), cfg)

    if not _is_count(cfg.seed, 0):
        raise ConfigError(f"seed must be an integer >= 0, got {cfg.seed!r}")
    for name in ("epochs", "batch_size", "model.depth", "model.width",
                 "model.input_hw", "model.in_channels", "dataset.n",
                 "dataset.classes", "dataset.dims", "dataset.subset",
                 "depth_start", "depth_step", "depth_count", "probe_steps"):
        if not _is_count(get(name), 1):
            raise ConfigError(f"{name} must be a positive integer, "
                              f"got {get(name)!r}")
    if cfg.dataset.classes < 2:
        raise ConfigError(f"dataset.classes must be at least 2, "
                          f"got {cfg.dataset.classes}")
    hidden = cfg.model.hidden
    widths = hidden if isinstance(hidden, list) else [hidden]
    if not widths or not all(_is_count(h, 1) for h in widths):
        raise ConfigError(f"model.hidden must be one or more positive "
                          f"integers, got {hidden!r}")
    for name in ("model.with_bn", "dataset.augment", "dataset.as_images",
                 "activation.ng", "activation.trainable"):
        if not isinstance(get(name), bool):
            raise ConfigError(f"{name} must be true or false, "
                              f"got {get(name)!r}")
    for name, allowed in (("init", INIT_SCHEMES), ("model.family", FAMILIES),
                          ("dataset.kind", DATASET_KINDS),
                          ("activation.granularity", GRANULARITIES)):
        if get(name) not in allowed:
            raise ConfigError(f"{name} must be one of {allowed}, "
                              f"got {get(name)!r}")
    family = cfg.model.family
    where, depths = _built_depths(cfg)
    for depth in depths:
        _name_key(where, check_depth, family, depth)
    shape = sample_shape(cfg)
    _name_key("model.input_hw", check_input_hw, family, shape[-1])
    d = cfg.dataset
    if d.augment and len(shape) != 3:
        raise ConfigError(f"dataset.augment needs image input, but samples "
                          f"are vectors of shape {shape}")
    if d.kind == "cifar10_binary" and not os.path.isfile(d.path):
        raise ConfigError(f"dataset.path: no CIFAR-10 batch file at "
                          f"{d.path!r}")
    for name in ("spread", "noise"):
        value = getattr(d, name)
        if not _is_number(value) or not 0 <= value < math.inf:
            raise ConfigError(f"dataset.{name} must be a finite number >= 0, "
                              f"got {value!r}")
    if d.kind in ("synthetic_blobs", "synthetic_spirals"):
        n_train = synthetic_train_count(d.kind, d.n, d.classes)
        if n_train < 1:
            raise ConfigError(f"dataset.n={d.n} leaves no training samples "
                              f"for {d.classes} classes")
        if cfg.experiment == "variance_study" and cfg.probe_steps > n_train:
            raise ConfigError(f"probe_steps={cfg.probe_steps} exceeds the "
                              f"{n_train} training samples")
        # the families whose builders take with_bn; cifar10_binary's size is
        # unknown here, so batch norm checks its batch when it trains
        bn = cfg.model.with_bn and family in ("plain_cnn", "resnet")
        if bn and (cfg.batch_size == 1 or n_train % cfg.batch_size == 1):
            raise ConfigError(
                f"batch_size={cfg.batch_size} leaves a training batch of one "
                f"of the {n_train} samples; batch norm needs batch size >= 2")
    if not cfg.t_values or not all(_is_number(t) and math.isfinite(t)
                                   for t in cfg.t_values):
        raise ConfigError(f"t_values must be one or more finite numbers, "
                          f"got {cfg.t_values!r}")
    for name in ("lr", "momentum", "weight_decay", "t_lr", "t_momentum"):
        value = getattr(cfg.optim, name)
        if not _is_number(value):
            raise ConfigError(f"optim.{name} must be a number, got {value!r}")
    try:
        cfg.optim.validate()
    except ValueError as exc:
        raise ConfigError(f"optim: {exc}") from None
    _validate_schedule(cfg.optim.schedule)
    act = cfg.activation
    if not _is_number(act.t_init):
        raise ConfigError(f"activation.t_init must be a number, got {act.t_init!r}")
    try:
        act.make_base()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"activation.base, activation.base_kwargs: "
                          f"{exc}") from None


def _build_schedule(sched):
    if not isinstance(sched, dict):
        raise ConfigError(f"'schedule' is a section; set its keys as "
                          f"schedule.<key>, got {sched!r}")
    kind = sched.get("kind", "step")
    if kind not in ("step", "plateau"):
        raise ConfigError(f"unknown schedule kind {kind!r}")
    keys = ("epochs",) if kind == "step" else ("patience", "metric")
    for key in sched:
        if key not in ("kind", "factor") + keys:
            raise ConfigError(f"unknown config key 'schedule.{key}' for a "
                              f"{kind} schedule")
    factor = sched.get("factor", 0.1)
    if kind == "plateau":
        return PlateauSchedule(patience=sched.get("patience", 10), factor=factor,
                               metric=sched.get("metric", "train_loss"))
    epochs = sched.get("epochs", [])
    return StepSchedule(epochs=epochs if isinstance(epochs, list) else [epochs],
                        factor=factor)


def build_experiment_config(raw: dict) -> ExperimentConfig:
    raw = dict(raw)
    cfg = ExperimentConfig()
    sched = raw.pop("schedule", None)
    _fill(cfg, raw)
    if sched is not None:
        cfg.optim.schedule = _build_schedule(sched)

    if cfg.experiment not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.seed is None:
        raise ConfigError("seed is mandatory")
    if not isinstance(cfg.t_values, list):
        cfg.t_values = [cfg.t_values]  # a single value parses as a scalar
    _validate(cfg)
    if not cfg.run_id:
        cfg.run_id = f"{cfg.experiment}-s{cfg.seed}"
    return cfg
