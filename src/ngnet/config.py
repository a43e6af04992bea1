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
run_id, dataset.path) keep their text as written.  A loaded config is a dict
keyed by the dotted keys, as are a sweep's per-run settings
(``runner.run_config``); ``build_experiment_config`` sets each key on an
``ExperimentConfig`` and refuses one ``RULES`` does not name.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from functools import reduce

from .activations import GRANULARITIES
from .datasets import train_count
from .errors import ConfigError
from .network import (INIT_SCHEMES, ActivationSpec, check_depth,
                      check_input_hw)
from .optim import OptimConfig

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


def _assign(cfg: dict, assignment: str):
    """Set one dotted key=value on `cfg`."""
    key, value = (part.strip() for part in assignment.split("=", 1))
    cfg[key] = value if key in FREE_TEXT_KEYS else parse_value(value)


def parse_config_text(text: str) -> dict:
    """Flat key=value lines into a dict keyed by the dotted keys."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        _assign(out, line)
    return out


def load_config(path: str, overrides=()) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config_text(text)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must be key=value, got {ov!r}")
        _assign(cfg, ov)
    return cfg


@dataclass(slots=True)
class ModelConfig:
    family: str = "mlp"  # mlp | toy_cnn | plain_cnn | resnet
    depth: int = 8
    width: int = 8
    hidden: int = 16  # the width of every hidden layer of an MLP
    with_bn: bool = False
    input_hw: int = 8


@dataclass(slots=True)
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


@dataclass(slots=True)
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
    probe_steps: int = 0  # sandwich probes at the end of each run


def sample_shape(cfg: ExperimentConfig) -> tuple:
    """The shape of one input sample, which the dataset is built at and
    the model for: (3, 32, 32) for CIFAR; (3, input_hw, input_hw) for the
    image families; else (dims,) for blobs and (2,) for spirals."""
    d, m = cfg.dataset, cfg.model
    if d.kind == "cifar10_binary":
        return (3, 32, 32)
    if m.family != "mlp":
        return (3, m.input_hw, m.input_hw)
    return (2,) if d.kind == "synthetic_spirals" else (d.dims,)


def _field(cfg: ExperimentConfig, key: str):
    """The section of `cfg` that holds the dotted `key`, and the key's name
    there: ``(cfg.optim, "lr")`` for ``optim.lr``."""
    *sections, name = key.split(".")
    return reduce(getattr, sections, cfg), name


def _fill(cfg: ExperimentConfig, raw: dict):
    """Set each dotted key of `raw` on `cfg`: a key of RULES, or a keyword
    argument ``activation.base_kwargs.<name>`` of the base activation."""
    for key, value in raw.items():
        section, _, name = key.rpartition(".")
        if section == "activation.base_kwargs":
            if not isinstance(cfg.activation.base_kwargs, dict):
                raise ConfigError(f"{key!r} conflicts with an earlier "
                                  "activation.base_kwargs value")
            cfg.activation.base_kwargs[name] = value
        elif key in RULES:
            setattr(*_field(cfg, key), value)
        else:
            raise ConfigError(f"unknown config key {key!r}")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value):
    """A number float64 holds: not nan or inf, nor an integer beyond it."""
    return _is_number(value) and abs(value) <= sys.float_info.max


def _is_count(value, least):
    return _is_number(value) and isinstance(value, int) and value >= least


def _listed(value):
    """A list key's value as a list: one value parses as a scalar."""
    return value if isinstance(value, list) else [value]


def _one_of(allowed):
    return (lambda v: v in allowed), f"one of {allowed}"


def _each(ok, what):
    """A list key that holds one or more values, each passing `ok`."""
    return (lambda v: _listed(v) != [] and all(map(ok, _listed(v))),
            f"one or more {what}")


POSITIVE = (lambda v: _is_count(v, 1), "a positive integer")
COUNT = (lambda v: _is_count(v, 0), "an integer >= 0")
FINITE = (_is_finite, "a finite number")
NON_NEGATIVE = (lambda v: _is_finite(v) and v >= 0, "a finite number >= 0")
POSITIVE_NUMBER = (lambda v: _is_finite(v) and v > 0, "a finite number > 0")
BOOL = (lambda v: isinstance(v, bool), "true or false")
TEXT = (lambda v: isinstance(v, str), "text")

# Every config key, dotted as a file or --override names it -> (predicate,
# what its value must be).  A config sets only these keys and the keywords
# under activation.base_kwargs., and _validate checks each key by its rule,
# then the rules that join keys.
RULES = {
    "experiment": _one_of(EXPERIMENT_KINDS), "init": _one_of(INIT_SCHEMES),
    "model.family": _one_of(FAMILIES), "model.with_bn": BOOL,
    "model.depth": POSITIVE, "model.width": POSITIVE,
    "model.input_hw": POSITIVE, "model.hidden": POSITIVE,
    "activation.base": TEXT, "activation.t_init": FINITE,
    "activation.ng": BOOL, "activation.trainable": BOOL,
    "activation.granularity": _one_of(GRANULARITIES),
    "activation.base_kwargs": (
        lambda v: isinstance(v, dict) and all(map(_is_finite, v.values())),
        "keyword arguments, each a finite number"),
    "optim.lr": POSITIVE_NUMBER,
    "optim.momentum": (lambda v: _is_number(v) and 0 <= v < 1,
                       "a number in [0, 1)"),
    "optim.weight_decay": NON_NEGATIVE,
    "dataset.kind": _one_of(DATASET_KINDS), "dataset.path": TEXT,
    "dataset.classes": (lambda v: _is_count(v, 2), "an integer >= 2"),
    "dataset.n": POSITIVE, "dataset.dims": POSITIVE,
    "dataset.subset": POSITIVE,
    "dataset.spread": NON_NEGATIVE, "dataset.noise": NON_NEGATIVE,
    "dataset.augment": BOOL,
    "epochs": POSITIVE, "batch_size": POSITIVE, "probe_steps": COUNT,
    "depth_start": POSITIVE, "depth_step": POSITIVE, "depth_count": POSITIVE,
    "seed": COUNT,
    "out": TEXT, "run_id": TEXT,
    "t_values": _each(_is_finite, "finite numbers"),
}


def _built_depths(cfg: ExperimentConfig):
    """(key, depth) of model.depth, which every experiment checks, and of
    each depth of a critical-depth sweep's ladder."""
    yield "model.depth", cfg.model.depth
    if cfg.experiment == "critical_depth":
        for k in range(cfg.depth_count):
            yield ("depth_start/depth_step/depth_count",
                   cfg.depth_start + k * cfg.depth_step)


def _name_key(key, check, *args):
    """Run a builder's check, naming the config key a refusal comes from."""
    try:
        check(*args)
    except (ConfigError, ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _validate(cfg: ExperimentConfig):
    """Reject types and ranges the run would otherwise trip over, or run
    with silently, once every override has been applied: every key by its
    rule in RULES, also one the experiment does not read, then the rules
    that join keys."""
    for key, (ok, what) in RULES.items():
        value = getattr(*_field(cfg, key))
        if not ok(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
    family = cfg.model.family
    for key, depth in _built_depths(cfg):
        _name_key(key, check_depth, family, depth)
    if cfg.experiment == "critical_depth" and family == "toy_cnn":
        raise ConfigError(
            "model.family=toy_cnn takes no depth, so every depth of the "
            "critical-depth ladder (depth_start/depth_step/depth_count) "
            "would train one model")
    shape = sample_shape(cfg)
    _name_key("model.input_hw", check_input_hw, family, shape[-1])
    if cfg.experiment == "variance_study" and cfg.probe_steps == 0:
        raise ConfigError("probe_steps must be >= 1 for a variance_study")
    d = cfg.dataset
    if d.augment and len(shape) != 3:
        raise ConfigError(f"dataset.augment needs image input, but samples "
                          f"are vectors of shape {shape}")
    if d.kind == "cifar10_binary" and not os.path.isfile(d.path):
        raise ConfigError(f"dataset.path: no CIFAR-10 batch file at "
                          f"{d.path!r}")
    n_train = train_count(d)
    if n_train < 1:
        what = (f"dataset.subset={d.subset} of {d.path!r}"
                if d.kind == "cifar10_binary"
                else f"dataset.n={d.n} for {d.classes} classes")
        raise ConfigError(f"{what} leaves no training samples")
    if cfg.probe_steps > n_train:
        raise ConfigError(f"probe_steps={cfg.probe_steps} exceeds the "
                          f"{n_train} training samples")
    # the families whose builders take with_bn
    bn = cfg.model.with_bn and family in ("plain_cnn", "resnet")
    if bn and (cfg.batch_size == 1 or n_train % cfg.batch_size == 1):
        raise ConfigError(
            f"batch_size={cfg.batch_size} leaves a training batch of one "
            f"of the {n_train} samples; batch norm needs batch size >= 2")
    _name_key("activation.base, activation.base_kwargs",
              cfg.activation.make_base)


def build_experiment_config(raw: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    _fill(cfg, raw)
    if cfg.seed is None:
        raise ConfigError("seed is mandatory")
    cfg.t_values = _listed(cfg.t_values)
    _validate(cfg)
    if not cfg.run_id:
        cfg.run_id = f"{cfg.experiment}-s{cfg.seed}"
    return cfg
