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

import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass

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
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config_text(text)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must be key=value, got {ov!r}")
        _assign(cfg, ov, f"override {ov!r}")
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


def _first_leaf(key, value):
    """The dotted key of the first leaf under `key` in a parsed config:
    'foo.bar' for ``foo.bar = 1``, `key` itself for a scalar."""
    while isinstance(value, dict) and value:
        sub, value = next(iter(value.items()))
        key += "." + sub
    return key


def _fill(obj, d: dict, path=""):
    """Set the keys of `d` on the dataclass `obj`, recursing into its
    sections (nested dataclasses).  A section, or a dict such as
    activation.base_kwargs, takes keys, never a value."""
    names = {f.name for f in fields(obj)}
    for key, value in d.items():
        if key not in names:
            raise ConfigError(f"unknown config key "
                              f"{_first_leaf(path + key, value)!r}")
        current = getattr(obj, key)
        if (is_dataclass(current) or isinstance(current, dict)) \
                and not isinstance(value, dict):
            raise ConfigError(f"{path + key!r} is a section; set its "
                              f"keys as {path + key}.<key>, got {value!r}")
        if is_dataclass(current):
            _fill(current, value, path + key + ".")
        elif isinstance(value, dict) and not isinstance(current, dict):
            raise ConfigError(f"unknown config key "
                              f"{_first_leaf(path + key, value)!r}")
        else:
            setattr(obj, key, value)


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
BOOL = (lambda v: isinstance(v, bool), "true or false")
TEXT = (lambda v: isinstance(v, str), "text")

# Every leaf key of ExperimentConfig -> (predicate, what its value must
# be).  A key without a rule fails every load; the rules that join keys are
# in _validate.
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
    "optim.lr": FINITE, "optim.momentum": FINITE,
    "optim.weight_decay": FINITE,
    "optim.t_lr": FINITE, "optim.t_momentum": FINITE,
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


def _leaves(obj, prefix=""):
    """(dotted key, value) of every leaf field of a config and its sections."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, prefix + f.name + ".")
        else:
            yield prefix + f.name, value


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
    with silently, once every override has been applied: every leaf key by
    its rule in RULES, also one the experiment does not read, then the
    rules that join keys."""
    for key, value in _leaves(cfg):
        ok, what = RULES[key]
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
    _name_key("optim", cfg.optim.validate)
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
