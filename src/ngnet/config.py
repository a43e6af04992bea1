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
like one, lists as comma-separated values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .activations import GRANULARITIES
from .errors import ConfigError
from .network import ActivationSpec
from .optim import OptimConfig, PlateauSchedule, StepSchedule

EXPERIMENT_KINDS = ("single_run", "capacity_sweep", "critical_depth",
                    "learning_behavior", "variance_study")


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


def parse_config_text(text: str) -> dict:
    """Flat key=value lines into a nested dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        node = out
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: {key.strip()!r} conflicts "
                                  "with an earlier scalar key")
        node[parts[-1]] = parse_value(value)
    return out


def load_config(path: str, overrides=()) -> dict:
    with open(path) as fh:
        cfg = parse_config_text(fh.read())
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must be key=value, got {ov!r}")
        apply_override(cfg, ov)
    return cfg


def apply_override(cfg: dict, assignment: str):
    key, value = assignment.split("=", 1)
    node = cfg
    parts = key.strip().split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = parse_value(value)


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
    convergence_margin: float = 0.1
    probe_steps: int = 8


def _fill(obj, d: dict, path=""):
    for key, value in d.items():
        if not hasattr(obj, key):
            raise ConfigError(f"unknown config key {path + key!r}")
        current = getattr(obj, key)
        if isinstance(value, dict):
            _fill(current, value, path + key + ".")
        else:
            setattr(obj, key, value)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate(cfg: ExperimentConfig):
    """Reject types and ranges the run would otherwise trip over, or run
    with silently, once every override has been applied."""
    for name, value in (("epochs", cfg.epochs), ("batch_size", cfg.batch_size),
                        ("model.depth", cfg.model.depth),
                        ("model.width", cfg.model.width),
                        ("dataset.n", cfg.dataset.n),
                        ("dataset.classes", cfg.dataset.classes)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    for name in ("lr", "momentum", "weight_decay", "t_lr", "t_momentum"):
        value = getattr(cfg.optim, name)
        if not _is_number(value):
            raise ConfigError(f"optim.{name} must be a number, got {value!r}")
    try:
        cfg.optim.validate()
    except ValueError as exc:
        raise ConfigError(f"optim: {exc}") from None
    act = cfg.activation
    if not _is_number(act.t_init):
        raise ConfigError(f"activation.t_init must be a number, got {act.t_init!r}")
    if act.granularity not in GRANULARITIES:
        raise ConfigError(f"activation.granularity must be one of "
                          f"{GRANULARITIES}, got {act.granularity!r}")
    try:
        act.make_base()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"activation.base: {exc}") from None


def build_experiment_config(raw: dict) -> ExperimentConfig:
    raw = dict(raw)
    cfg = ExperimentConfig()

    sched = raw.pop("schedule", None)
    act_raw = raw.pop("activation", {})
    _fill(cfg, raw)

    if isinstance(act_raw, dict):
        for k, v in act_raw.items():
            if not hasattr(cfg.activation, k):
                raise ConfigError(f"unknown config key 'activation.{k}'")
            setattr(cfg.activation, k, v)
    if isinstance(sched, dict):
        kind = sched.get("kind", "step")
        if kind == "step":
            epochs = sched.get("epochs", [])
            if not isinstance(epochs, list):
                epochs = [epochs]
            cfg.optim.schedule = StepSchedule(epochs=epochs,
                                             factor=sched.get("factor", 0.1))
        elif kind == "plateau":
            cfg.optim.schedule = PlateauSchedule(
                patience=sched.get("patience", 10),
                factor=sched.get("factor", 0.1),
                metric=sched.get("metric", "train_loss"))
        else:
            raise ConfigError(f"unknown schedule kind {kind!r}")

    if cfg.experiment not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.seed is None:
        raise ConfigError("seed is mandatory")
    _validate(cfg)
    if not cfg.run_id:
        cfg.run_id = f"{cfg.experiment}-s{cfg.seed}"
    return cfg
