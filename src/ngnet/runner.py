"""Training driver and the experiment procedures.

Every run is fully determined by (config, seed): dataset generation, weight
init, shuffling, and augmentation all draw from seed-derived streams, so
repeated runs emit bitwise-identical CSVs.

A sweep is a list of run configs: deep copies of the sweep's config, each
with its run's dotted keys (``activation.*``, ``model.depth``, ``init``) and
``run_id`` set, so a run config describes its run completely.  One loop,
``train_runs``, trains the list in order on the sweep's one dataset and
writes each run's per-run CSV rows when that run ends.
"""

from __future__ import annotations

import copy
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import instrumentation as instr
from .config import ExperimentConfig, _fill, sample_shape
from .csvio import emit_csv, refuse_present_run_ids
from .datasets import Dataset, augment, make_blobs, make_spirals, load_cifar10_binary
from .errors import ConfigError, DivergenceError, NgnetError
from .network import (InitScheme, NetworkSpec, backward, build_mlp,
                      build_plain_cnn, build_resnet, build_toy_cnn,
                      fold_running_stats, forward, init_params)
from .optim import sgd_step

# a run converged if its final train accuracy beats chance by this much
CONVERGENCE_MARGIN = 0.1
# a run has learned once its train accuracy reaches this share of its final
THRESHOLD_FRAC = 0.9


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def get_dataset(cfg: ExperimentConfig) -> Dataset:
    d = cfg.dataset
    shape = sample_shape(cfg)
    image_shape = shape if len(shape) == 3 else None
    if d.kind == "synthetic_blobs":
        return make_blobs(classes=d.classes, dims=int(np.prod(shape)),
                          spread=d.spread, n=d.n, seed=cfg.seed,
                          image_shape=image_shape)
    if d.kind == "synthetic_spirals":
        return make_spirals(classes=d.classes, n=d.n, seed=cfg.seed,
                            noise=d.noise, image_shape=image_shape)
    if d.kind == "cifar10_binary":
        return load_cifar10_binary(d.path, subset=d.subset, seed=cfg.seed)
    raise ConfigError(f"unknown dataset kind {d.kind!r}")


def build_model(cfg: ExperimentConfig, num_classes: int) -> NetworkSpec:
    act = cfg.activation
    m = cfg.model
    shape = sample_shape(cfg)
    if m.family == "mlp":
        # depth counts weighted layers; the last one is the classifier.
        return build_mlp([m.hidden] * (m.depth - 1), num_classes, act,
                         input_dim=int(np.prod(shape)))
    in_channels, input_hw = shape[0], shape[-1]
    if m.family == "toy_cnn":
        return build_toy_cnn(num_classes, act, input_hw=input_hw,
                             in_channels=in_channels)
    if m.family == "plain_cnn":
        return build_plain_cnn(m.depth, m.width, num_classes, m.with_bn, act,
                               input_hw=input_hw, in_channels=in_channels)
    if m.family == "resnet":
        return build_resnet(m.depth, m.width, num_classes, act,
                            with_bn=m.with_bn, input_hw=input_hw,
                            in_channels=in_channels)
    raise ConfigError(f"unknown model family {m.family!r}")


# ---------------------------------------------------------------------------
# One training run
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    run_id: str
    rows: list = field(default_factory=list)          # metrics.csv rows
    layerstats_rows: list = field(default_factory=list)
    ttrace_rows: list = field(default_factory=list)
    diverged: bool = False
    # (epoch, step, cause) of a divergence, the step counted over the run
    divergence: tuple = None
    final_train_acc: float = 0.0
    max_train_acc: float = 0.0
    final_mean_t: float = float("nan")
    spec: NetworkSpec = None
    params: dict = None

    def epochs_to_threshold(self, budget, num_classes):
        """First epoch (1-based) reaching THRESHOLD_FRAC of the final train
        accuracy; `budget` + 1 for a run that did not converge, which never
        learned: it diverged, or ended near chance."""
        if converged(self, num_classes):
            target = THRESHOLD_FRAC * self.final_train_acc
            for row in self.rows:
                if row["train_acc"] >= target - 1e-12:
                    return row["epoch"]
        return budget + 1


EVAL_BATCH = 256


def _eval_acc(spec, params, x, y):
    hits = 0
    for s in range(0, len(y), EVAL_BATCH):
        logits, _, _ = forward(spec, params, x[s:s + EVAL_BATCH], mode="eval")
        hits += (logits.argmax(axis=1) == y[s:s + EVAL_BATCH]).sum()
    return float(hits) / len(y)


def train_run(cfg: ExperimentConfig, data: Dataset = None,
              collect_stats: bool = False) -> RunResult:
    """Train the one run `cfg` describes, on `data` if given (it must be
    ``get_dataset(cfg)``), else on the dataset the config builds; then probe
    its first `probe_steps` training samples, unless it diverged, which is
    reported as one line on stderr.  The run finds its own non-finite
    values, so NumPy's floating-point warnings are silenced: a diverged
    run writes that one line and no other.  The step's `logits`, `cache`
    and `grads` are dropped before the eval, stats, probes and non-finite
    re-walk run, so the step loop sets the run's peak memory."""
    with np.errstate(all="ignore"):
        data = data if data is not None else get_dataset(cfg)
        spec = build_model(cfg, data.num_classes)
        params = init_params(spec, InitScheme(cfg.init, cfg.seed))
        velocities: dict = {}
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed,
                                                           spawn_key=(99,)))
        res = RunResult(cfg.run_id, spec=spec, params=params)

        n = len(data.train_y)
        step = 0
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            loss_sum = hits = seen = 0
            cause = None
            for s in range(0, n, cfg.batch_size):
                idx = perm[s:s + cfg.batch_size]
                xb = data.train_x[idx]
                yb = data.train_y[idx]
                if cfg.dataset.augment:
                    xb = augment(xb, rng)
                logits, loss, cache = forward(spec, params, xb, yb,
                                              mode="train")
                fold_running_stats(params, cache)
                if not np.isfinite(loss):
                    logits = cache = grads = None  # as at the epoch's end
                    cause = "non-finite loss" + _first_non_finite(
                        spec, params, xb)
                    break
                try:
                    grads = backward(spec, params, cache)
                    sgd_step(params, grads, velocities, cfg.optim)
                except DivergenceError as exc:
                    cause = str(exc)
                    break
                loss_sum += loss * len(yb)
                hits += (logits.argmax(axis=1) == yb).sum()
                seen += len(yb)
                step += 1
            # the work after the step loop runs beside no array of a step
            logits = cache = grads = None
            row = {"run_id": res.run_id, "epoch": epoch + 1, "step": step,
                   "lr_multiplier": 1.0}
            if cause is not None:
                res.diverged = True
                res.divergence = (epoch + 1, step + 1, cause)
                print("{}: diverged at epoch {} step {}: {}".format(
                    res.run_id, *res.divergence), file=sys.stderr)
                res.rows.append(dict(row, train_loss=float("nan"),
                                     train_acc=0.0, test_acc=0.0,
                                     diverged=True))
                break
            train_loss = loss_sum / seen
            train_acc = hits / seen
            test_acc = _eval_acc(spec, params, data.test_x, data.test_y)
            res.rows.append(dict(row, train_loss=float(train_loss),
                                 train_acc=float(train_acc),
                                 test_acc=float(test_acc), diverged=False))
            res.max_train_acc = max(res.max_train_acc, float(train_acc))
            res.final_train_acc = float(train_acc)
            if collect_stats:
                _collect_epoch_stats(res, data, epoch + 1, step)
        probe_n = 0 if res.diverged else cfg.probe_steps
        probes = instr.sandwich_probes(spec, params, data.train_x[:probe_n],
                                       data.train_y[:probe_n], cfg.optim.lr)
        res.layerstats_rows += [dict(row, run_id=res.run_id)
                                for row in probes]
        t_means = [row["t_mean"] for row in instr.t_trace(spec, params)]
        res.final_mean_t = (float(np.mean(t_means)) if t_means
                            else float("nan"))
        return res


def _first_non_finite(spec, params, batch):
    """Where a train forward on `batch` first goes non-finite: " (first at
    layer i, Kind)" for the shortest non-finite prefix, or "" if none is."""
    for i, layer in enumerate(spec.layers):
        head = NetworkSpec(spec.layers[:i + 1], spec.input_shape)
        out, _, _ = forward(head, params, batch)
        if not np.isfinite(out).all():
            return f" (first at layer {i}, {type(layer).__name__})"
    return ""


def _collect_epoch_stats(res: RunResult, data, epoch, step):
    probe_n = min(32, len(data.train_y))
    shift = instr.mean_shift_trace(res.spec, res.params, data.train_x[:probe_n],
                                   data.train_y[:probe_n])
    res.layerstats_rows += [dict(row, run_id=res.run_id, step=step)
                            for row in shift]
    res.ttrace_rows += [dict(row, run_id=res.run_id, epoch=epoch)
                        for row in instr.t_trace(res.spec, res.params)]


def converged(res: RunResult, num_classes: int) -> bool:
    """A run converged iff it never diverged and ended clearly above
    chance within its budget."""
    return (not res.diverged
            and res.final_train_acc > 1.0 / num_classes + CONVERGENCE_MARGIN)


# ---------------------------------------------------------------------------
# Experiment procedures
# ---------------------------------------------------------------------------

# the wrapped and the plain variant of the sweep's activation
VARIANTS = {"ng": {"activation.ng": True}, "plain": {"activation.ng": False}}


def run_config(cfg: ExperimentConfig, name: str,
               fields: dict) -> ExperimentConfig:
    """One run of the sweep `cfg`: a deep copy with the dotted keys of
    `fields` set on it, as ``--override`` names them (e.g.
    ``{"model.depth": 8}``), and the run id ``<cfg.run_id>-<name>``."""
    run = copy.deepcopy(cfg)
    _fill(run, dict(fields, run_id=f"{cfg.run_id}-{name}"))
    return run


def train_runs(runs, data: Dataset, collect_stats: bool = False):
    """Train each run config in order on the sweep's one dataset, appending
    each run's per-run CSV rows when it ends."""
    results = []
    for run in runs:
        results.append(train_run(run, data, collect_stats))
        _write_run(run, results[-1])
    return results


def run_single(cfg: ExperimentConfig):
    _refuse_present(cfg, [cfg])
    return train_runs([cfg], get_dataset(cfg), collect_stats=True)


def run_capacity_sweep(cfg: ExperimentConfig):
    """Fixed-shift ladder plus a trainable run on the small two-conv model.

    Emits one summary row per setting (max train accuracy; final mean t for
    the trainable run) alongside the usual per-epoch metrics.
    """
    # the identity base takes none of the sweep base's keyword arguments
    settings = [("none", {"activation.base": "identity",
                          "activation.base_kwargs": {},
                          "activation.ng": False})]
    settings += [(f"t{t:g}", {"activation.ng": True,
                              "activation.trainable": False,
                              "activation.t_init": t})
                 for t in cfg.t_values]
    settings += [("trainable", {"activation.ng": True,
                                "activation.trainable": True})]
    runs = [run_config(cfg, name, fields) for name, fields in settings]
    _refuse_present(cfg, runs, "capacity")
    results = train_runs(runs, get_dataset(cfg))
    summary = [{"run_id": res.run_id, "setting": name,
                "max_train_acc": res.max_train_acc,
                "final_mean_t": res.final_mean_t, "diverged": res.diverged}
               for (name, _), res in zip(settings, results)]
    emit_csv(summary, _csv_path(cfg, "capacity"), schema="capacity")
    return results, summary


def run_critical_depth(cfg: ExperimentConfig):
    """Depth ladder on the plain CNN, wrapped vs unwrapped activation; the
    critical depth is the largest depth that still converges."""
    data = get_dataset(cfg)
    grid = [(vname, cfg.depth_start + k * cfg.depth_step)
            for vname in VARIANTS for k in range(cfg.depth_count)]
    runs = [run_config(cfg, f"{vname}-d{depth}",
                       {**VARIANTS[vname], "model.depth": depth})
            for vname, depth in grid]
    critical_ids = {vname: f"{cfg.run_id}-{vname}-critical"
                    for vname in VARIANTS}
    _refuse_present(cfg, runs, "critical_depth", critical_ids.values())
    results = train_runs(runs, data)
    summary, critical = [], {}
    for (vname, depth), res in zip(grid, results):
        ok = converged(res, data.num_classes)
        summary.append({"run_id": res.run_id, "variant": vname,
                        "depth": depth, "converged": ok,
                        "final_train_acc": res.final_train_acc,
                        "diverged": res.diverged})
        if ok:
            critical[vname] = max(critical.get(vname, 0), depth)
    for vname in VARIANTS:
        summary.append({"run_id": critical_ids[vname],
                        "variant": vname, "depth": critical.get(vname, 0),
                        "converged": True, "final_train_acc": float("nan"),
                        "diverged": False})
    emit_csv(summary, _csv_path(cfg, "critical_depth"),
             schema="critical_depth")
    return results, critical


def run_learning_behavior(cfg: ExperimentConfig):
    """Init-scheme grid (xavier/msra/orthogonal) for the wrapped and plain
    activation; summarizes epochs-to-threshold and its cross-init spread."""
    grid = [(vname, init) for vname in VARIANTS
            for init in ("xavier", "msra", "orthogonal")]
    runs = [run_config(cfg, f"{vname}-{init}",
                       {**VARIANTS[vname], "init": init})
            for vname, init in grid]
    spread_ids = {vname: f"{cfg.run_id}-{vname}-spread" for vname in VARIANTS}
    _refuse_present(cfg, runs, "learning_behavior", spread_ids.values())
    data = get_dataset(cfg)
    results = train_runs(runs, data)
    summary, spread = [], {}
    for vname in VARIANTS:
        rows = [{"run_id": res.run_id, "variant": v, "init": init,
                 "epochs_to_threshold": res.epochs_to_threshold(
                     cfg.epochs, data.num_classes),
                 "final_train_acc": res.final_train_acc,
                 "diverged": res.diverged}
                for (v, init), res in zip(grid, results) if v == vname]
        needed = [r["epochs_to_threshold"] for r in rows]
        spread[vname] = max(needed) - min(needed)
        summary += rows + [{"run_id": spread_ids[vname],
                            "variant": vname, "init": "spread",
                            "epochs_to_threshold": spread[vname],
                            "final_train_acc": float("nan"),
                            "diverged": False}]
    emit_csv(summary, _csv_path(cfg, "learning_behavior"),
             schema="learning_behavior")
    return results, spread


def run_variance_study(cfg: ExperimentConfig):
    """Wrapped vs plain run with per-epoch layer statistics, shift traces,
    and each run's closing per-sample sandwich probes on the dense head."""
    runs = [run_config(cfg, vname, fields)
            for vname, fields in VARIANTS.items()]
    _refuse_present(cfg, runs)
    return dict(zip(VARIANTS, train_runs(runs, get_dataset(cfg),
                                         collect_stats=True)))


# per-run CSV schema -> the RunResult attribute holding its rows
RUN_CSVS = {"metrics": "rows", "layerstats": "layerstats_rows",
            "ttrace": "ttrace_rows"}


def _csv_path(cfg: ExperimentConfig, name):
    return os.path.join(cfg.out, f"{name}.csv")


def _refuse_present(cfg: ExperimentConfig, runs, summary=None,
                    summary_ids=()):
    """Make the output directory, refusing before the first run trains a
    run id that repeats, an output path that cannot be a directory, and a
    CSV this sweep writes (the per-run CSVs and the `summary` CSV, whose
    extra rows carry `summary_ids`) with another header or a present id."""
    ids = [run.run_id for run in runs] + list(summary_ids)
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ConfigError(f"run_id repeats within the sweep: {repeated}")
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise NgnetError(f"cannot make directory {cfg.out}: {exc}") from exc
    for name in list(RUN_CSVS) + ([summary] if summary else []):
        refuse_present_run_ids(_csv_path(cfg, name), name, ids)


def _write_run(cfg: ExperimentConfig, res: RunResult):
    for schema, attr in RUN_CSVS.items():
        rows = getattr(res, attr)
        if rows:
            emit_csv(rows, _csv_path(cfg, schema), schema=schema)


EXPERIMENTS = {
    "single_run": run_single,
    "capacity_sweep": run_capacity_sweep,
    "critical_depth": run_critical_depth,
    "learning_behavior": run_learning_behavior,
    "variance_study": run_variance_study,
}


def run_experiment(cfg: ExperimentConfig):
    try:
        fn = EXPERIMENTS[cfg.experiment]
    except KeyError:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}") from None
    return fn(cfg)
