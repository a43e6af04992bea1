"""The three benchmark workloads and the checks on their outputs.

A workload *unit* is what one user invocation does after import: load the
config, build data and model, run, write outputs.  The harness repeats
units for the measured window.  Every unit of a run uses the same seed, so
every unit must produce byte-identical outputs; the harness checks that.

Why these three (see README.md for the layer table):

* critical_depth_sweep - the paper's headline experiment at the acceptance
  gate's shapes (8x8 inputs, widths 6/12/24, depths 8..26); conv-heavy but
  overhead-bound, with max pooling and no batch norm.
* resnet_bn_32px - CIFAR-shaped tensors whose unfolds exceed L2; the only
  workload with batch norm, stride-2 convs, shortcuts, augmentation and
  mean_shift_trace.
* gradcheck_toy_cnn - forward-only on tiny tensors, bound by per-call
  dispatch; a backward-only change should read flat here.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Seed a later gain claim is rechecked on; not used while writing a change.
DEFAULT_SEED = 7
HELD_OUT_SEED = 977

# Final training losses must match the reference recorded at the commit
# that added the benchmark within this relative tolerance: loose enough for
# a reordered float64 summation, far tighter than any change in what is
# trained.
LOSS_RTOL = 1e-6

_B = "bool"
SCHEMAS = {
    "metrics.csv": [("run_id", str), ("epoch", int), ("step", int),
                    ("train_loss", float), ("train_acc", float),
                    ("test_acc", float), ("lr_multiplier", float),
                    ("diverged", _B)],
    "layerstats.csv": [("run_id", str), ("step", int), ("layer", int)]
                      + [(k, float) for k in
                         ("mean_z", "var_z", "mean_g", "var_g", "var_dw",
                          "lower_bound", "upper_bound", "weight_var")],
    "ttrace.csv": [("run_id", str), ("epoch", int), ("layer", int)]
                  + [(k, float) for k in
                     ("t_mean", "t_std", "t_min", "t_max")],
    "critical_depth.csv": [("run_id", str), ("variant", str), ("depth", int),
                           ("converged", _B), ("final_train_acc", float),
                           ("diverged", _B)],
}


def _parse_field(text, kind):
    if kind == _B:
        if text not in ("true", "false"):
            raise ValueError(f"not a bool: {text!r}")
        return text == "true"
    return kind(text)


def read_csv_checked(path: Path):
    """Rows of an output CSV parsed under its fixed schema; raises
    ValueError on a wrong header, a missing field or a bad value."""
    schema = SCHEMAS[path.name]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != [name for name, _ in schema]:
            raise ValueError(f"{path.name}: header {header}")
        rows = []
        for line in reader:
            if len(line) != len(schema):
                raise ValueError(f"{path.name}: row {line}")
            rows.append({name: _parse_field(v, kind)
                         for (name, kind), v in zip(schema, line)})
    if not rows:
        raise ValueError(f"{path.name}: no rows")
    return rows


def losses_match(got, ref):
    """got/ref are [final_loss or None, diverged]."""
    if got[1] != ref[1]:
        return False
    if got[1]:
        return True
    return abs(got[0] - ref[0]) <= LOSS_RTOL * max(1.0, abs(ref[0]))


class Unit:
    """Outputs of one unit: a digest of everything it wrote, and one
    entry per checked operation (a training run or a grad_check call)."""

    def __init__(self, digest, ops, summary):
        self.digest = digest
        self.ops = ops            # {op_id: (ok, detail)}
        self.summary = summary    # values for the report, e.g. final losses


def _digest(files, losses):
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    h.update(repr(losses).encode())
    return h.hexdigest()


class Workload:
    name = ""
    config = None          # path relative to ROOT
    overrides = ()
    step_kind = "train"    # which hooks in hooks.STEP_SITES time a step
    reference_seeds = 64   # make_reference.py records seeds 0..N-1

    def load_config(self, seed, out):
        """As ``ngnet sweep --config ... --seed ... --out ...`` does."""
        from ngnet import config
        raw = config.load_config(str(ROOT / self.config), self.overrides)
        raw["seed"] = seed
        raw["out"] = str(out)
        return config.build_experiment_config(raw)

    def setup(self, seed):
        """Everything before the first step: config, data, model, init."""
        from ngnet import network, runner
        cfg = self.load_config(seed, ".")
        data = runner.get_dataset(cfg)
        spec = runner.build_model(cfg, data.num_classes)
        params = network.init_params(spec, network.InitScheme(cfg.init,
                                                              cfg.seed))
        return cfg, data, spec, params

    def unit(self, seed, out_dir: Path, losses) -> Unit:
        """Run one unit and check it; ``losses`` is its loss trajectory."""
        return self.check(out_dir, self.run(seed, out_dir), losses)


class TrainingWorkload(Workload):
    outputs = ()           # CSV files the experiment must write
    runs_per_unit = 1

    def run(self, seed, out_dir: Path):
        from ngnet import runner
        runner.run_experiment(self.load_config(seed, out_dir))

    def check(self, out_dir: Path, _, losses) -> Unit:
        files = [out_dir / name for name in self.outputs]
        ops, summary = {}, {}
        try:
            tables = {f.name: read_csv_checked(f) for f in files}
        except (OSError, ValueError) as exc:
            return Unit(None, {"outputs": (False, str(exc))}, summary)
        by_run: dict = {}
        for row in tables["metrics.csv"]:
            by_run.setdefault(row["run_id"], []).append(row)
        for run_id, rows in by_run.items():
            epochs = [r["epoch"] for r in rows]
            last = rows[-1]
            final = [None if last["diverged"] else last["train_loss"],
                     last["diverged"]]
            ok = epochs == list(range(1, len(rows) + 1)) and \
                (final[1] or math.isfinite(final[0]))
            ops[run_id] = (ok, final)
            summary[run_id] = final
        if len(ops) != self.runs_per_unit:
            ops["run_count"] = (False, f"{len(ops)} runs in metrics.csv")
        return Unit(_digest(files, losses), ops, summary)

    def reference_of(self, unit: Unit):
        return unit.summary

    def matches_reference(self, op_id, detail, ref):
        return op_id in ref and losses_match(detail, ref[op_id])


class CriticalDepthSweep(TrainingWorkload):
    name = "critical_depth_sweep"
    config = "configs/critical_depth.cfg"
    overrides = ("epochs=2",)
    outputs = ("metrics.csv", "critical_depth.csv")
    runs_per_unit = 8


class ResnetBn32px(TrainingWorkload):
    name = "resnet_bn_32px"
    config = "perfbench/resnet_bn_32px.cfg"
    outputs = ("metrics.csv", "layerstats.csv", "ttrace.csv")
    runs_per_unit = 1


class GradcheckToyCnn(Workload):
    """grad_check's own verdict is not the check here: its kink exclusion
    covers only the shifts, and on some seeds it reports passed=False (see
    perfbench/README.md).  The check is that the report is complete and
    equals the reference, verdict included.
    """
    name = "gradcheck_toy_cnn"
    config = "configs/capacity.cfg"
    step_kind = "loss_eval"
    reference_seeds = 512
    PROBE = 16

    def run(self, seed, out_dir: Path):
        from ngnet import instrumentation
        cfg, data, spec, params = self.setup(seed)
        rep = instrumentation.grad_check(spec, params, data.train_x[:self.PROBE],
                                         data.train_y[:self.PROBE])
        return rep, sum(v.size for p in params.values() for v in p.values())

    def check(self, out_dir: Path, result, losses) -> Unit:
        rep, trainable = result
        detail = {"passed": bool(rep.passed), "checked": rep.checked,
                  "excluded_kink": rep.excluded_kink,
                  "max_rel_err": float(max(rep.max_rel_err.values()))}
        ok = rep.checked + rep.excluded_kink == trainable
        h = hashlib.sha256(repr(sorted(
            (k, float(v)) for k, v in rep.max_rel_err.items())).encode())
        h.update(repr((rep.checked, rep.excluded_kink, losses)).encode())
        return Unit(h.hexdigest(), {"grad_check": (ok, detail)}, detail)

    def reference_of(self, unit: Unit):
        return {k: unit.summary[k]
                for k in ("passed", "checked", "excluded_kink")}

    def matches_reference(self, op_id, detail, ref):
        return all(detail[k] == v for k, v in ref.items())


WORKLOADS = {w.name: w for w in (CriticalDepthSweep(), ResnetBn32px(),
                                 GradcheckToyCnn())}


def missing_sources():
    """Files of the repository the workloads need, absent from ROOT."""
    need = [ROOT / "src" / "ngnet" / "__init__.py"]
    need += [ROOT / w.config for w in WORKLOADS.values()]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def use_checkout_sources():
    """Import ngnet from this checkout's src/, never from elsewhere."""
    import sys
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import ngnet
    if Path(ngnet.__file__).resolve().parent != ROOT / "src" / "ngnet":
        raise ImportError(f"ngnet imported from {ngnet.__file__}")
