"""CSV emission for experiment metrics.

Schemas are fixed per file kind so downstream plotting never has to guess:
three per-run files and one summary file per sweep.
Floats are written with 9 significant digits; appending to an existing file
is allowed only for new run_ids.
"""

from __future__ import annotations

import csv
import os

from .errors import NgnetError

SCHEMAS = {
    # lr_multiplier always reads 1.0, since a run keeps one learning rate;
    # the column stays only because perfbench pins this header
    "metrics": ["run_id", "epoch", "step", "train_loss", "train_acc",
                "test_acc", "lr_multiplier", "diverged"],
    "layerstats": ["run_id", "step", "layer", "mean_z", "var_z", "mean_g",
                   "var_g", "var_dw", "lower_bound", "upper_bound",
                   "weight_var"],
    "ttrace": ["run_id", "epoch", "layer", "t_mean", "t_std", "t_min",
               "t_max"],
    "capacity": ["run_id", "setting", "max_train_acc", "final_mean_t",
                 "diverged"],
    "critical_depth": ["run_id", "variant", "depth", "converged",
                       "final_train_acc", "diverged"],
    "learning_behavior": ["run_id", "variant", "init", "epochs_to_threshold",
                          "final_train_acc", "diverged"],
}


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.9g}"
    return v


def emit_csv(rows, path, schema):
    """Write dict rows under the fixed header of the SCHEMAS entry
    `schema`.  Appending refuses run_ids already present in the file.
    """
    columns = SCHEMAS[schema]
    refuse_present_run_ids(path, schema,
                           [r["run_id"] for r in rows if "run_id" in r])
    exists = _nonempty(path)
    try:
        with open(path, "a", newline="") as fh:
            writer = csv.writer(fh)
            if not exists:
                writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row.get(col, "")) for col in columns])
    except OSError as exc:
        raise NgnetError(f"cannot write {path}: {exc}") from exc


def _nonempty(path):
    return os.path.exists(path) and os.path.getsize(path) > 0


def refuse_present_run_ids(path, schema, run_ids):
    """Raise NgnetError if the CSV at `path` has a header other than the
    SCHEMAS entry `schema`, or already holds any of `run_ids`; a missing or
    empty file has neither."""
    if not _nonempty(path):
        return
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SCHEMAS[schema]:
            raise NgnetError(f"{path}: existing header {reader.fieldnames} "
                             f"differs from {SCHEMAS[schema]}")
        clash = {r["run_id"] for r in reader} & set(map(str, run_ids))
    if clash:
        raise NgnetError(f"{path}: run_id already present: {sorted(clash)}")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
