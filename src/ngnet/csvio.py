"""CSV emission for experiment metrics.

Schemas are fixed per file kind so downstream plotting never has to guess.
Floats are written with 9 significant digits; appending to an existing file
is allowed only for new run_ids.
"""

from __future__ import annotations

import csv
import os

from .errors import NgnetError

SCHEMAS = {
    "metrics": ["run_id", "epoch", "step", "train_loss", "train_acc",
                "test_acc", "lr_multiplier", "diverged"],
    "layerstats": ["run_id", "step", "layer", "mean_z", "var_z", "mean_g",
                   "var_g", "var_dw", "lower_bound", "upper_bound",
                   "weight_var"],
    "ttrace": ["run_id", "epoch", "layer", "t_mean", "t_std", "t_min",
               "t_max"],
}


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.9g}"
    return v


def emit_csv(rows, path, schema):
    """Write dict rows under a fixed header.

    `schema` is a schema name from SCHEMAS or an explicit column list.
    Appending refuses run_ids already present in the file.
    """
    columns = SCHEMAS[schema] if isinstance(schema, str) else list(schema)

    exists = _nonempty(path)
    if exists:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        if header != columns:
            raise NgnetError(f"{path}: existing header {header} "
                             f"differs from {columns}")
        refuse_present_run_ids(path, [r["run_id"] for r in rows
                                      if "run_id" in r])
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


def refuse_present_run_ids(path, run_ids):
    """Raise NgnetError if the CSV at `path` already holds any of `run_ids`;
    a missing or empty file holds none."""
    if not _nonempty(path):
        return
    clash = {r.get("run_id") for r in read_csv(path)} & set(map(str, run_ids))
    if clash:
        raise NgnetError(f"{path}: run_id already present: {sorted(clash)}")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
