"""Command-line harness.

    ngnet run --config exp.cfg [--seed N] [--out DIR] [--override k=v ...]
    ngnet sweep --config exp.cfg ...          # experiment kind from config
    ngnet grad-check --config exp.cfg [--seed N] [--override k=v ...]
                     [--tolerance X]
    ngnet inspect-cifar PATH

``grad-check`` checks the model ``run`` would train from the same config
and seed, at its initial parameters, on the first 16 training samples; it
writes nothing.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import (POSITIVE_NUMBER, _parse_scalar, build_experiment_config,
                     load_config)
from .datasets import read_cifar10_records
from .errors import NgnetError


def _add_common(p):
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--override", action="append", default=[],
                   metavar="KEY=VALUE", help="config override (repeatable)")


def _tolerance(text):
    """The --tolerance value: a finite number > 0, as optim.lr."""
    ok, what = POSITIVE_NUMBER
    value = _parse_scalar(text)
    if not ok(value):
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return value


def _load_cfg(args):
    raw = load_config(args.config, args.override)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    return build_experiment_config(raw)


def cmd_run(args):
    from .runner import run_single

    cfg = _load_cfg(args)
    results = run_single(cfg)
    for res in results:
        last = res.rows[-1] if res.rows else {}
        print(f"{res.run_id}: epochs={len(res.rows)} "
              f"final_train_acc={res.final_train_acc:.4f} "
              f"test_acc={last.get('test_acc', float('nan')):.4f} "
              f"diverged={res.diverged}")
    print(f"wrote CSVs to {cfg.out}")
    return 0


def cmd_sweep(args):
    from .runner import run_experiment

    cfg = _load_cfg(args)
    run_experiment(cfg)
    print(f"{cfg.experiment} complete; wrote CSVs to {cfg.out}")
    return 0


def cmd_grad_check(args):
    from .instrumentation import grad_check
    from .network import InitScheme, init_params
    from .runner import build_model, get_dataset

    cfg = _load_cfg(args)
    data = get_dataset(cfg)
    spec = build_model(cfg, data.num_classes)
    params = init_params(spec, InitScheme(cfg.init, cfg.seed))
    report = grad_check(spec, params, data.train_x[:16], data.train_y[:16],
                        tolerance=args.tolerance)
    for group, err in sorted(report.max_rel_err.items()):
        flag = "ok" if err < report.tolerance else "FAIL"
        print(f"{group:10s} max_rel_err={err:.3e}  {flag}")
    print(f"checked={report.checked} excluded_kink={report.excluded_kink} "
          f"passed={report.passed}")
    return 0 if report.passed else 1


def cmd_inspect_cifar(args):
    labels, images = read_cifar10_records(args.path)
    counts = np.bincount(labels, minlength=10)
    print(f"{args.path}: {len(labels)} records "
          f"({len(labels) * 3073} bytes)")
    print("label histogram:", " ".join(f"{c}:{n}" for c, n in enumerate(counts)))
    print("first labels:", labels[:10].tolist())
    print(f"pixel range: [{images.min()}, {images.max()}]")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ngnet")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, text in (("run", cmd_run, "train a single configured run"),
                           ("sweep", cmd_sweep,
                            "run the configured experiment sweep")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        p.add_argument("--out", default=None, help="output directory for CSVs")
        p.set_defaults(fn=fn)

    p = sub.add_parser("grad-check", help="finite-difference check of the "
                       "configured model at its initial parameters")
    _add_common(p)
    p.add_argument("--tolerance", type=_tolerance, default=1e-4)
    p.set_defaults(fn=cmd_grad_check, out=None)

    p = sub.add_parser("inspect-cifar", help="summarize a CIFAR-10 binary file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_inspect_cifar)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NgnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
