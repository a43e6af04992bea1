"""Golden outputs: the CSVs of the shipped configs at two epochs, and
grad-check reports.

    python tests/make_golden.py              # regenerate tests/golden/
    python tests/make_golden.py --out DIR    # write a fresh set to DIR

Each config in ``configs/``, ``perfbench/resnet_bn_32px.cfg`` (the one
batch-norm config), and ``configs/capacity.cfg`` once more for each base
no shipped config trains (PReLU, leaky ReLU, SELU, the last two with a
keyword argument), runs as ``ngnet sweep --override epochs=2`` plus its
own overrides into its own subdirectory, with BLAS pinned to one thread.
``grad_check/<base>-s<seed>.txt`` holds what ``ngnet grad-check --config
configs/capacity.cfg --seed <seed> --override activation.base=<base>``
prints, with its exit code as the last line: ReLU at seeds 3, 7 and 977,
every other base at seed 7.  ``stamp.json`` records the environment that
wrote them: NumPy version, the BLAS library with the kernel it picked for
this CPU, and the cores the process may use.  ``tests/test_golden.py``
reruns this script and compares its output with the committed set;
regenerating that set is the one way to accept a change in what the
configs write.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS thread, as perfbench runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CAPACITY = ROOT / "configs" / "capacity.cfg"
# output subdirectory -> (config file, overrides besides the epochs)
CONFIGS = {name: (ROOT / "configs" / f"{name}.cfg", ())
           for name in ("capacity", "critical_depth", "learning_behavior",
                        "variance_study")}
CONFIGS["resnet_bn_32px"] = (ROOT / "perfbench" / "resnet_bn_32px.cfg", ())
CONFIGS["capacity_prelu"] = (CAPACITY, ("activation.base=prelu",))
CONFIGS["capacity_lrelu"] = (CAPACITY, ("activation.base=lrelu",
                                        "activation.base_kwargs.alpha=0.2"))
CONFIGS["capacity_selu"] = (CAPACITY, ("activation.base=selu",
                                       "activation.base_kwargs.lam=1.1"))
EPOCHS = 2
# (base, seed) of each grad-check report, on configs/capacity.cfg
GRAD_CHECKS = [("relu", 3), ("relu", 7), ("relu", 977)] + [
    (base, 7) for base in ("identity", "lrelu", "prelu", "selu")]


def _blas():
    """The loaded OpenBLAS's own config string, which names the kernel a
    DYNAMIC_ARCH build chose at run time; else the build's name and
    version."""
    import ctypes
    import glob

    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                    "openblas_get_config"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return " ".join(fn().decode().split())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def stamp():
    import numpy as np
    return {"numpy": np.__version__, "blas": _blas(),
            "nproc": len(os.sched_getaffinity(0))}


def write(out: Path):
    """Run every config into out/<config>/, every grad check into
    out/grad_check/, and write out/stamp.json."""
    sys.path.insert(0, str(ROOT / "src"))
    from ngnet.cli import main as cli_main

    out.mkdir(parents=True, exist_ok=True)
    for name, (config, overrides) in CONFIGS.items():
        run_dir = out / name
        if run_dir.exists():
            shutil.rmtree(run_dir)
        argv = ["sweep", "--config", str(config), "--out", str(run_dir)]
        for override in (f"epochs={EPOCHS}",) + overrides:
            argv += ["--override", override]
        code = cli_main(argv)
        if code:
            raise SystemExit(f"{name}: ngnet exited {code}")
    checks = out / "grad_check"
    if checks.exists():
        shutil.rmtree(checks)
    checks.mkdir()
    for base, seed in GRAD_CHECKS:
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli_main(["grad-check", "--config", str(CAPACITY),
                             "--seed", str(seed),
                             "--override", f"activation.base={base}"])
        (checks / f"{base}-s{seed}.txt").write_text(
            f"{report.getvalue()}{code}\n")
    (out / "stamp.json").write_text(json.dumps(stamp(), indent=1) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN)
    write(parser.parse_args().out)
