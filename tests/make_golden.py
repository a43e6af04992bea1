"""Golden outputs: the CSVs of the shipped configs at two epochs.

    python tests/make_golden.py              # regenerate tests/golden/
    python tests/make_golden.py --out DIR    # write a fresh set to DIR

Each config in ``configs/`` runs as ``ngnet sweep --override epochs=2``
into its own subdirectory, with BLAS pinned to one thread, and
``stamp.json`` records the environment that wrote them: NumPy version,
the BLAS library with the kernel it picked for this CPU, and the cores
the process may use.  ``tests/test_golden.py`` reruns this script and
compares its output with the committed set; regenerating that set is
the one way to accept a change in what the configs write.

``perfbench/resnet_bn_32px.cfg`` is left out: its ``layerstats.csv``
``mean_g`` holds rounding noise for every conv that feeds batch norm.
"""

from __future__ import annotations

import os

# Before numpy is imported: one BLAS thread, as perfbench runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ("capacity", "critical_depth", "learning_behavior", "variance_study")
EPOCHS = 2


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
    """Run every config into out/<config>/ and write out/stamp.json."""
    sys.path.insert(0, str(ROOT / "src"))
    from ngnet.cli import main as cli_main

    out.mkdir(parents=True, exist_ok=True)
    for name in CONFIGS:
        run_dir = out / name
        if run_dir.exists():
            shutil.rmtree(run_dir)
        code = cli_main(["sweep", "--config", str(ROOT / "configs" / f"{name}.cfg"),
                         "--override", f"epochs={EPOCHS}", "--out", str(run_dir)])
        if code:
            raise SystemExit(f"{name}: ngnet exited {code}")
    (out / "stamp.json").write_text(json.dumps(stamp(), indent=1) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN)
    write(parser.parse_args().out)
