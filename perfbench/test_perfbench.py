"""Tests of the benchmark itself: measuring must not change a run.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hooks  # noqa: E402
import workloads as wl  # noqa: E402

wl.use_checkout_sources()


def _run(w, traced, out_dir):
    rec = hooks.Recorder(trace=traced)
    with hooks.Hooks(rec, w.step_kind):
        unit = w.unit(wl.DEFAULT_SEED, out_dir, rec.losses)
    files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
    return rec, unit, files


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_unit_is_bitwise_identical(name, tmp_path):
    w = wl.WORKLOADS[name]
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    rec0, unit0, files0 = _run(w, False, tmp_path / "plain")
    rec1, unit1, files1 = _run(w, True, tmp_path / "traced")
    assert all(ok for ok, _ in unit0.ops.values())
    assert files0 == files1
    assert rec0.losses == rec1.losses and rec0.losses
    assert unit0.digest == unit1.digest
    assert len(rec0.step_ms) == len(rec1.step_ms) > 0
    assert sum(calls for calls, _, _ in rec0.agg.values()) == 0
    assert rec1.agg["tensor.conv2d_forward"][0] > 0


def test_hooks_are_removed_after_a_unit():
    import importlib
    sites = [(m, a) for m, a, _ in hooks.SITES]
    before = {s: getattr(importlib.import_module(s[0]), s[1]) for s in sites}
    with hooks.Hooks(hooks.Recorder(trace=True), "train"):
        assert all(getattr(importlib.import_module(m), a) is not before[(m, a)]
                   for m, a in sites)
    assert all(getattr(importlib.import_module(m), a) is before[(m, a)]
               for m, a in sites)


def test_self_time_excludes_children():
    import time
    rec = hooks.Recorder(trace=True)

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = rec.span_wrapper("tensor.maxpool2", leaf)

    def outer():
        wrapped_leaf()
        wrapped_leaf()
        time.sleep(0.01)

    rec.span_wrapper("network.backward", outer)()
    calls, total, self_s = rec.agg["network.backward"]
    leaf_calls, leaf_total, _ = rec.agg["tensor.maxpool2"]
    assert (calls, leaf_calls) == (1, 2)
    assert self_s == pytest.approx(total - leaf_total)
    assert 0.005 < self_s < 0.02


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload",
                                             spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_refuses_different_blas_threads(tmp_path):
    import compare
    paths = []
    for threads in (1, 2):
        p = tmp_path / f"r{threads}.json"
        p.write_text(json.dumps({"workload": "w", "seconds": 30,
                                 "env": {"blas_threads": threads},
                                 "end_to_end": {"run_s": 1.0},
                                 "per_layer": {}}))
        paths.append(str(p))
    assert compare.main(["--base", paths[0], "--new", paths[1]]) == 2
    assert compare.main(["--base", paths[0], "--new", paths[0]]) == 0
