"""ngnet benchmark: one workload, one client in a closed loop, BLAS pinned
to one thread.

    python3 perfbench/run.py --workload critical_depth_sweep --seed 7 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, traced

A run sets the workload up several times in fresh interpreters (setup_s),
runs one warm-up unit, then repeats units until --seconds have passed.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates traced and untraced units and reports the
per-layer metrics.  Every unit's outputs are checked; the last line of
standard output is one JSON object, and the full result, stamped with the
environment, goes to .perfbench_out/results/.  Exit code 0 only if every
check passed.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread for this process and
# for the setup interpreters it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads as wl  # noqa: E402
from hooks import Hooks, Recorder  # noqa: E402

OUT_DIR = wl.ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# Stop starting units after this long even if the minimum counts are not
# reached, so a run always ends well within its 180 s limit.
HARD_STOP_S = 140.0

# Metrics the report prints beyond BENCHMARK.json's lists, by workload kind.
STEP_NAMES = {"train": ("train_samples_per_s", "training step"),
              "loss_eval": ("fd_evals_per_s", "finite-difference loss eval")}


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def percentile(xs, q):
    if not xs:
        return float("nan")
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    import glob

    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_sizes():
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True,
                             text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL2_CACHE_SIZE",
                                            "LEVEL3_CACHE_SIZE"):
            sizes[parts[0]] = int(parts[1])
    return sizes.get("LEVEL2_CACHE_SIZE"), sizes.get("LEVEL3_CACHE_SIZE")


def _source_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest():
    import hashlib
    h = hashlib.sha256()
    for p in sorted((wl.ROOT / "src" / "ngnet").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def environment(load_1m):
    import platform

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    l2, l3 = _cache_sizes()
    return {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
            "blas": blas, "blas_threads": _blas_threads(),
            "python": platform.python_version(), "git_rev": _source_rev(),
            "src_sha256_16": _source_digest(), "l2_bytes": l2, "l3_bytes": l3,
            "loadavg_1m_at_start": load_1m}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(w, seed):
    """Wall time from starting a fresh interpreter until the workload is
    ready for its first step, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable,
                               str(wl.BENCH_DIR / "setup_once.py"),
                               w.name, str(seed)],
                              cwd=wl.ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup of {w.name} failed (exit {code})")
        times.append(t)
    return times


def run_unit(w, seed, traced, index):
    work = OUT_DIR / "work" / f"{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rec = Recorder(trace=traced)
    try:
        with Hooks(rec, w.step_kind):
            t0 = perf_counter()
            result = w.run(seed, work)
            wall = perf_counter() - t0
        unit = w.check(work, result, rec.losses)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"traced": traced, "wall_s": wall, "rec": rec, "unit": unit}


# Spans whose inclusive time is reported as well as their self time.
INCLUSIVE = ("config.load", "datasets.make", "network.init_params",
             "csvio.emit_csv", "instrumentation.mean_shift_trace",
             "instrumentation.grad_check", "runner.train_run")


# Spans of the leaf compute kernels, which call no hooked function.
KERNEL_PREFIXES = ("tensor.", "activations.", "network.batchnorm")


def layer_metrics(unit_run):
    """Per-layer metrics of one traced unit."""
    rec = unit_run["rec"]
    agg = dict(rec.agg)
    fwd, ev = agg.pop("network.forward"), agg.pop("network.forward_eval")
    agg["network.forward"] = [fwd[0] + ev[0], fwd[1] + ev[1], fwd[2] + ev[2]]
    m = {"network.forward.eval_ms": ev[1] * 1e3}
    for name, (calls, total, self_s) in agg.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_ms"] = self_s * 1e3
        if name in INCLUSIVE:
            m[f"{name}.ms"] = total * 1e3
    conv_s = agg["tensor.conv2d_forward"][2] + agg["tensor.conv2d_backward"][2]
    m["tensor.conv2d.gflop"] = rec.flop / 1e9
    m["tensor.conv2d.gflops_per_s"] = rec.flop / 1e9 / conv_s
    wall = unit_run["wall_s"]
    # The outermost spans take all unhooked time inside them as self time,
    # so coverage stays near 1 even if work moves out of the hooked
    # kernels; the kernels' own share of the wall time shows that.
    m["trace.coverage"] = sum(a[2] for a in agg.values()) / wall
    m["trace.kernel_share"] = sum(a[2] for n, a in agg.items()
                                  if n.startswith(KERNEL_PREFIXES)) / wall
    return m


def summarize(setup_times, runs):
    timed = runs[1:]     # runs[0] is the warm-up unit
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    step_ms = [t for r in plain for t in r["rec"].step_ms]
    items = sum(r["rec"].items for r in plain)
    wall = sum(r["wall_s"] for r in plain)
    e2e = {
        "setup_s": median(setup_times),
        "run_s": median([r["wall_s"] for r in plain]),
        "items_per_s": items / wall if wall else float("nan"),
        "step_ms_p50": percentile(step_ms, 0.5),
        "step_ms_p90": percentile(step_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    per_layer = {}
    if traced:
        per_unit = [layer_metrics(r) for r in traced]
        per_layer = {k: median([m[k] for m in per_unit]) for k in per_unit[0]}
        per_layer["trace.overhead_frac"] = \
            median([r["wall_s"] for r in traced]) / e2e["run_s"] - 1.0
    counts = {"setup_s": len(setup_times), "run_s": len(plain),
              "step_ms": len(step_ms), "traced_units": len(traced)}
    return e2e, per_layer, counts


def check_units(w, seed, runs):
    """Count checked operations and failures over every unit of the run."""
    refs = {}
    ref_path = wl.BENCH_DIR / "reference.json"
    if ref_path.is_file():
        refs = json.loads(ref_path.read_text())
    ref = refs.get(w.name, {}).get(str(seed))
    first = runs[0]["unit"].digest
    attempted = failed = 0
    problems = []
    for i, r in enumerate(runs):
        unit = r["unit"]
        for op_id, (ok, detail) in unit.ops.items():
            why = None
            if not ok:
                why = f"check failed: {detail}"
            elif unit.digest != first:
                why = ("traced " if r["traced"] else "") + \
                    "output differs from the first unit's"
            elif ref is not None and not w.matches_reference(op_id, detail,
                                                             ref):
                why = f"differs from reference: {detail} vs {ref.get(op_id)}"
            attempted += 1
            if why:
                failed += 1
                problems.append(f"unit {i} {op_id}: {why}")
    return attempted, failed, problems, ref is not None


def report_lines(w, seed, e2e, per_layer, counts, runs, attempted, failed,
                 has_ref, env, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    lines = [f"workload {w.name} seed {seed} (held-out seed "
             f"{wl.HELD_OUT_SEED}); env {json.dumps(env)}"]
    n = {"setup_s": counts["setup_s"], "run_s": counts["run_s"],
         "step_ms_p50": counts["step_ms"], "step_ms_p90": counts["step_ms"]}
    for k, v in e2e.items():
        lines.append(f"  {k:40s} {v:14.6g} {units.get(k, ''):8s}"
                     + (f" n={n[k]}" if k in n else ""))
    alias, step_what = STEP_NAMES[w.step_kind]
    lines.append(f"  {alias:40s} {e2e['items_per_s']:14.6g} 1/s      "
                 f"(= items_per_s; a step is one {step_what})")
    lines.append(f"  {'failed_frac':40s} {failed / attempted:14.6g} "
                 f"fraction  base={attempted} checked operations; "
                 f"reference {'found' if has_ref else 'absent'} for seed")
    summary = runs[0]["unit"].summary
    if w.step_kind == "train":
        finals = [v[0] for v in summary.values() if not v[1]]
        lines.append(f"  {'final_train_loss':40s} "
                     f"{median(finals):14.6g} nats     median over "
                     f"{len(finals)} non-diverged of {len(summary)} runs")
    else:
        lines.append(f"  {'grad_max_rel_err':40s} "
                     f"{summary.get('max_rel_err', float('nan')):14.6g} "
                     f"ratio    passed={summary.get('passed')} "
                     f"checked={summary.get('checked')}")
    for k in sorted(per_layer):
        unit = units.get(k) or ("count" if k.endswith(".calls") else "ms")
        lines.append(f"  {k:40s} {per_layer[k]:14.6g} {unit}")
    return lines


def run_one(args, spec):
    w = wl.WORKLOADS[args.workload]
    load_1m = os.getloadavg()[0]
    start = perf_counter()
    env = environment(load_1m)
    setup_times = measure_setup(w, args.seed)
    runs = []
    deadline = None
    error = None
    while True:
        i = len(runs)
        traced = bool(args.trace) and i % 2 == 1
        try:
            runs.append(run_unit(w, args.seed, traced, i))
        except Exception:  # the program crashed: report, do not retry
            error = traceback.format_exc()
            break
        if deadline is None:                   # warm-up unit done
            deadline = perf_counter() + args.seconds
            continue
        timed = runs[1:]
        enough = sum(not r["traced"] for r in timed) >= 2 and \
            (not args.trace or sum(r["traced"] for r in timed) >= 1)
        now = perf_counter()
        if (now >= deadline and enough) or now - start > HARD_STOP_S:
            break

    if error is not None:
        # the crashed unit counts as one more attempted and failed operation
        print(error, file=sys.stderr)
        attempted, failed = check_units(w, args.seed, runs)[:2] if runs \
            else (0, 0)
        print(json.dumps({"correct": False, "attempted": attempted + 1,
                          "failed": failed + 1, "metrics": {}}))
        return 1

    e2e, per_layer, counts = summarize(setup_times, runs)
    attempted, failed, problems, has_ref = check_units(w, args.seed, runs)
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    for line in report_lines(w, args.seed, e2e, per_layer, counts, runs,
                             attempted, failed, has_ref, env, spec):
        print(line)

    section = "per_layer" if args.trace else "end_to_end"
    values = {**e2e, **per_layer}
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in spec[section]}
    correct = failed == 0
    result = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "counts": counts,
              "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems, "end_to_end": e2e, "per_layer": per_layer,
              "unit_wall_s": [[r["traced"], r["wall_s"]] for r in runs],
              "outputs": runs[0]["unit"].summary}
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT_DIR / "results" / \
        f"{w.name}-s{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1, default=str))
    print(f"result written to {path.relative_to(wl.ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload, each in its own process with tracing on, so the
    report holds both the untraced end-to-end and the per-layer metrics."""
    code = 0
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "1"]
        proc = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = wl.missing_sources()
    spec_path = wl.ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        missing.append("BENCHMARK.json")
    if missing:
        print(f"error: not an ngnet checkout, missing {missing}",
              file=sys.stderr)
        return 2
    wl.use_checkout_sources()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
