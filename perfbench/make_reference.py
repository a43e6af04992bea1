"""Record the reference outputs run.py checks against.

    python3 perfbench/make_reference.py

For each workload, seeds 0..N-1 (N is the workload's ``reference_seeds``)
and the held-out seed, it runs one unit and stores what the check
compares: the final training loss and divergence flag of every training
run; grad_check's verdict and its checked and kink-excluded counts.  Run it only on a
commit whose outputs are known good (it was run on the commit that added
the benchmark); a later change that alters training must show up as a
reference mismatch, not be absorbed by regenerating this file.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads as wl  # noqa: E402


def reference_for(name, seed):
    wl.use_checkout_sources()
    w = wl.WORKLOADS[name]
    work = wl.ROOT / ".perfbench_out" / "reference" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        unit = w.unit(seed, work, [])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = {k: d for k, (ok, d) in unit.ops.items() if not ok}
    if bad:
        raise RuntimeError(f"{name} seed {seed}: failed checks {bad}")
    return name, seed, w.reference_of(unit)


def main():
    jobs = [(name, s) for name, w in wl.WORKLOADS.items()
            for s in sorted(set(range(w.reference_seeds))
                            | {wl.HELD_OUT_SEED})]
    refs = {name: {} for name in wl.WORKLOADS}
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(len(os.sched_getaffinity(0)),
                             mp_context=ctx) as pool:
        futures = [pool.submit(reference_for, *job) for job in jobs]
        for fut in futures:
            name, seed, ref = fut.result()
            refs[name][str(seed)] = ref
    out = wl.BENCH_DIR / "reference.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(wl.ROOT)}: {len(jobs)} units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
