"""Compare two sets of benchmark results metric by metric.

    python3 perfbench/compare.py --base .perfbench_out/results/A*.json \\
                                 --new .perfbench_out/results/B*.json

Each side is one or more result files written by run.py for the same
workload and run length.  For every metric it prints each side's median and
quartiles, and the change of the medians relative to the base.  It refuses
(exit 2) to compare results measured with different BLAS thread counts,
workloads or run lengths: their timings are not comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def quartiles(xs):
    return (xs[0],) * 3 if len(xs) < 2 else statistics.quantiles(xs, n=4)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base, new = load(args.base), load(args.new)
    results = base + new
    for key, get in (("BLAS thread counts", lambda r: r["env"]["blas_threads"]),
                     ("workloads", lambda r: r["workload"]),
                     ("run lengths", lambda r: r["seconds"])):
        seen = {get(r) for r in results}
        if len(seen) > 1:
            print(f"refusing to compare: {key} differ: {sorted(map(str, seen))}",
                  file=sys.stderr)
            return 2
    print(f"workload {results[0]['workload']}: base {len(base)} runs, "
          f"new {len(new)} runs")
    for section in ("end_to_end", "per_layer"):
        names = sorted(set().union(*(r[section] for r in results)))
        for name in names:
            b = [r[section][name] for r in base if name in r[section]]
            n = [r[section][name] for r in new if name in r[section]]
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            print(f"  {name:40s} base {bq[1]:12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"  new {nq[1]:12.6g} [{nq[0]:.6g}, {nq[2]:.6g}]"
                  f"  {change:+.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
