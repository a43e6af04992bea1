"""Set one workload up in a fresh interpreter, then print ``ready``.

run.py starts this several times per run and times each from process start
to the ``ready`` line: that is the set-up a user pays before the first step
(interpreter, imports, config, dataset, model, parameter init).

    python3 perfbench/setup_once.py <workload> <seed>
"""

import sys

import workloads as wl

wl.use_checkout_sources()
wl.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print("ready", flush=True)
