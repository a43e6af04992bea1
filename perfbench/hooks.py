"""Import-site hooks: per-step timestamps always, nested layer spans on demand.

ngnet modules bind kernels by name (``from .tensor import conv2d_forward``),
so a hook has to replace the name in the module that calls it, not in the
module that defines it.  ``SITES`` lists every such binding the workloads
reach.  Hooks are installed around one workload unit and removed after it,
so an untraced unit runs the original functions apart from the two step
timestamps.

A span's self time is its duration minus the time covered by its direct
children; summing self times over all spans therefore gives the time spent
inside any hooked function, with nothing counted twice.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module that calls the function, attribute name, span name)
SITES = [
    ("ngnet.network", "conv2d_forward", "tensor.conv2d_forward"),
    ("ngnet.network", "conv2d_backward", "tensor.conv2d_backward"),
    ("ngnet.network", "maxpool2_forward", "tensor.maxpool2"),
    ("ngnet.network", "maxpool2_backward", "tensor.maxpool2"),
    ("ngnet.network", "global_avg_pool_forward", "tensor.global_avg_pool"),
    ("ngnet.network", "global_avg_pool_backward", "tensor.global_avg_pool"),
    ("ngnet.network", "ng_forward", "activations.ng_forward"),
    ("ngnet.network", "ng_backward_input", "activations.ng_backward_input"),
    ("ngnet.network", "ng_grad_t", "activations.ng_grad_t"),
    ("ngnet.network", "prelu_grad_a", "activations.prelu_grad_a"),
    # batch norm has no public kernel; its two helpers are looked up as
    # module globals of ngnet.network, so they can be hooked there too
    ("ngnet.network", "_bn_forward", "network.batchnorm"),
    ("ngnet.network", "_bn_backward", "network.batchnorm"),
    ("ngnet.network", "init_params", "network.init_params"),
    ("ngnet.runner", "forward", "network.forward"),
    ("ngnet.runner", "backward", "network.backward"),
    ("ngnet.runner", "init_params", "network.init_params"),
    ("ngnet.runner", "sgd_step", "optim.sgd_step"),
    ("ngnet.runner", "augment", "datasets.augment"),
    ("ngnet.runner", "make_blobs", "datasets.make"),
    ("ngnet.runner", "make_spirals", "datasets.make"),
    ("ngnet.runner", "train_run", "runner.train_run"),
    ("ngnet.runner", "emit_csv", "csvio.emit_csv"),
    ("ngnet.instrumentation", "forward", "network.forward"),
    ("ngnet.instrumentation", "backward", "network.backward"),
    ("ngnet.instrumentation", "mean_shift_trace",
     "instrumentation.mean_shift_trace"),
    ("ngnet.instrumentation", "grad_check", "instrumentation.grad_check"),
    ("ngnet.config", "load_config", "config.load"),
    ("ngnet.config", "build_experiment_config", "config.load"),
]

SPAN_NAMES = sorted({name for _, _, name in SITES} | {"network.forward_eval"})


def _conv_fwd_flop(x_shape, k_shape, stride):
    """Multiply-adds of one 3x3 pad-1 convolution, counted as 2 flops."""
    b = x_shape[0] if len(x_shape) == 4 else 1
    h, w = x_shape[-2:]
    h_out, w_out = (h - 1) // stride + 1, (w - 1) // stride + 1
    c_out, c_in = k_shape[:2]
    return 2 * b * c_out * c_in * 9 * h_out * w_out


def _arg(args, kwargs, pos, name, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# attribute -> flop count of one call, from its argument shapes
FLOP_OF = {
    "conv2d_forward": lambda a, k: _conv_fwd_flop(
        a[0].shape, a[1].shape, _arg(a, k, 2, "stride", 1)),
    # the kernel gradient and the input gradient each cost one forward
    "conv2d_backward": lambda a, k: 2 * _conv_fwd_flop(
        a[1].shape, a[2].shape, _arg(a, k, 3, "stride", 1)),
}


class Recorder:
    """What one workload unit recorded: step times, losses, span totals.

    ``items`` counts the work the steps did: training samples for a
    training step, one per finite-difference loss evaluation.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.step_ms: list = []
        self.items = 0
        self.losses: list = []
        self.flop = 0
        # name -> [calls, total_s, self_s]
        self.agg: dict = {n: [0, 0.0, 0.0] for n in SPAN_NAMES}
        self._stack: list = []
        self._step_t0 = None
        self._step_items = 0

    def span_wrapper(self, name, fn, flop_of=None):
        agg, stack = self.agg, self._stack

        def wrapper(*args, **kwargs):
            span = name
            if name == "network.forward" and \
                    _arg(args, kwargs, 4, "mode", "train") == "eval":
                span = "network.forward_eval"
            if flop_of is not None:
                self.flop += flop_of(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                d = t1 - t0
                a = agg[span]
                a[0] += 1
                a[1] += d
                a[2] += d - child
                if stack:
                    stack[-1] += d
        return wrapper

    # step hooks -----------------------------------------------------------

    def train_forward_hook(self, fn):
        """Marks the start of a training step and keeps its loss."""
        def wrapper(*args, **kwargs):
            train = _arg(args, kwargs, 4, "mode", "train") == "train"
            if train:
                self._step_t0 = perf_counter()
                self._step_items = len(args[2])
            out = fn(*args, **kwargs)
            if train:
                self.losses.append(out[1])
            return out
        return wrapper

    def sgd_step_hook(self, fn):
        """Marks the end of a training step (forward + backward + update)."""
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.step_ms.append((perf_counter() - self._step_t0) * 1e3)
            self.items += self._step_items
            return out
        return wrapper

    def loss_eval_hook(self, fn):
        """Times one whole forward as a step: a finite-difference evaluation."""
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.step_ms.append((perf_counter() - t0) * 1e3)
            self.items += 1
            self.losses.append(out[1])
            return out
        return wrapper


# step kind -> [(module, attribute, hook method)]
STEP_SITES = {
    "train": [("ngnet.runner", "forward", "train_forward_hook"),
              ("ngnet.runner", "sgd_step", "sgd_step_hook")],
    "loss_eval": [("ngnet.instrumentation", "forward", "loss_eval_hook")],
}


class Hooks:
    """Context manager installing a Recorder's hooks for one unit."""

    def __init__(self, rec: Recorder, step_kind: str):
        self.rec = rec
        self.step_kind = step_kind
        self._saved: list = []

    def _replace(self, mod_name, attr, make):
        mod = importlib.import_module(mod_name)
        orig = getattr(mod, attr)
        self._saved.append((mod, attr, orig))
        setattr(mod, attr, make(orig))

    def __enter__(self):
        for mod_name, attr, hook in STEP_SITES[self.step_kind]:
            self._replace(mod_name, attr, getattr(self.rec, hook))
        if self.rec.trace:
            for mod_name, attr, name in SITES:
                self._replace(mod_name, attr,
                              lambda fn, name=name, attr=attr:
                              self.rec.span_wrapper(name, fn,
                                                    FLOP_OF.get(attr)))
        return self.rec

    def __exit__(self, *exc):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False
