"""Shifted-activation training engine and experiment harness.

The central primitive wraps a base activation f as x -> f(x - t) + t with a
trainable shift t: low t keeps the network linear and easy to optimize,
and t rising during training grows the effective nonlinearity.
"""

from .activations import (make_base, ng_backward_input, ng_forward, ng_grad_t,
                          prelu_grad_a)
from .network import (ActivationSpec, InitScheme, NetworkSpec, backward,
                      build_mlp, build_plain_cnn, build_resnet, build_toy_cnn,
                      fold_running_stats, forward, init_params)
from .optim import OptimConfig, sgd_step
from .instrumentation import grad_check, variance_bounds, weight_variance_trace

__all__ = [
    "make_base", "ng_forward", "ng_backward_input", "ng_grad_t",
    "prelu_grad_a",
    "ActivationSpec", "InitScheme", "NetworkSpec", "forward", "backward",
    "build_mlp", "build_plain_cnn", "build_resnet", "build_toy_cnn",
    "init_params", "fold_running_stats",
    "OptimConfig", "sgd_step",
    "grad_check", "variance_bounds", "weight_variance_trace",
]

__version__ = "0.1.0"
