"""Update-rule exactness."""

import numpy as np
import pytest

from ngnet.errors import DivergenceError
from ngnet.network import (Activation, ActivationSpec, InitScheme,
                           NetworkSpec, backward, build_plain_cnn, forward,
                           init_params)
from ngnet.optim import OptimConfig, sgd_step


def one_layer(w):
    return {0: {"W": np.asarray(w, dtype=float)}}


class TestSgdStep:
    def test_vanilla(self):
        cfg = OptimConfig(lr=0.5, momentum=0.0, weight_decay=0.0)
        params = one_layer([1.0])
        vel = {}
        sgd_step(params, one_layer([2.0]), vel, cfg)
        assert params[0]["W"][0] == 1.0 - 0.5 * 2.0

    def test_fixed_point(self):
        cfg = OptimConfig(lr=0.5, momentum=0.9, weight_decay=0.0)
        params = one_layer([1.0])
        vel = {}
        sgd_step(params, one_layer([0.0]), vel, cfg)
        assert params[0]["W"][0] == 1.0

    def test_momentum_unroll(self):
        # two steps, momentum 0.9, constant grad g, lr 1: total dW = g + 1.9 g
        cfg = OptimConfig(lr=1.0, momentum=0.9, weight_decay=0.0)
        params = one_layer([0.0])
        vel = {}
        g = 0.3
        sgd_step(params, one_layer([g]), vel, cfg)
        sgd_step(params, one_layer([g]), vel, cfg)
        assert np.isclose(params[0]["W"][0], -(g + 1.9 * g))

    def test_weight_decay_applies_to_weights(self):
        cfg = OptimConfig(lr=1.0, momentum=0.0, weight_decay=0.1)
        params = one_layer([2.0])
        vel = {}
        sgd_step(params, one_layer([0.0]), vel, cfg)
        assert np.isclose(params[0]["W"][0], 2.0 - 0.1 * 2.0)

    def test_no_decay_on_bias(self):
        cfg = OptimConfig(lr=1.0, momentum=0.0, weight_decay=0.1)
        params = {0: {"b": np.array([2.0])}}
        vel = {}
        sgd_step(params, {0: {"b": np.array([0.0])}}, vel, cfg)
        assert params[0]["b"][0] == 2.0

    def test_heavy_ball_closed_form(self):
        # quadratic loss L = 0.5 w^2: iterates must match the recurrence
        cfg = OptimConfig(lr=0.1, momentum=0.5, weight_decay=0.0)
        params = one_layer([1.0])
        vel = {}
        w, v = 1.0, 0.0
        for _ in range(10):
            g = params[0]["W"][0]
            sgd_step(params, one_layer([g]), vel, cfg)
            v = 0.5 * v + w
            w = w - 0.1 * v
            assert np.isclose(params[0]["W"][0], w, atol=1e-15)

    def test_nonfinite_grads_leave_params_untouched(self):
        cfg = OptimConfig(lr=0.1)
        params = one_layer([1.0])
        vel = {}
        with pytest.raises(DivergenceError):
            sgd_step(params, one_layer([np.nan]), vel, cfg)
        assert params[0]["W"][0] == 1.0

    def test_nonfinite_grad_names_layer_and_key(self):
        cfg = OptimConfig(lr=0.1)
        params = {0: {"W": np.ones(2)}, 3: {"W": np.ones(2), "b": np.ones(2)}}
        grads = {0: {"W": np.zeros(2)},
                 3: {"W": np.zeros(2), "b": np.array([0.0, np.nan])}}
        with pytest.raises(DivergenceError, match=r"layer 3 'b'"):
            sgd_step(params, grads, {}, cfg)
        assert all((w == 1.0).all() for p in params.values() for w in p.values())

    def test_velocities_are_the_gradients(self):
        """One step of a batch-norm plain CNN with a fixed shift makes a
        velocity for each gradient backward returns and for nothing else:
        none for the running statistics or for t."""
        act = ActivationSpec(ng=True, trainable=False, t_init=-0.5)
        spec = build_plain_cnn(5, 2, 3, True, act, input_hw=8, in_channels=1)
        params = init_params(spec, InitScheme("msra", 0))
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((4, 1, 8, 8)), rng.integers(0, 3, 4)
        _, _, cache = forward(spec, params, x, y)
        grads = backward(spec, params, cache)
        vel = {}
        sgd_step(params, grads, vel, OptimConfig(lr=0.1))
        held = {k for p in params.values() for k in p}
        assert {"t", "running_mean", "running_var"} <= held
        assert set(vel) == {(i, k) for i, g in grads.items() for k in g}
        assert {k for _, k in vel} == {"W", "b", "gamma", "beta"}


class TestTStep:
    """The shift rule of sgd_step, on one layer-wide shift."""

    @staticmethod
    def _net(t=-1.0):
        params = {0: {"t": np.array([t])}}
        return params, {}

    @staticmethod
    def _step(params, vel, g, cfg):
        sgd_step(params, {0: {"t": np.array([g])}}, vel, cfg)

    def test_substitution(self):
        params, vel = self._net()
        cfg = OptimConfig(lr=0.01, momentum=0.9, t_lr=0.01, t_momentum=0.9)
        self._step(params, vel, 1.0, cfg)
        assert np.isclose(vel[0, "t"][0], 0.01)
        assert np.isclose(params[0]["t"][0], -1.01)

    def test_geometric_decay(self):
        params, vel = self._net()
        cfg = OptimConfig(lr=0.01, t_momentum=0.9)
        self._step(params, vel, 1.0, cfg)
        v0 = vel[0, "t"][0]
        for _ in range(3):
            self._step(params, vel, 0.0, cfg)
        assert np.isclose(vel[0, "t"][0], v0 * 0.9 ** 3)

    def test_matches_sgd_recurrence(self):
        # same recurrence as the weight rule at constant lr, no decay
        params, vel = self._net(0.0)
        cfg = OptimConfig(lr=0.05, momentum=0.7, weight_decay=0.0)
        w_params = one_layer([0.0])
        w_vel = {}
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = rng.standard_normal()
            self._step(params, vel, g, cfg)
            sgd_step(w_params, one_layer([g]), w_vel, cfg)
            assert np.isclose(params[0]["t"][0], w_params[0]["W"][0],
                              atol=1e-15)

    def test_no_decay_on_t(self):
        params, vel = self._net(-2.0)
        cfg = OptimConfig(lr=0.1, weight_decay=0.5)
        for _ in range(5):
            self._step(params, vel, 0.0, cfg)
        assert params[0]["t"][0] == -2.0  # bitwise constant under zero gradient

    def test_non_trainable_untouched(self):
        """Through backward and sgd_step, as training runs: a shift that
        does not train gets no gradient, so it does not move and has no
        velocity."""
        act = ActivationSpec(ng=True, trainable=False, granularity="layer")
        spec = NetworkSpec([Activation(act)], (2,))
        params = {0: {"t": np.array([-1.0])}}
        vel = {}
        x = np.array([[-3.0, 3.0], [-2.0, 2.0], [0.5, -0.5]])  # some below t
        _, _, cache = forward(spec, params, x, [0, 1, 0])
        sgd_step(params, backward(spec, params, cache), vel,
                 OptimConfig(lr=0.1))
        assert params[0]["t"][0] == -1.0 and (0, "t") not in vel


class TestConfigValidation:
    def test_bad_lr(self):
        with pytest.raises(ValueError):
            OptimConfig(lr=0.0)

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            OptimConfig(lr=0.1, momentum=1.0)

    def test_t_defaults_follow_lr(self):
        cfg = OptimConfig(lr=0.3, momentum=0.8)
        assert cfg.t_lr == 0.3 and cfg.t_momentum == 0.8
