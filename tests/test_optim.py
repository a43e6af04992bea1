"""Update-rule exactness and schedule behavior."""

import numpy as np
import pytest

from ngnet.errors import DivergenceError
from ngnet.network import Activation, ActivationSpec, NetworkSpec
from ngnet.optim import (OptimConfig, PlateauSchedule, ScheduleState,
                         StepSchedule, schedule_lr, sgd_step, zero_velocities)


def one_layer(w):
    return {0: {"W": np.asarray(w, dtype=float)}}


class TestSgdStep:
    def test_vanilla(self):
        cfg = OptimConfig(lr=0.5, momentum=0.0, weight_decay=0.0)
        params = one_layer([1.0])
        vel = zero_velocities(params)
        sgd_step(params, one_layer([2.0]), vel, cfg)
        assert params[0]["W"][0] == 1.0 - 0.5 * 2.0

    def test_fixed_point(self):
        cfg = OptimConfig(lr=0.5, momentum=0.9, weight_decay=0.0)
        params = one_layer([1.0])
        vel = zero_velocities(params)
        sgd_step(params, one_layer([0.0]), vel, cfg)
        assert params[0]["W"][0] == 1.0

    def test_momentum_unroll(self):
        # two steps, momentum 0.9, constant grad g, lr 1: total dW = g + 1.9 g
        cfg = OptimConfig(lr=1.0, momentum=0.9, weight_decay=0.0)
        params = one_layer([0.0])
        vel = zero_velocities(params)
        g = 0.3
        sgd_step(params, one_layer([g]), vel, cfg)
        sgd_step(params, one_layer([g]), vel, cfg)
        assert np.isclose(params[0]["W"][0], -(g + 1.9 * g))

    def test_weight_decay_applies_to_weights(self):
        cfg = OptimConfig(lr=1.0, momentum=0.0, weight_decay=0.1)
        params = one_layer([2.0])
        vel = zero_velocities(params)
        sgd_step(params, one_layer([0.0]), vel, cfg)
        assert np.isclose(params[0]["W"][0], 2.0 - 0.1 * 2.0)

    def test_no_decay_on_bias(self):
        cfg = OptimConfig(lr=1.0, momentum=0.0, weight_decay=0.1)
        params = {0: {"b": np.array([2.0])}}
        vel = zero_velocities(params)
        sgd_step(params, {0: {"b": np.array([0.0])}}, vel, cfg)
        assert params[0]["b"][0] == 2.0

    def test_heavy_ball_closed_form(self):
        # quadratic loss L = 0.5 w^2: iterates must match the recurrence
        cfg = OptimConfig(lr=0.1, momentum=0.5, weight_decay=0.0)
        params = one_layer([1.0])
        vel = zero_velocities(params)
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
        vel = zero_velocities(params)
        with pytest.raises(DivergenceError):
            sgd_step(params, one_layer([np.nan]), vel, cfg)
        assert params[0]["W"][0] == 1.0

    def test_nonfinite_grad_names_layer_and_key(self):
        cfg = OptimConfig(lr=0.1)
        params = {0: {"W": np.ones(2)}, 3: {"W": np.ones(2), "b": np.ones(2)}}
        grads = {0: {"W": np.zeros(2)},
                 3: {"W": np.zeros(2), "b": np.array([0.0, np.nan])}}
        with pytest.raises(DivergenceError, match=r"layer 3 'b'"):
            sgd_step(params, grads, zero_velocities(params), cfg)
        assert all((w == 1.0).all() for p in params.values() for w in p.values())


class TestTStep:
    """The shift rule of sgd_step, on a one-activation net."""

    def _net(self, t=-1.0, trainable=True):
        act = ActivationSpec(ng=True, trainable=trainable, granularity="layer")
        spec = NetworkSpec([Activation(act)], (1,), 2)
        params = {0: {"t": np.array([t])}}
        return spec, params, zero_velocities(params)

    @staticmethod
    def _step(spec, params, vel, g, cfg):
        sgd_step(params, {0: {"t": np.array([g])}}, vel, cfg, spec)

    def test_substitution(self):
        spec, params, vel = self._net()
        cfg = OptimConfig(lr=0.01, momentum=0.9, t_lr=0.01, t_momentum=0.9)
        self._step(spec, params, vel, 1.0, cfg)
        assert np.isclose(vel[0]["t"][0], 0.01)
        assert np.isclose(params[0]["t"][0], -1.01)

    def test_geometric_decay(self):
        spec, params, vel = self._net()
        cfg = OptimConfig(lr=0.01, t_momentum=0.9)
        self._step(spec, params, vel, 1.0, cfg)
        v0 = vel[0]["t"][0]
        for _ in range(3):
            self._step(spec, params, vel, 0.0, cfg)
        assert np.isclose(vel[0]["t"][0], v0 * 0.9 ** 3)

    def test_matches_sgd_recurrence(self):
        # same recurrence as the weight rule at constant lr, no decay
        spec, params, vel = self._net(0.0)
        cfg = OptimConfig(lr=0.05, momentum=0.7, weight_decay=0.0)
        w_params = one_layer([0.0])
        w_vel = zero_velocities(w_params)
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = rng.standard_normal()
            self._step(spec, params, vel, g, cfg)
            sgd_step(w_params, one_layer([g]), w_vel, cfg)
            assert np.isclose(params[0]["t"][0], w_params[0]["W"][0],
                              atol=1e-15)

    def test_no_decay_on_t(self):
        spec, params, vel = self._net(-2.0)
        cfg = OptimConfig(lr=0.1, weight_decay=0.5)
        for _ in range(5):
            self._step(spec, params, vel, 0.0, cfg)
        assert params[0]["t"][0] == -2.0  # bitwise constant under zero gradient

    def test_non_trainable_untouched(self):
        spec, params, vel = self._net(-1.0, trainable=False)
        self._step(spec, params, vel, 1.0, OptimConfig(lr=0.1))
        assert params[0]["t"][0] == -1.0 and vel[0]["t"][0] == 0.0


class TestSchedules:
    def test_step_schedule_epochs(self):
        sched = StepSchedule(epochs=[80, 120, 160])
        state = ScheduleState(sched)
        assert state.epoch_multiplier(79) == 1.0
        assert state.epoch_multiplier(80) == pytest.approx(0.1)
        assert state.epoch_multiplier(120) == pytest.approx(0.01)
        assert state.epoch_multiplier(160) == pytest.approx(0.001)

    def test_plateau_improving_stays(self):
        sched = PlateauSchedule(patience=10)
        history = [1.0 - 0.01 * e for e in range(30)]
        assert schedule_lr(sched, history) == 1.0

    def test_plateau_flat_cuts_once(self):
        sched = PlateauSchedule(patience=10)
        history = [1.0] + [1.0] * 10
        assert schedule_lr(sched, history) == pytest.approx(0.1)

    def test_plateau_counter_resets(self):
        sched = PlateauSchedule(patience=3)
        state = ScheduleState(sched)
        for e, m in enumerate([1.0, 1.0, 1.0, 1.0]):
            state.epoch_multiplier(e, m)
        assert state.multiplier == pytest.approx(0.1)
        # fresh stale count: two more flat epochs do not cut again
        state.epoch_multiplier(4, 1.0)
        state.epoch_multiplier(5, 1.0)
        assert state.multiplier == pytest.approx(0.1)

    def test_multiplier_monotone_powers_of_ten(self):
        sched = StepSchedule(epochs=[2, 5, 7])
        state = ScheduleState(sched)
        mults = [state.epoch_multiplier(e) for e in range(10)]
        assert all(a >= b for a, b in zip(mults, mults[1:]))
        for m in mults:
            k = round(np.log10(1 / m))
            assert np.isclose(m, 10.0 ** -k)


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
