"""Variance bounds, statistics traces, and the gradient checker."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngnet import runner
from ngnet.errors import ContractError
from ngnet.csvio import SCHEMAS
from ngnet.instrumentation import (KINK_WINDOW, grad_check, mean_shift_trace,
                                   stability_score, t_trace, variance_bounds,
                                   weight_variance_trace)
from ngnet.network import (ActivationSpec, BatchNorm, Conv, Dense,
                           InitScheme, NetworkSpec, backward, build_mlp,
                           build_plain_cnn, build_resnet, build_toy_cnn,
                           fold_running_stats, forward, init_params)
from ngnet.tensor import conv2d_backward

NG_RELU = ActivationSpec(base="relu", ng=True, t_init=-1.0)
IDENT = ActivationSpec(base="identity")

# the columns an instrumentation row leaves to the runner
LAYERSTATS_OWN = set(SCHEMAS["layerstats"]) - {"run_id", "step"}
TTRACE_OWN = set(SCHEMAS["ttrace"]) - {"run_id", "epoch"}


def brute_force_var_dw(z, g, lr):
    dw = -lr * np.outer(g, z)
    return float(dw.var())


class TestVarianceBounds:
    def test_degenerate_single_entry(self):
        lower, upper = variance_bounds([2.0], [3.0], 0.1)
        assert lower == 0.0 and upper == 0.0
        assert brute_force_var_dw([2.0], [3.0], 0.1) == 0.0

    def test_constant_vectors_equality_at_zero(self):
        # population variance of a constant vector is 0 up to rounding in
        # the mean; everything collapses to ~0 and the sandwich is equality
        lower, upper = variance_bounds([1.5] * 4, [0.3] * 3, 0.2)
        assert lower <= 1e-30 and upper <= 1e-30
        assert brute_force_var_dw([1.5] * 4, [0.3] * 3, 0.2) <= 1e-30

    def test_two_by_two_sandwich(self):
        z, g, lr = [1.0, 2.0], [3.0, 5.0], 0.1
        var_dw = brute_force_var_dw(z, g, lr)
        lower, upper = variance_bounds(z, g, lr)
        assert lower <= var_dw <= upper

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            variance_bounds([], [1.0], 0.1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(7)
        g = rng.standard_normal(5)
        b1 = variance_bounds(z, g, 0.1)
        b2 = variance_bounds(rng.permutation(z), rng.permutation(g), 0.1)
        np.testing.assert_allclose(b1, b2, rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 32), st.integers(0, 2 ** 31))
    def test_sandwich_randomized(self, n, m, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(n) * rng.uniform(0.1, 3)
        g = rng.standard_normal(m) * rng.uniform(0.001, 1)
        lr = rng.uniform(1e-4, 1.0)
        var_dw = brute_force_var_dw(z, g, lr)
        lower, upper = variance_bounds(z, g, lr)
        assert lower <= var_dw * (1 + 1e-9)
        assert var_dw <= upper * (1 + 1e-9) + 1e-300

    def test_lower_bound_tight_for_constant_g(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(12)
        g = np.full(7, 0.37)
        lr = 0.05
        lower, _ = variance_bounds(z, g, lr)
        var_dw = brute_force_var_dw(z, g, lr)
        assert abs(lower - var_dw) <= 1e-12 * max(1.0, var_dw)


class TestWeightVarianceTrace:
    def test_msra_variance_matches_init(self):
        spec = build_plain_cnn(8, 16, 3, False, IDENT, input_hw=8,
                               in_channels=16)
        params = init_params(spec, InitScheme("msra", 0))
        rows = dict(weight_variance_trace(spec, params))
        v = rows[0]  # stem: fan_in 144, >= 2000 entries
        assert abs(v - 2 / 144) < 0.3 * (2 / 144)

    def test_zero_layer(self):
        spec = build_mlp([4], 3, IDENT, input_dim=4)
        params = init_params(spec, InitScheme("msra", 0))
        params[0]["W"][:] = 0.0
        assert dict(weight_variance_trace(spec, params))[0] == 0.0

    def test_stability_score_zero_for_equal(self):
        assert stability_score([(0, 0.5), (1, 0.5), (2, 0.5)]) == 0.0


class TestMeanShiftTrace:
    def test_post_relu_mean_positive(self):
        act = ActivationSpec(base="relu")
        spec = build_mlp([16, 16], 3, act, input_dim=8)
        params = init_params(spec, InitScheme("msra", 4))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((32, 8))
        y = rng.integers(0, 3, 32)
        rows = mean_shift_trace(spec, params, x, y)
        # the second dense layer consumes ReLU outputs: nonnegative mean
        assert rows[1]["mean_z"] > 0.0

    def test_zero_mean_linear_stem(self):
        spec = build_mlp([16], 3, IDENT, input_dim=8)
        params = init_params(spec, InitScheme("xavier", 5))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((200, 8))
        x -= x.mean(axis=0)
        y = rng.integers(0, 3, 200)
        rows = mean_shift_trace(spec, params, x, y)
        # |mean| within 3 sigma of the sample mean of a unit Gaussian
        assert abs(rows[0]["mean_z"]) < 3 / np.sqrt(200 * 8)

    def test_zero_input(self):
        spec = build_mlp([16], 3, IDENT, input_dim=8)
        params = init_params(spec, InitScheme("xavier", 6))
        rows = mean_shift_trace(spec, params, np.zeros((4, 8)),
                                np.zeros(4, dtype=int))
        assert rows[0]["mean_z"] == 0.0

    def test_rows_hold_the_layerstats_columns(self):
        spec = build_mlp([5], 3, NG_RELU, input_dim=4)
        params = init_params(spec, InitScheme("msra", 2))
        rng = np.random.default_rng(2)
        rows = mean_shift_trace(spec, params, rng.standard_normal((6, 4)),
                                rng.integers(0, 3, 6))
        assert [r["layer"] for r in rows] == [0, 2]
        for r in rows:
            assert set(r) == LAYERSTATS_OWN
            assert all(np.isnan(r[k]) for k in ("var_z", "var_g", "var_dw",
                                                 "lower_bound", "upper_bound"))
            assert r["weight_var"] == params[r["layer"]]["W"].var()

    @pytest.mark.parametrize("build", [
        lambda: build_mlp([6, 5], 3, NG_RELU, input_dim=4),
        lambda: build_plain_cnn(5, 2, 3, False, NG_RELU, input_hw=8),
        lambda: build_resnet(8, 2, 3, NG_RELU, with_bn=True, input_hw=8),
    ], ids=["mlp", "cnn_bias", "resnet_bn"])
    def test_out_grads_are_the_linear_output_gradients(self, build):
        spec = build()
        params = init_params(spec, InitScheme("msra", 3))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4,) + spec.input_shape)
        y = rng.integers(0, 3, 4)
        _, _, cache = forward(spec, params, x, y)
        linear = [i for i, l in enumerate(spec.layers)
                  if isinstance(l, (Conv, Dense))]
        zs = {i: cache["layers"][i]["x"] for i in linear}
        out_grads: dict = {}
        grads = backward(spec, params, cache, out_grads=out_grads)
        assert sorted(out_grads) == linear
        for i in linear:
            layer, g, z = spec.layers[i], out_grads[i], zs[i]
            if isinstance(layer, Dense):
                assert np.array_equal(grads[i]["W"], g.T @ z)
                assert np.array_equal(grads[i]["b"], g.sum(axis=0))
            elif isinstance(spec.layers[i + 1], BatchNorm):
                # the gradient at the batch-norm output, whose per-channel
                # sums are the beta gradient
                np.testing.assert_allclose(g.sum(axis=(0, 1, 2)),
                                           grads[i + 1]["beta"], rtol=0,
                                           atol=1e-12)
                assert np.abs(g.mean(axis=(0, 1, 2))).max() > 1e-6
            else:
                gw = conv2d_backward(g, z, params[i]["W"], layer.stride)[1]
                assert np.array_equal(grads[i]["W"], gw)
                assert ("b" in grads[i]) == layer.bias
        rows = mean_shift_trace(spec, params, x, y)
        assert [r["layer"] for r in rows] == linear
        # the logits' mean_g is written as its exact value, 0
        assert linear[-1] == len(spec.layers) - 1
        assert [r["mean_g"] for r in rows] == [float(np.mean(out_grads[i]))
                                               for i in linear[:-1]] + [0.0]

    def test_logits_mean_g_is_zero(self):
        """Each row of the loss gradient at the logits sums to zero, so the
        logits' mean_g is written as 0, not as the rounding noise of
        np.mean."""
        spec = build_mlp([6, 5], 7, NG_RELU, input_dim=4)
        params = init_params(spec, InitScheme("msra", 4))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((9, 4))
        y = rng.integers(0, 7, 9)
        logits = len(spec.layers) - 1
        _, _, cache = forward(spec, params, x, y)
        out_grads: dict = {}
        backward(spec, params, cache, out_grads=out_grads)
        np.testing.assert_allclose(out_grads[logits].sum(axis=1), 0,
                                   rtol=0, atol=1e-16)
        assert [r["mean_g"] for r in mean_shift_trace(spec, params, x, y)
                if r["layer"] == logits] == [0.0]


class TestTTrace:
    def test_bounds_ordering(self):
        spec = build_plain_cnn(8, 4, 3, False, NG_RELU, input_hw=8)
        params = init_params(spec, InitScheme("msra", 0))
        act_idx = next(i for i, p in params.items() if "t" in p)
        params[act_idx]["t"] += np.random.default_rng(0).uniform(
            -0.3, 0.3, params[act_idx]["t"].shape)
        rows = t_trace(spec, params)
        assert [r["layer"] for r in rows] == [
            i for i, p in params.items() if "t" in p]
        for row in rows:
            assert set(row) == TTRACE_OWN
            assert row["t_min"] <= row["t_mean"] <= row["t_max"]


class TestGradCheck:
    def _probe(self, act, seed=0, hidden=(6, 6)):
        spec = build_mlp(list(hidden), 3, act, input_dim=5)
        params = init_params(spec, InitScheme("msra", seed))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 5))
        y = rng.integers(0, 3, 8)
        return spec, params, x, y

    def test_linear_net_tight(self):
        spec, params, x, y = self._probe(IDENT)
        report = grad_check(spec, params, x, y, tolerance=1e-4)
        assert report.passed
        assert max(report.max_rel_err.values()) < 1e-6

    def test_ng_relu_mlp(self):
        spec, params, x, y = self._probe(
            ActivationSpec(base="relu", ng=True, t_init=-1.0,
                           granularity="element"), seed=7)
        report = grad_check(spec, params, x, y, tolerance=1e-4)
        assert report.passed
        assert "ng_t" in report.max_rel_err

    def test_t_group_absent_when_untrainable(self):
        spec, params, x, y = self._probe(
            ActivationSpec(base="relu", ng=True, trainable=False), seed=8)
        report = grad_check(spec, params, x, y)
        assert "ng_t" not in report.max_rel_err

    def test_prelu_group_reported(self):
        spec, params, x, y = self._probe(
            ActivationSpec(base="prelu", ng=True, t_init=-0.5), seed=9)
        report = grad_check(spec, params, x, y, tolerance=1e-4)
        assert report.passed and "prelu_a" in report.max_rel_err

    def test_kink_exclusion_matches_a_fresh_forward(self):
        """Shift components near an input of their layer are excluded, as
        a fresh forward on the caller's parameters sees those inputs."""
        spec, params, x, y = self._probe(
            ActivationSpec(base="relu", ng=True, t_init=-1.0,
                           granularity="element"), seed=3)

        def z(i):  # layer i's input: the output of the first i layers
            return forward(NetworkSpec(spec.layers[:i], spec.input_shape),
                           params, x)[0]

        # put two shifts of each activation layer on or near a kink
        for i in (1, 3):
            zi = z(i)
            params[i]["t"][0] = zi[0, 0]
            params[i]["t"][1] = zi[2, 1] + 0.5 * KINK_WINDOW
        near = sum(int((np.abs(z(i) - params[i]["t"])
                        < KINK_WINDOW).any(axis=0).sum()) for i in (1, 3))
        report = grad_check(spec, params, x, y)
        assert near >= 4
        assert report.excluded_kink == near
        trainable = sum(v.size for p in params.values() for v in p.values())
        assert report.checked + report.excluded_kink == trainable

    def test_counts_only_what_trains(self):
        """A fixed element-wise shift takes no gradient, so its values are
        neither checked nor counted against the size limit: 1467 of this
        toy CNN's 2331 values train.  `passed` is not asserted: a weight
        probe can flip a ReLU branch (ROADMAP item 3)."""
        act = ActivationSpec(ng=True, trainable=False, granularity="element")
        spec = build_toy_cnn(3, act, input_hw=12)
        params = init_params(spec, InitScheme("msra", 0))
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((4, 3, 12, 12)), rng.integers(0, 3, 4)
        report = grad_check(spec, params, x, y)
        assert sum(v.size for p in params.values() for v in p.values()) == 2331
        assert report.checked + report.excluded_kink == 1467
        assert "ng_t" not in report.max_rel_err

    def test_refuses_large_nets(self):
        spec, params, x, y = self._probe(IDENT, hidden=(64, 64))
        with pytest.raises(ContractError):
            grad_check(spec, params, x, y)


def _bits(params):
    """Every params array, by (layer, name), as its shape and bytes."""
    return {(i, k): (v.shape, v.tobytes())
            for i, p in params.items() for k, v in p.items()}


class TestMeasurementWritesNothing:
    """forward, backward and every measurement leave params bitwise as they
    find them; only the training step's fold writes, and only batch
    norm's running statistics."""

    @pytest.mark.parametrize("build", [
        lambda: build_resnet(8, 2, 3, NG_RELU, with_bn=True, input_hw=8),
        lambda: build_plain_cnn(5, 2, 3, False, NG_RELU, input_hw=8),
        lambda: build_mlp([6, 5], 3, NG_RELU, input_dim=4),
    ], ids=["resnet_bn", "plain_cnn", "mlp"])
    def test_params_bitwise_unchanged(self, build):
        spec = build()
        params = init_params(spec, InitScheme("msra", 6))
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4,) + spec.input_shape) + 1.0
        y = rng.integers(0, 3, 4)
        before = _bits(params)
        cache = forward(spec, params, x, y, "train")[2]
        # the training step's fold, before backward consumes the cache; on
        # a copy, so the calls below run on the parameters as they were
        folded = copy.deepcopy(params)
        fold_running_stats(folded, cache)
        calls = {
            "forward train": lambda: forward(spec, params, x, y, "train"),
            "forward train, no labels": lambda: forward(spec, params, x),
            "forward eval": lambda: forward(spec, params, x, y, "eval"),
            "forward eval, no labels": lambda: forward(spec, params, x,
                                                       mode="eval"),
            "backward": lambda: backward(spec, params, cache, out_grads={}),
            "mean_shift_trace": lambda: mean_shift_trace(spec, params, x, y),
            "grad_check": lambda: grad_check(spec, params, x, y),
            "_first_non_finite": lambda: runner._first_non_finite(
                spec, params, x),
        }
        for name, call in calls.items():
            call()
            assert _bits(params) == before, name

        moved = {key for key, bits in _bits(folded).items()
                 if bits != before[key]}
        assert moved == {(i, k) for i, layer in enumerate(spec.layers)
                         if isinstance(layer, BatchNorm)
                         for k in ("running_mean", "running_var")}
