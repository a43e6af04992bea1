"""Architecture arithmetic, initialization, and whole-network gradients."""

import copy
import math

import numpy as np
import pytest

from ngnet import network
from ngnet.errors import ConfigError
from ngnet.network import (Activation, ActivationSpec, BatchNorm, Conv,
                           Dense, InitScheme, accuracy, backward, build_mlp,
                           build_plain_cnn, build_resnet, build_toy_cnn,
                           forward, infer_shapes, init_params)
from ngnet.tensor import conv2d_backward

RELU = ActivationSpec(base="relu")
NG_RELU = ActivationSpec(base="relu", ng=True, t_init=-1.0)
IDENT = ActivationSpec(base="identity")


def count(spec, kind):
    return sum(isinstance(l, kind) for l in spec.layers)


def whole_net_fd_check(spec, params, x, y, tol=1e-4, h=1e-5, stride=3):
    _, _, cache = forward(spec, params, x, y, mode="train")
    grads = backward(spec, params, cache, y)
    for i, p in grads.items():
        for key, g in p.items():
            w = params[i][key]
            flat, gflat = w.ravel(), g.ravel()
            for j in range(0, flat.size, stride):
                orig = flat[j]
                flat[j] = orig + h
                _, lp, _ = forward(spec, params, x, y, mode="train")
                flat[j] = orig - h
                _, lm, _ = forward(spec, params, x, y, mode="train")
                flat[j] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-7)
                assert rel < tol, f"layer {i} {key}[{j}]: fd={fd} an={gflat[j]}"


class TestBuilders:
    def test_plain_cnn_table_pattern(self):
        spec = build_plain_cnn(44, 16, 10, False, RELU, input_hw=32)
        assert count(spec, Conv) == 43
        assert count(spec, Dense) == 1
        pools = [l for l in spec.layers if type(l).__name__ == "MaxPool"]
        assert len(pools) == 2

    def test_plain_cnn_small(self):
        spec = build_plain_cnn(8, 4, 3, False, RELU, input_hw=8)
        assert count(spec, Conv) == 7  # stem + [2, 2, 2]
        assert count(spec, Dense) == 1

    def test_plain_cnn_bad_depth(self):
        with pytest.raises(ConfigError):
            build_plain_cnn(9, 4, 3, False, RELU)

    def test_plain_cnn_bn_placement(self):
        spec = build_plain_cnn(8, 4, 3, True, RELU, input_hw=8)
        layers = spec.layers
        for i, l in enumerate(layers):
            if isinstance(l, Conv):
                assert isinstance(layers[i + 1], BatchNorm)
                assert isinstance(layers[i + 2], Activation)

    def test_resnet_block_counts(self):
        spec = build_resnet(56, 16, 10, RELU)
        starts = [l for l in spec.layers if type(l).__name__ == "ResBlockStart"]
        assert len(starts) == 27  # 9 per stage
        assert count(spec, Conv) + count(spec, Dense) == 56

    def test_resnet_small(self):
        spec = build_resnet(20, 8, 10, RELU)
        starts = [l for l in spec.layers if type(l).__name__ == "ResBlockStart"]
        assert len(starts) == 9

    def test_resnet_bad_depth(self):
        with pytest.raises(ConfigError):
            build_resnet(21, 8, 10, RELU)

    def test_resnet_stride_positions(self):
        spec = build_resnet(20, 8, 10, RELU)
        strides = [l.stride for l in spec.layers
                   if type(l).__name__ == "ResBlockStart"]
        assert strides == [1, 1, 1, 2, 1, 1, 2, 1, 1]


class TestInit:
    def test_msra_std(self):
        scheme = InitScheme("msra", 0)
        spec = build_plain_cnn(8, 16, 3, False, RELU, input_hw=8, in_channels=16)
        params = init_params(spec, scheme)
        w = params[0]["W"]  # (16, 16, 3, 3): fan_in 144
        assert abs(w.std() - math.sqrt(2 / 144)) < 0.3 * math.sqrt(2 / 144)

    def test_orthogonal_dense(self):
        act = ActivationSpec(base="relu")
        spec = build_mlp([8], 8, act, input_dim=8)
        params = init_params(spec, InitScheme("orthogonal", 1))
        q = params[0]["W"]
        np.testing.assert_allclose(q.T @ q, np.eye(8), atol=1e-10)

    def test_determinism(self):
        spec = build_plain_cnn(8, 4, 3, True, NG_RELU, input_hw=8)
        p1 = init_params(spec, InitScheme("xavier", 7))
        p2 = init_params(spec, InitScheme("xavier", 7))
        for i in p1:
            for k in p1[i]:
                assert np.array_equal(p1[i][k], p2[i][k])

    def test_ng_t_initialized(self):
        spec = build_plain_cnn(8, 4, 3, False, NG_RELU, input_hw=8)
        params = init_params(spec, InitScheme("msra", 0))
        t_arrays = [p["t"] for p in params.values() if "t" in p]
        assert t_arrays and all((t == -1.0).all() for t in t_arrays)

    def test_bias_zero_and_bn_defaults(self):
        spec = build_plain_cnn(8, 4, 3, True, RELU, input_hw=8)
        params = init_params(spec, InitScheme("msra", 0))
        for i, layer in enumerate(spec.layers):
            if isinstance(layer, BatchNorm):
                assert (params[i]["gamma"] == 1).all()
                assert (params[i]["beta"] == 0).all()
            if isinstance(layer, Conv):
                assert "b" not in params[i]  # BN follows, bias dropped


class TestForward:
    def test_zero_weights_uniform_softmax(self):
        spec = build_mlp([], 4, IDENT, input_dim=5)
        params = init_params(spec, InitScheme("msra", 0))
        params[0]["W"][:] = 0.0
        x = np.random.default_rng(0).standard_normal((6, 5))
        y = np.zeros(6, dtype=int)
        logits, loss, _ = forward(spec, params, x, y)
        assert np.allclose(logits, 0.0)
        assert abs(loss - math.log(4)) < 1e-12

    def test_one_sgd_step_decreases_loss(self):
        spec = build_mlp([], 2, IDENT, input_dim=2)
        params = init_params(spec, InitScheme("xavier", 3))
        x = np.array([[1.0, -1.0]])
        y = np.array([0])
        _, loss0, cache = forward(spec, params, x, y)
        grads = backward(spec, params, cache, y)
        for i in grads:
            for k, g in grads[i].items():
                params[i][k] -= 0.1 * g
        _, loss1, _ = forward(spec, params, x, y)
        assert loss1 < loss0

    def test_eval_mode_batch_independent(self):
        spec = build_plain_cnn(8, 4, 3, True, RELU, input_hw=8)
        params = init_params(spec, InitScheme("msra", 0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, 3, 8, 8))
        # train once so running stats move off their defaults
        forward(spec, params, x, np.zeros(8, dtype=int), mode="train")
        single, _, _ = forward(spec, params, x[:1], mode="eval")
        batched, _, _ = forward(spec, params, x, mode="eval")
        np.testing.assert_allclose(single[0], batched[0], atol=1e-12)

    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
        assert accuracy(logits, [0, 1, 1]) == pytest.approx(2 / 3)


class TestBackward:
    def test_mlp_finite_differences(self):
        spec = build_mlp([5], 3, NG_RELU, input_dim=4)
        params = init_params(spec, InitScheme("msra", 11))
        rng = np.random.default_rng(11)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6)
        whole_net_fd_check(spec, params, x, y, stride=1)

    def test_toy_cnn_finite_differences(self):
        spec = build_toy_cnn(3, NG_RELU, input_hw=4, in_channels=2)
        params = init_params(spec, InitScheme("msra", 5))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2, 4, 4))
        y = rng.integers(0, 3, 4)
        whole_net_fd_check(spec, params, x, y, stride=5)

    def test_plain_cnn_bn_finite_differences(self):
        spec = build_plain_cnn(8, 2, 3, True, NG_RELU, input_hw=8)
        params = init_params(spec, InitScheme("msra", 6))
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3, 8, 8))
        y = rng.integers(0, 3, 4)
        whole_net_fd_check(spec, params, x, y, stride=23)

    def test_resnet_finite_differences(self):
        spec = build_resnet(8, 2, 3, NG_RELU, with_bn=False, input_hw=8)
        params = init_params(spec, InitScheme("msra", 8))
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 3, 8, 8))
        y = rng.integers(0, 3, 3)
        whole_net_fd_check(spec, params, x, y, stride=17)

    def test_prelu_and_selu_finite_differences(self):
        for base in ("prelu", "selu"):
            act = ActivationSpec(base=base, ng=True, t_init=-0.5)
            spec = build_mlp([5], 3, act, input_dim=4)
            params = init_params(spec, InitScheme("xavier", 13))
            rng = np.random.default_rng(13)
            x = rng.standard_normal((5, 4))
            y = rng.integers(0, 3, 5)
            whole_net_fd_check(spec, params, x, y, stride=2)

    def test_gradient_completeness(self):
        act = ActivationSpec(base="prelu", ng=True)
        spec = build_plain_cnn(8, 2, 3, True, act, input_hw=8)
        params = init_params(spec, InitScheme("msra", 0))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3, 8, 8))
        y = rng.integers(0, 3, 4)
        _, _, cache = forward(spec, params, x, y)
        grads = backward(spec, params, cache, y)
        for i, p in params.items():
            for key, w in p.items():
                if key in ("running_mean", "running_var"):
                    assert key not in grads.get(i, {})
                else:
                    assert grads[i][key].shape == w.shape, f"layer {i} {key}"

    def test_stem_skips_input_grad(self, monkeypatch):
        """Only the stem conv, whose input gradient nothing reads, is asked
        for kernel gradients alone; every conv's kernel gradient is still
        the full call's."""
        calls = []

        def spy(grad, x, k, stride, input_grad=True):
            calls.append(input_grad)
            gx, gk = conv2d_backward(grad, x, k, stride)
            assert np.array_equal(
                conv2d_backward(grad, x, k, stride, input_grad=False)[1], gk)
            return (gx if input_grad else None), gk

        monkeypatch.setattr(network, "conv2d_backward", spy)
        spec = build_resnet(8, 2, 3, NG_RELU, with_bn=True, input_hw=8)
        params = init_params(spec, InitScheme("msra", 3))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 8, 8))
        y = rng.integers(0, 3, 4)
        _, _, cache = forward(spec, params, x, y)
        backward(spec, params, cache, y)
        assert isinstance(spec.layers[0], Conv)
        assert calls == [True] * (count(spec, Conv) - 1) + [False]

    def test_nontrainable_t_grad_zero(self):
        act = ActivationSpec(base="relu", ng=True, trainable=False)
        spec = build_mlp([5], 3, act, input_dim=4)
        params = init_params(spec, InitScheme("msra", 2))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6)
        _, _, cache = forward(spec, params, x, y)
        grads = backward(spec, params, cache, y)
        for i, layer in enumerate(spec.layers):
            if isinstance(layer, Activation):
                assert not grads[i]["t"].any()


class TestBatchNorm:
    def _bn_net(self):
        spec = build_plain_cnn(8, 2, 3, True, IDENT, input_hw=8)
        return spec

    def test_constant_batch_gives_shift(self):
        from ngnet.network import _bn_forward
        p = {"gamma": np.ones(2), "beta": np.full(2, 0.3),
             "running_mean": np.zeros(2), "running_var": np.ones(2)}
        x = np.full((4, 2, 3, 3), 5.0)
        out = _bn_forward(p, x, "train", {})
        np.testing.assert_allclose(out, 0.3, atol=1e-12)

    def test_standardized_input_passthrough(self):
        from ngnet.network import _bn_forward
        rng = np.random.default_rng(3)
        x = rng.standard_normal((512, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        p = {"gamma": np.ones(4), "beta": np.zeros(4),
             "running_mean": np.zeros(4), "running_var": np.ones(4)}
        out = _bn_forward(p, x, "train", {})
        # the epsilon inside sqrt(var + 1e-5) rescales by ~1 - 5e-6
        np.testing.assert_allclose(out, x, rtol=1e-5, atol=1e-8)

    def test_batch_of_one_rejected(self):
        spec = self._bn_net()
        params = init_params(spec, InitScheme("msra", 0))
        with pytest.raises(ConfigError):
            forward(spec, params, np.zeros((1, 3, 8, 8)), mode="train")

    def test_running_stats_move(self):
        spec = self._bn_net()
        params = init_params(spec, InitScheme("msra", 0))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 3, 8, 8)) + 2.0
        bn_idx = next(i for i, l in enumerate(spec.layers)
                      if isinstance(l, BatchNorm))
        before = params[bn_idx]["running_mean"].copy()
        forward(spec, params, x, mode="train")
        assert not np.array_equal(before, params[bn_idx]["running_mean"])


def set_shifts_below_preactivations(spec, params, batch, margin=1.0):
    """Lower every activation layer's shift below the minimum of its input
    on a probe batch, putting the whole network in its linear regime.

    Processed front to back because lowering an earlier shift changes the
    inputs of later layers.  Mutates params in place.
    """
    for i, layer in enumerate(spec.layers):
        if not isinstance(layer, Activation):
            continue
        _, _, cache = forward(spec, params, batch, mode="eval")
        x = cache["layers"][i]["x"]
        params[i]["t"].fill(float(x.min()) - margin)


class TestLinearityAtInit:
    def test_logits_match_identity_twin(self):
        ng_spec = build_plain_cnn(8, 4, 3, False, NG_RELU, input_hw=8)
        id_spec = build_plain_cnn(8, 4, 3, False, IDENT, input_hw=8)
        scheme = InitScheme("xavier", 21)
        ng_params = init_params(ng_spec, scheme)
        id_params = init_params(id_spec, scheme)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((16, 3, 8, 8))
        set_shifts_below_preactivations(ng_spec, ng_params, x)
        lo_ng, _, _ = forward(ng_spec, ng_params, x, mode="eval")
        lo_id, _, _ = forward(id_spec, id_params, x, mode="eval")
        np.testing.assert_allclose(lo_ng, lo_id, atol=1e-9)


class TestShapes:
    def test_infer_shapes_plain(self):
        spec = build_plain_cnn(8, 4, 3, False, RELU, input_hw=8)
        shapes = infer_shapes(spec)
        assert shapes[0] == (3, 8, 8)

    def test_determinism_bitwise_trajectory(self):
        # same seed and config: identical params after two training steps
        from ngnet.optim import OptimConfig, sgd_step, zero_velocities
        outs = []
        for _ in range(2):
            spec = build_mlp([6], 3, NG_RELU, input_dim=4)
            params = init_params(spec, InitScheme("msra", 9))
            vel = zero_velocities(params)
            rng = np.random.default_rng(9)
            x = rng.standard_normal((8, 4))
            y = rng.integers(0, 3, 8)
            cfg = OptimConfig(lr=0.05)
            for _ in range(2):
                _, _, cache = forward(spec, params, x, y)
                grads = backward(spec, params, cache, y)
                sgd_step(params, grads, vel, cfg, spec)
            outs.append(params)
        for i in outs[0]:
            for k in outs[0][i]:
                assert np.array_equal(outs[0][i][k], outs[1][i][k])
