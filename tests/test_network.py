"""Architecture arithmetic, initialization, and whole-network gradients."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from ngnet import network, runner
from ngnet.errors import ConfigError, ContractError
from ngnet.network import (Activation, ActivationSpec, BatchNorm, Conv,
                           Dense, GlobalAvgPool, InitScheme, MaxPool,
                           NetworkSpec, ResBlockEnd, ResBlockStart, backward,
                           build_mlp, build_plain_cnn, build_resnet,
                           build_toy_cnn, forward, init_params)
from ngnet.tensor import conv2d_backward, conv2d_forward

RELU = ActivationSpec(base="relu")
NG_RELU = ActivationSpec(base="relu", ng=True, t_init=-1.0)
IDENT = ActivationSpec(base="identity")


def count(spec, kind):
    return sum(isinstance(l, kind) for l in spec.layers)


def prefix_output(spec, params, x, i, **kw):
    """Layer i's input: the output of the network's first i layers."""
    out, _, _ = forward(NetworkSpec(spec.layers[:i], spec.input_shape),
                        params, x, **kw)
    return out


def whole_net_fd_check(spec, params, x, y, tol=1e-4, h=1e-5, stride=3):
    _, _, cache = forward(spec, params, x, y, mode="train")
    grads = backward(spec, params, cache)
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
        strides = [spec.layers[i + 1].stride
                   for i, l in enumerate(spec.layers)
                   if isinstance(l, ResBlockStart)]
        assert strides == [1, 1, 1, 2, 1, 1, 2, 1, 1]

    @pytest.mark.parametrize("with_bn", [False, True])
    def test_exact_layers(self, with_bn):
        """Every layer of the small plain CNN, ResNet-8 and toy CNN:
        kind, channels, stride and bias; a conv is biased only where no
        batch norm follows it."""
        def conv(ch, stride=1):
            return ("conv", ch, stride, not with_bn)

        def unit(ch, stride=1):
            return [conv(ch, stride)] + [("bn",)] * with_bn + [("act",)]

        plain = (unit(2) + unit(2) + [("pool",)] + unit(4) + [("pool",)]
                 + unit(8) + [("gap",), ("dense", 3)])
        resnet = unit(2)
        for width, stride in ((2, 1), (4, 2), (8, 2)):
            resnet += ([("start",)] + unit(width, stride)
                       + [conv(width)] + [("bn",)] * with_bn
                       + [("end",), ("act",)])
        resnet += [("gap",), ("dense", 3)]
        toy = [("conv", 3, 1, True), ("act",), ("conv", 3, 1, True), ("act",),
               ("dense", 3)]

        def layers(spec):
            kinds = {Conv: lambda l: ("conv", l.channels, l.stride, l.bias),
                     BatchNorm: lambda l: ("bn",),
                     Activation: lambda l: ("act",),
                     MaxPool: lambda l: ("pool",),
                     GlobalAvgPool: lambda l: ("gap",),
                     ResBlockStart: lambda l: ("start",),
                     ResBlockEnd: lambda l: ("end",),
                     Dense: lambda l: ("dense", l.units)}
            assert all(l.spec is NG_RELU for l in spec.layers
                       if isinstance(l, Activation))
            return [kinds[type(l)](l) for l in spec.layers]

        spec = build_plain_cnn(5, 2, 3, with_bn, NG_RELU, input_hw=8)
        assert layers(spec) == plain and spec.input_shape == (3, 8, 8)
        spec = build_resnet(8, 2, 3, NG_RELU, with_bn=with_bn, input_hw=8,
                            in_channels=2)
        assert layers(spec) == resnet and spec.input_shape == (2, 8, 8)
        spec = build_toy_cnn(3, NG_RELU, input_hw=8)
        assert layers(spec) == toy and spec.input_shape == (3, 8, 8)


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
        grads = backward(spec, params, cache)
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


def cache_nets():
    """(spec, batch) for an MLP, a plain CNN and a BN ResNet-8."""
    rng = np.random.default_rng(12)
    return [
        pytest.param(build_mlp([6, 5], 3, NG_RELU, input_dim=4),
                     rng.standard_normal((8, 4)), id="mlp"),
        pytest.param(build_plain_cnn(8, 4, 3, False, NG_RELU, input_hw=8),
                     rng.standard_normal((8, 3, 8, 8)), id="plain_cnn"),
        pytest.param(build_resnet(8, 4, 3, NG_RELU, input_hw=8),
                     rng.standard_normal((8, 3, 8, 8)), id="resnet_bn"),
    ]


class TestCache:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("spec, x", cache_nets())
    def test_no_cache_is_bitwise_the_cached_call(self, spec, x, mode):
        """A forward without labels gives the labelled forward's logits,
        bitwise, and neither a loss nor a cache."""
        params = init_params(spec, InitScheme("msra", 5))
        y = np.arange(len(x)) % 3
        lo, loss, cache = forward(spec, params, x, y, mode)
        lo_nc, loss_nc, none = forward(spec, params, x, mode=mode)
        assert cache is not None and loss is not None
        assert loss_nc is None and none is None
        assert np.array_equal(lo, lo_nc)

    def test_label_less_forward_computes_no_softmax(self, monkeypatch):
        """The accuracy forward, the non-finite re-walk and a prefix
        forward never call the softmax nothing would read."""
        def refuse(logits):
            raise AssertionError("softmax of a label-less forward")

        spec = build_plain_cnn(5, 2, 3, False, NG_RELU, input_hw=8)
        params = init_params(spec, InitScheme("msra", 7))
        x = np.random.default_rng(7).standard_normal((4, 3, 8, 8))
        monkeypatch.setattr(network, "_softmax", refuse)
        logits, loss, cache = forward(spec, params, x, mode="eval")
        assert logits.shape == (4, 3) and loss is None and cache is None
        assert 0.0 <= runner._eval_acc(spec, params, x, np.arange(4) % 3,
                                       2) <= 1.0
        assert runner._first_non_finite(spec, params, x) == ""
        assert prefix_output(spec, params, x, 3).shape == (4, 8, 8, 2)

    def test_eval_forward_without_cache_is_small(self):
        """The 96-sample eval forward of the BN ResNet-8 at 32x32 peaked at
        85.8 MiB while it built a cache nothing read."""
        spec = build_resnet(8, 8, 3, NG_RELU, input_hw=32)
        params = init_params(spec, InitScheme("msra", 0))
        x = np.random.default_rng(0).standard_normal((96, 3, 32, 32))
        forward(spec, params, x[:2], mode="eval")  # warm-up
        tracemalloc.start()
        try:
            forward(spec, params, x, mode="eval")
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 85.8, peak

    def test_chunked_eval_is_the_whole_set_accuracy(self):
        """The accuracy eval runs in chunks of the run's batch size; on a
        BN ResNet with moved running statistics, each chunking reads the
        accuracy of one eval forward over the whole set."""
        spec = build_resnet(8, 2, 3, NG_RELU, input_hw=8)
        params = init_params(spec, InitScheme("msra", 9))
        rng = np.random.default_rng(9)
        for p in params.values():
            if "running_mean" in p:
                p["running_mean"] = rng.standard_normal(p["beta"].shape)
                p["running_var"] = rng.uniform(0.5, 2.0, p["beta"].shape)
        x = rng.standard_normal((20, 3, 8, 8))
        y = rng.integers(0, 3, 20)
        logits, _, _ = forward(spec, params, x, mode="eval")
        whole = float((logits.argmax(axis=1) == y).sum()) / len(y)
        assert 0.0 < whole < 1.0
        for batch_size in (1, 3, 7, 20, 32):
            assert runner._eval_acc(spec, params, x, y, batch_size) == whole

    @pytest.mark.parametrize("base", ["identity", "relu", "lrelu", "prelu",
                                      "selu"])
    def test_activation_keeps_x_only_where_backward_reads_it(self, base):
        spec = build_mlp([6, 5], 3, ActivationSpec(base=base, ng=True),
                         input_dim=4)
        params = init_params(spec, InitScheme("msra", 2))
        x = np.random.default_rng(2).standard_normal((8, 4))
        _, _, cache = forward(spec, params, x, np.arange(8) % 3)
        reads_x = base in ("prelu", "selu")
        for i, layer in enumerate(spec.layers):
            if isinstance(layer, Activation):
                assert layer.base.backward_reads_x == reads_x
                assert set(cache["layers"][i]) == \
                    {"in_shape", "mask"} | ({"x"} if reads_x else set())

    @pytest.mark.parametrize("base", ["relu", "selu"])
    @pytest.mark.parametrize("ng", [True, False])
    def test_act_inputs_are_each_activation_input(self, base, ng):
        """A prefix's output is bitwise the input the cache used to keep:
        the previous Dense layer's output, and the cached x where the base
        still keeps it, with and without the NG shift."""
        spec = build_mlp([6, 5], 3, ActivationSpec(base=base, ng=ng),
                         input_dim=4)
        params = init_params(spec, InitScheme("msra", 3))
        x = np.random.default_rng(3).standard_normal((8, 4))
        _, _, cache = forward(spec, params, x, np.arange(8) % 3)
        act = [i for i, l in enumerate(spec.layers) if isinstance(l, Activation)]
        inputs = {i: prefix_output(spec, params, x, i) for i in act}
        for i in act:
            z = cache["layers"][i - 1]["x"]
            w, b = params[i - 1]["W"], params[i - 1]["b"]
            assert np.array_equal(inputs[i], z @ w.T + b)
            if base == "selu":
                assert np.array_equal(inputs[i], cache["layers"][i]["x"])


def layout_nets():
    """(spec, batch): a plain CNN with and without batch norm, a BN
    ResNet-8 (stride 2 and the zero-padded shortcut), the toy CNN and an
    MLP."""
    rng = np.random.default_rng(14)
    x = rng.standard_normal((4, 3, 8, 8))
    return [
        pytest.param(build_plain_cnn(5, 2, 3, False, NG_RELU, input_hw=8), x,
                     id="plain_cnn"),
        pytest.param(build_plain_cnn(5, 2, 3, True, NG_RELU, input_hw=8), x,
                     id="plain_cnn_bn"),
        pytest.param(build_resnet(8, 2, 3, NG_RELU, input_hw=8), x,
                     id="resnet_bn"),
        pytest.param(build_toy_cnn(3, NG_RELU, input_hw=8), x, id="toy_cnn"),
        pytest.param(build_mlp([6, 5], 3, NG_RELU, input_dim=4),
                     rng.standard_normal((4, 4)), id="mlp"),
    ]


class TestLayout:
    @pytest.mark.parametrize("spec, x", layout_nets())
    def test_one_channels_last_layout_between_layers(self, spec, x):
        """Every activation input, conv/dense pre-activation gradient and
        cached conv input is C-contiguous, with its channels (features) on
        the last axis."""
        params = init_params(spec, InitScheme("msra", 4))
        out_grads: dict = {}
        _, _, cache = forward(spec, params, x, np.arange(len(x)) % 3)
        conv_inputs = {i: c["x"] for i, c in enumerate(cache["layers"])
                       if isinstance(spec.layers[i], Conv)}
        backward(spec, params, cache, out_grads=out_grads)
        act_inputs = {i: prefix_output(spec, params, x, i)
                      for i, l in enumerate(spec.layers)
                      if isinstance(l, Activation)}
        seen = []
        for i, layer in enumerate(spec.layers):
            if isinstance(layer, Activation):
                # a per-channel shift: (C,) for a conv input, (D,) for dense
                seen.append((act_inputs[i], params[i]["t"].shape[0]))
            if isinstance(layer, Conv):
                seen.append((conv_inputs[i], params[i]["W"].shape[1]))
                seen.append((out_grads[i], layer.channels))
            if isinstance(layer, Dense):
                seen.append((out_grads[i], layer.units))
        assert len(seen) == len(act_inputs) + len(out_grads) + count(spec, Conv)
        for a, channels in seen:
            assert a.flags.c_contiguous and a.shape[0] == len(x)
            assert a.shape[-1] == channels and a.ndim in (2, 4)


def prefix_nets():
    """(spec, batch) per wrapped base: the critical-depth sweep's shallowest
    plain CNN, a BN ResNet-8 (prefixes that end inside a residual block),
    the toy CNN and an MLP."""
    rng = np.random.default_rng(15)
    x, v = rng.standard_normal((4, 3, 8, 8)), rng.standard_normal((4, 4))
    return [pytest.param(build(act), batch, id=f"{name}-{act.base}")
            for act in (NG_RELU, ActivationSpec(base="selu", ng=True),
                        ActivationSpec(base="prelu", ng=True, t_init=-0.5))
            for name, build, batch in [
                ("sweep", lambda a: build_plain_cnn(8, 6, 3, False, a,
                                                    input_hw=8), x),
                ("resnet_bn", lambda a: build_resnet(8, 2, 3, a,
                                                     input_hw=8), x),
                ("toy_cnn", lambda a: build_toy_cnn(3, a, input_hw=8), x),
                ("mlp", lambda a: build_mlp([6, 5], 3, a, input_dim=4), v)]]


class TestPrefix:
    @pytest.mark.parametrize("spec, x", prefix_nets())
    def test_prefix_output_is_the_cached_layer_input(self, spec, x):
        """Bitwise, at every Conv and Dense layer and every activation whose
        backward reads its input (SELU, PReLU)."""
        params = init_params(spec, InitScheme("msra", 6))
        _, _, cache = forward(spec, params, x, np.arange(len(x)) % 3)
        checked = 0
        for i, layer in enumerate(spec.layers):
            want = cache["layers"][i].get("x")
            if want is None:
                continue
            got = prefix_output(spec, params, x, i)
            if isinstance(layer, Dense):  # the cache keeps it flat
                got = (got.transpose(0, 3, 1, 2) if got.ndim == 4
                       else got).reshape(len(x), -1)
            assert np.array_equal(got, want), i
            checked += 1
        acts = [l for l in spec.layers if isinstance(l, Activation)]
        reads_x = acts[0].spec.base in ("selu", "prelu")
        assert checked == count(spec, Conv) + count(spec, Dense) + \
            reads_x * len(acts)


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

    def test_resnet_bn_finite_differences(self):
        """Batch norm behind the stride-2 zero-padded shortcut."""
        spec = build_resnet(8, 2, 3, NG_RELU, with_bn=True, input_hw=8)
        params = init_params(spec, InitScheme("msra", 9))
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3, 8, 8))
        y = rng.integers(0, 3, 4)
        whole_net_fd_check(spec, params, x, y, stride=7)

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
        grads = backward(spec, params, cache)
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
        backward(spec, params, cache)
        assert isinstance(spec.layers[0], Conv)
        assert calls == [True] * (count(spec, Conv) - 1) + [False]

    def test_needs_the_labels_the_forward_cached(self):
        """A forward without labels gives no cache, and backward refuses
        the missing one."""
        spec = build_mlp([5], 3, RELU, input_dim=4)
        params = init_params(spec, InitScheme("msra", 2))
        x = np.random.default_rng(2).standard_normal((6, 4))
        _, loss, cache = forward(spec, params, x)
        assert loss is None and cache is None
        with pytest.raises(ContractError, match="labels"):
            backward(spec, params, None)

    def test_refuses_a_cache_of_another_network(self):
        spec = build_mlp([5], 3, RELU, input_dim=4)
        deeper = build_mlp([5, 5], 3, RELU, input_dim=4)
        params = init_params(spec, InitScheme("msra", 2))
        x = np.random.default_rng(2).standard_normal((6, 4))
        _, _, cache = forward(spec, params, x, [0, 1, 2, 0, 1, 2])
        with pytest.raises(ContractError, match="does not match"):
            backward(deeper, init_params(deeper, InitScheme("msra", 2)), cache)

    def test_refuses_a_consumed_cache(self):
        """backward consumes its cache: a second backward, or a fold after
        it, is refused as such, not as a cache of another network."""
        spec = build_plain_cnn(5, 2, 3, True, NG_RELU, input_hw=8)
        params = init_params(spec, InitScheme("msra", 2))
        x = np.random.default_rng(2).standard_normal((4, 3, 8, 8))
        _, _, cache = forward(spec, params, x, [0, 1, 2, 0])
        backward(spec, params, cache)
        for again in (lambda: backward(spec, params, cache),
                      lambda: network.fold_running_stats(params, cache)):
            with pytest.raises(ContractError, match="already consumed"):
                again()

    def test_step_peak_is_near_its_forward_cache(self):
        """One train step of the BN ResNet-8 at 32x32, forward plus
        backward, peaks below 1.25x the bytes its forward leaves allocated
        (cache and logits): the backward frees each layer's cache as it
        adds that layer's gradients.  Holding the whole cache to the end
        read 1.40x."""
        spec = build_resnet(8, 8, 3, NG_RELU, input_hw=32)
        params = init_params(spec, InitScheme("msra", 0))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 3, 32, 32))
        y = rng.integers(0, 3, 32)
        backward(spec, params, forward(spec, params, x[:2], y[:2])[2])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, _, cache = forward(spec, params, x, y)
            cache_bytes = tracemalloc.get_traced_memory()[0] - start
            backward(spec, params, cache)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * cache_bytes, peak / cache_bytes

    def test_nontrainable_t_grad_zero(self):
        """A shift that does not train, fixed or plain, gets no gradient
        entry at all (and so no update); a PReLU slope still does."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 4))
        y = rng.integers(0, 3, 6)
        for act in (ActivationSpec(base="relu", ng=True, trainable=False),
                    ActivationSpec(base="prelu", ng=False)):
            spec = build_mlp([5], 3, act, input_dim=4)
            params = init_params(spec, InitScheme("msra", 2))
            _, _, cache = forward(spec, params, x, y)
            grads = backward(spec, params, cache)
            acts = [i for i, layer in enumerate(spec.layers)
                    if isinstance(layer, Activation)]
            assert acts and all("t" not in grads[i] for i in acts)
            assert all(("a" in grads[i]) == (act.base == "prelu")
                       for i in acts)


def _ref_reshape(p, ndim):
    return p.reshape((1, -1) + (1,) * (ndim - 2))


def nchw(a):
    """The channels-first view of a channels-last batch; 2-D as it is."""
    return a.transpose(0, 3, 1, 2) if a.ndim == 4 else a


def nhwc(a):
    """A channels-first batch as a C-contiguous channels-last one."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1) if a.ndim == 4 else a)


def ref_bn_forward(p, x, mode, c):
    """Batch norm as it was computed before it ran on channels-last rows:
    NumPy reductions over the batch and spatial axes and broadcast per-channel
    arithmetic, about five full-size temporaries; x channels-first."""
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    if mode == "train":
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        p["running_mean"] = 0.9 * p["running_mean"] + 0.1 * mean
        p["running_var"] = 0.9 * p["running_var"] + 0.1 * var
    else:
        mean, var = p["running_mean"], p["running_var"]
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - _ref_reshape(mean, x.ndim)) * _ref_reshape(inv_std, x.ndim)
    c.update(xhat=xhat, inv_std=inv_std, axes=axes,
             train_stats=mode == "train")
    return xhat * _ref_reshape(p["gamma"], x.ndim) \
        + _ref_reshape(p["beta"], x.ndim)


def ref_bn_backward(p, grad, c):
    xhat, inv_std, axes = c["xhat"], c["inv_std"], c["axes"]
    ndim = grad.ndim
    dgamma = (grad * xhat).sum(axis=axes)
    dbeta = grad.sum(axis=axes)
    dxhat = grad * _ref_reshape(p["gamma"], ndim)
    if c["train_stats"]:
        mean_dxhat = dxhat.mean(axis=axes)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes)
        dx = (dxhat - _ref_reshape(mean_dxhat, ndim)
              - xhat * _ref_reshape(mean_dxhat_xhat, ndim)) \
            * _ref_reshape(inv_std, ndim)
    else:
        dx = dxhat * _ref_reshape(inv_std, ndim)
    return dx, {"gamma": dgamma, "beta": dbeta}


def bn_params(ch, rng):
    return {"gamma": rng.uniform(0.5, 1.5, ch), "beta": rng.standard_normal(ch),
            "running_mean": rng.standard_normal(ch),
            "running_var": rng.uniform(0.5, 2.0, ch)}


def bn_inputs():
    """(x, mode) pairs, channels-last: a conv output, another 4-D batch, a
    2-D batch, and the eval-mode batch of one sandwich_probes runs."""
    rng = np.random.default_rng(17)
    conv_out = conv2d_forward(nhwc(rng.standard_normal((6, 4, 8, 8))),
                              rng.standard_normal((5, 4, 3, 3)))
    cases = []
    for mode in ("train", "eval"):
        cases += [
            pytest.param(conv_out, mode, id=f"conv_out-{mode}"),
            pytest.param(nhwc(rng.standard_normal((6, 5, 4, 4)) * 3 + 2), mode,
                         id=f"c_contiguous-{mode}"),
            pytest.param(rng.standard_normal((7, 5)) - 1, mode,
                         id=f"rows-{mode}"),
        ]
    cases.append(pytest.param(conv_out[:1], "eval", id="probe-eval"))
    return cases


class TestBatchNorm:
    # reduction order differs from the reference: sums over up to ~400
    # values, so outputs may move in their last digits
    RTOL, ATOL = 1e-12, 1e-12

    @pytest.mark.parametrize("x, mode", bn_inputs())
    def test_matches_reference(self, x, mode):
        p = bn_params(x.shape[-1], np.random.default_rng(x.size))
        p_ref = copy.deepcopy(p)
        c, c_ref = {}, {}
        y = network._bn_forward(p, x, mode, c)
        network.fold_running_stats({0: p}, {"layers": [c]})
        y_ref = ref_bn_forward(p_ref, nchw(x), mode, c_ref)
        grad = np.random.default_rng(1).standard_normal(x.shape)
        grad_in = grad.copy()
        dx, g = network._bn_backward(p, grad, c)
        dx_ref, g_ref = ref_bn_backward(p_ref, nchw(grad), c_ref)
        assert np.array_equal(grad, grad_in)  # a shortcut may share it
        assert y.shape == dx.shape == x.shape
        assert y.flags.c_contiguous and dx.flags.c_contiguous
        for got, want in [(y, nhwc(y_ref)), (dx, nhwc(dx_ref)),
                          (g["gamma"], g_ref["gamma"]),
                          (g["beta"], g_ref["beta"])] + [
                (p[k], p_ref[k]) for k in ("running_mean", "running_var")]:
            np.testing.assert_allclose(got, want, rtol=self.RTOL,
                                       atol=self.ATOL)

    @pytest.mark.parametrize("x, mode", bn_inputs())
    def test_repeat_is_bitwise(self, x, mode):
        p = bn_params(x.shape[-1], np.random.default_rng(3))
        grad = np.random.default_rng(4).standard_normal(x.shape)
        outs = []
        for _ in range(2):
            q, c = copy.deepcopy(p), {}
            y = network._bn_forward(q, x, mode, c)
            dx, g = network._bn_backward(q, grad, c)
            network.fold_running_stats({0: q}, {"layers": [c]})
            outs.append([y, dx, g["gamma"], g["beta"], q["running_mean"],
                         q["running_var"]])
        for a, b in zip(*outs):
            assert np.array_equal(a, b)

    def test_allocates_two_full_size_arrays(self):
        """A conv output at (32, 32, 32, 8): the forward allocates two
        full-size arrays and the backward one; the reference peaks at 3x the
        input's bytes in each direction."""
        rng = np.random.default_rng(5)
        x = conv2d_forward(rng.standard_normal((32, 32, 32, 8)),
                           rng.standard_normal((8, 8, 3, 3)))
        grad = rng.standard_normal(x.shape)
        p = bn_params(8, rng)
        peaks = []
        c: dict = {}
        tracemalloc.start()
        try:
            network._bn_forward(p, x, "train", c)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            handed = tracemalloc.get_traced_memory()[0]
            network._bn_backward(p, grad, c)
            peaks.append(tracemalloc.get_traced_memory()[1] - handed)
        finally:
            tracemalloc.stop()
        assert max(peaks) < 2.5 * x.nbytes, [b / x.nbytes for b in peaks]
        assert peaks[1] < 1.5 * x.nbytes, [b / x.nbytes for b in peaks]

    def _bn_net(self):
        spec = build_plain_cnn(8, 2, 3, True, IDENT, input_hw=8)
        return spec

    def test_constant_batch_gives_shift(self):
        from ngnet.network import _bn_forward
        p = {"gamma": np.ones(2), "beta": np.full(2, 0.3),
             "running_mean": np.zeros(2), "running_var": np.ones(2)}
        x = np.full((4, 3, 3, 2), 5.0)
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
        """A train forward leaves the running statistics alone; folding
        its cache moves them."""
        spec = self._bn_net()
        params = init_params(spec, InitScheme("msra", 0))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 3, 8, 8)) + 2.0
        stats = [(i, k) for i, l in enumerate(spec.layers)
                 if isinstance(l, BatchNorm)
                 for k in ("running_mean", "running_var")]
        before = {(i, k): params[i][k].copy() for i, k in stats}
        _, _, cache = forward(spec, params, x, np.arange(8) % 3, mode="train")
        assert all(np.array_equal(before[i, k], params[i][k]) for i, k in stats)
        network.fold_running_stats(params, cache)
        assert not any(np.array_equal(before[i, k], params[i][k])
                       for i, k in stats)


def set_shifts_below_preactivations(spec, params, batch, margin=1.0):
    """Lower every activation layer's shift below the minimum of its input
    on a probe batch, putting the whole network in its linear regime.

    Processed front to back because lowering an earlier shift changes the
    inputs of later layers.  Mutates params in place.
    """
    for i, layer in enumerate(spec.layers):
        if not isinstance(layer, Activation):
            continue
        inputs = prefix_output(spec, params, batch, i, mode="eval")
        params[i]["t"].fill(float(inputs.min()) - margin)


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
    def test_param_shapes_follow_the_sample_shape_plain(self):
        """init_params tracks each layer's channels-last input shape:
        channels through convs and batch norm, spatial size through the max
        pools (seen in per-element shifts), features into the classifier."""
        act = ActivationSpec(base="relu", ng=True, granularity="element")
        spec = build_plain_cnn(5, 4, 3, True, act, input_hw=8)
        params = init_params(spec, InitScheme("msra", 0))
        shapes = [(type(spec.layers[i]).__name__,
                   {k: v.shape for k, v in p.items()})
                  for i, p in params.items()]
        bn = lambda c: {k: (c,) for k in ("gamma", "beta", "running_mean",
                                          "running_var")}
        assert shapes == [
            ("Conv", {"W": (4, 3, 3, 3)}), ("BatchNorm", bn(4)),
            ("Activation", {"t": (8, 8, 4)}),
            ("Conv", {"W": (4, 4, 3, 3)}), ("BatchNorm", bn(4)),
            ("Activation", {"t": (8, 8, 4)}),
            ("Conv", {"W": (8, 4, 3, 3)}), ("BatchNorm", bn(8)),
            ("Activation", {"t": (4, 4, 8)}),
            ("Conv", {"W": (16, 8, 3, 3)}), ("BatchNorm", bn(16)),
            ("Activation", {"t": (2, 2, 16)}),
            ("Dense", {"W": (3, 16), "b": (3,)})]

    def test_max_pool_on_odd_spatial_dims_rejected(self):
        spec = NetworkSpec([Conv(2), MaxPool(), GlobalAvgPool(), Dense(3)],
                           (1, 5, 5))
        with pytest.raises(ConfigError, match="odd spatial dims"):
            init_params(spec, InitScheme("msra", 0))

    def test_determinism_bitwise_trajectory(self):
        # same seed and config: identical params after two training steps
        from ngnet.optim import OptimConfig, sgd_step
        outs = []
        for _ in range(2):
            spec = build_mlp([6], 3, NG_RELU, input_dim=4)
            params = init_params(spec, InitScheme("msra", 9))
            vel = {}
            rng = np.random.default_rng(9)
            x = rng.standard_normal((8, 4))
            y = rng.integers(0, 3, 8)
            cfg = OptimConfig(lr=0.05)
            for _ in range(2):
                _, _, cache = forward(spec, params, x, y)
                grads = backward(spec, params, cache)
                sgd_step(params, grads, vel, cfg)
            outs.append(params)
        for i in outs[0]:
            for k in outs[0][i]:
                assert np.array_equal(outs[0][i][k], outs[1][i][k])
