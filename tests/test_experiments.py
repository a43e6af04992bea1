"""Experiment harness: dataset/model assembly, the training driver, the four
sweep procedures, CSV artifacts, and the command-line entry points.

Training runs here use deliberately tiny budgets; the qualitative claims at
their published tolerances live in test_acceptance.py.
"""

import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from ngnet import instrumentation, network, runner
from ngnet.cli import main as cli_main
from ngnet.config import (RULES, ExperimentConfig, build_experiment_config,
                          load_config)
from ngnet.csvio import SCHEMAS, emit_csv, read_csv
from ngnet.datasets import write_cifar10_records
from ngnet.errors import ConfigError, NgnetError
from ngnet.network import ActivationSpec, Dense
from ngnet.runner import (RunResult, build_model, converged, get_dataset,
                          run_capacity_sweep, run_config, run_critical_depth,
                          run_experiment, run_learning_behavior,
                          run_variance_study, train_run)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def mlp_cfg(tmp_path, **kw):
    """A config that trains in well under a second: a narrow MLP on raw 2-D
    spirals."""
    cfg = ExperimentConfig(experiment="single_run", seed=11,
                           out=str(tmp_path / "out"))
    cfg.model.family = "mlp"
    cfg.model.hidden = 8
    cfg.model.depth = 4
    cfg.dataset.kind = "synthetic_spirals"
    cfg.dataset.n = 240
    cfg.dataset.classes = 3
    cfg.activation = ActivationSpec(base="relu", ng=True, t_init=-1.0)
    cfg.optim.lr = 0.05
    cfg.optim.weight_decay = 0.0
    cfg.epochs = 4
    cfg.batch_size = 32
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def count_training(monkeypatch):
    """Record every train_run call a sweep makes from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].run_id)
        return train_run(*args, **kwargs)

    monkeypatch.setattr(runner, "train_run", counted)
    return calls


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

class TestAssembly:
    def test_unknown_dataset_kind_rejected(self, tmp_path):
        cfg = mlp_cfg(tmp_path)
        cfg.dataset.kind = "imagenet"
        with pytest.raises(ConfigError):
            get_dataset(cfg)

    def test_unknown_family_rejected(self, tmp_path):
        cfg = mlp_cfg(tmp_path)
        cfg.model.family = "transformer"
        with pytest.raises(ConfigError):
            build_model(cfg, 3)

    def test_mlp_depth_counts_weighted_layers(self, tmp_path):
        """family=mlp builds depth-1 hidden layers of model.hidden units
        plus the classifier."""
        cfg = mlp_cfg(tmp_path)
        cfg.model.depth = 6
        spec = build_model(cfg, 3)
        dense = [l for l in spec.layers if isinstance(l, Dense)]
        assert len(dense) == 6
        assert [l.units for l in dense] == [8] * 5 + [3]

    def test_mlp_of_depth_one_is_softmax_regression(self, tmp_path):
        """model.depth=1 is the classifier alone, which trains."""
        cfg = mlp_cfg(tmp_path, epochs=1)
        cfg.model.depth = 1
        data = get_dataset(cfg)
        assert build_model(cfg, data.num_classes).layers == [Dense(3)]
        res = train_run(cfg, data)
        assert len(res.rows) == 1 and not res.diverged

    def test_non_mlp_families_get_image_data(self, tmp_path):
        cfg = mlp_cfg(tmp_path)
        cfg.model.family = "toy_cnn"
        data = get_dataset(cfg)
        assert data.train_x.shape[1:] == (3, 8, 8)

    @pytest.mark.parametrize("fields, shape", [
        ({}, (2,)),
        ({"dataset.dims": 5}, (2,)),  # spirals are planar whatever dims
        ({"dataset.kind": "synthetic_blobs", "dataset.dims": 5}, (5,)),
        ({"model.family": "plain_cnn"}, (3, 8, 8)),
        ({"model.family": "toy_cnn", "model.input_hw": 4}, (3, 4, 4)),
        ({"dataset.kind": "cifar10_binary"}, (3, 32, 32)),
    ])
    def test_sample_shape(self, tmp_path, fields, shape):
        assert runner.sample_shape(run_config(mlp_cfg(tmp_path), "x",
                                              fields)) == shape

    @pytest.mark.parametrize("fields", [
        {"dataset.dims": 5},
        {"dataset.kind": "synthetic_blobs"},
        {"dataset.kind": "synthetic_blobs", "dataset.dims": 5},
    ])
    def test_mlp_trains_on_the_sample_shape(self, tmp_path, fields):
        """The dataset and the MLP's input width follow one sample shape."""
        cfg = run_config(mlp_cfg(tmp_path, epochs=1), "x", fields)
        data = get_dataset(cfg)
        assert data.train_x.shape[1:] == runner.sample_shape(cfg)
        res = train_run(cfg, data)
        assert len(res.rows) == 1 and not res.diverged

    def test_dataset_regeneration_is_identical(self, tmp_path):
        cfg = mlp_cfg(tmp_path)
        a, b = get_dataset(cfg), get_dataset(cfg)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)


# ---------------------------------------------------------------------------
# RunResult / convergence bookkeeping
# ---------------------------------------------------------------------------

def _row(epoch, acc, diverged=False):
    return {"run_id": "r", "epoch": epoch, "step": epoch * 10,
            "train_loss": 1.0, "train_acc": acc, "test_acc": acc,
            "lr_multiplier": 1.0, "diverged": diverged}


class TestRunResult:
    def test_epochs_to_threshold_first_crossing(self):
        res = RunResult("r", rows=[_row(1, 0.3), _row(2, 0.85), _row(3, 0.9)],
                        final_train_acc=0.9)
        # threshold = 0.9 * 0.9 = 0.81, first reached at epoch 2
        assert res.epochs_to_threshold(3, num_classes=3) == 2

    def test_epochs_to_threshold_budget_plus_one_when_missed(self):
        rows = [_row(1, 0.2), _row(2, float("nan"), diverged=True)]
        res = RunResult("r", rows=rows, final_train_acc=1.0, diverged=True)
        assert res.epochs_to_threshold(2, num_classes=3) == 3

    @pytest.mark.parametrize("rows, final", [
        ([_row(1, 0.6), _row(2, 0.0, diverged=True)], 0.6),
        ([_row(1, 0.0, diverged=True)], 0.0),
    ], ids=["epoch_2", "epoch_1"])
    def test_epochs_to_threshold_of_a_diverged_run(self, rows, final):
        """A diverged run keeps its last good epoch's accuracy as its final
        one and ends in a row of accuracy 0; it still reads budget+1."""
        res = RunResult("r", rows=rows, final_train_acc=final, diverged=True)
        assert res.epochs_to_threshold(4, num_classes=3) == 5

    def test_epochs_to_threshold_of_a_run_that_ended_at_chance(self):
        """A run that never left chance reaches 90% of its final accuracy
        at once; it never learned, so it reads budget+1."""
        res = RunResult("r", rows=[_row(1, 0.34), _row(2, 0.35)],
                        final_train_acc=0.35)
        assert not converged(res, num_classes=3)
        assert res.epochs_to_threshold(2, num_classes=3) == 3

    def test_converged_requires_above_chance(self):
        res = RunResult("r", final_train_acc=0.34)
        assert not converged(res, num_classes=3)
        res.final_train_acc = 0.50
        assert converged(res, num_classes=3)

    def test_diverged_run_never_converged(self):
        res = RunResult("r", final_train_acc=0.99, diverged=True)
        assert not converged(res, num_classes=3)


class TestTrainRun:
    def test_repeat_run_bitwise_identical(self, tmp_path):
        """(config, seed) fixes the whole trajectory: every float in the
        metric rows matches exactly across repeats."""
        cfg = mlp_cfg(tmp_path, run_id="a")
        a = train_run(cfg)
        b = train_run(cfg)
        assert len(a.rows) == cfg.epochs
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb

    def test_divergence_terminates_series(self, tmp_path):
        cfg = mlp_cfg(tmp_path, run_id="blowup")
        cfg.optim.lr = 1e9
        cfg.epochs = 6
        res = train_run(cfg)
        assert res.diverged
        last = res.rows[-1]
        assert last["diverged"] is True
        assert np.isnan(last["train_loss"])
        # the diverged row is the last row; nothing follows it
        assert all(not r["diverged"] for r in res.rows[:-1])
        assert len(res.rows) < cfg.epochs + 1

    def test_stats_collection_leaves_bn_training_unchanged(self, tmp_path):
        """Per-epoch probes must not touch the batch-norm running statistics,
        which feed every later eval-mode test accuracy."""
        cfg = mlp_cfg(tmp_path, run_id="bn")
        cfg.model.family = "plain_cnn"
        cfg.model.depth = 5
        cfg.model.width = 4
        cfg.model.with_bn = True
        cfg.dataset.n = 160
        cfg.epochs = 3
        runs = {}
        for collect in (False, True):
            res = train_run(cfg, collect_stats=collect)
            path = tmp_path / f"metrics_{collect}.csv"
            emit_csv(res.rows, str(path), schema="metrics")
            runs[collect] = (res.params, path.read_bytes())
        (p_off, csv_off), (p_on, csv_on) = runs[False], runs[True]
        assert csv_on == csv_off
        assert any("running_mean" in p for p in p_off.values())
        for i in p_off:
            for key in p_off[i]:
                assert np.array_equal(p_on[i][key], p_off[i][key]), (i, key)

    def test_flags_never_contradictory(self, tmp_path):
        cfg = mlp_cfg(tmp_path, run_id="ok")
        res = train_run(cfg)
        assert not res.diverged
        assert all(np.isfinite(r["train_loss"]) for r in res.rows)
        assert all(0.0 <= r["train_acc"] <= 1.0 for r in res.rows)
        assert all(0.0 <= r["test_acc"] <= 1.0 for r in res.rows)


class TestStepLifetime:
    """A step's ``backward`` frees each layer's cached arrays as it walks,
    and no array of a training step is alive while the work after the step
    loop runs (the epoch's eval and stats, the closing probes) or while the
    batch of a non-finite loss is walked again, so no phase holds more than
    one batch's activations."""

    WATCHED = [(runner, "_eval_acc"), (runner, "_collect_epoch_stats"),
               (runner, "_first_non_finite"),
               (instrumentation, "sandwich_probes")]

    @classmethod
    def watch(cls, monkeypatch):
        """Keep weak references to the logits and `probs` of each labelled
        forward the runner makes, and have each watched function assert on
        entry that none of them is alive; return the calls per function."""
        refs, calls = [], Counter()

        def labelled(*args, **kwargs):
            logits, loss, cache = network.forward(*args, **kwargs)
            if cache is not None:
                refs.extend([weakref.ref(logits), weakref.ref(cache["probs"])])
            return logits, loss, cache

        def checked(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                assert refs and all(ref() is None for ref in refs), \
                    f"a training step's array is alive in {name}"
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(runner, "forward", labelled)
        for module, name in cls.WATCHED:
            monkeypatch.setattr(module, name,
                                checked(name, getattr(module, name)))
        return calls

    @staticmethod
    def shipped(tmp_path, name, *overrides):
        return build_experiment_config(load_config(
            str(CONFIGS / name), [*overrides, f"out={tmp_path / 'out'}"]))

    def test_single_run_with_stats_on_a_batch_norm_cnn(self, tmp_path,
                                                       monkeypatch):
        calls = self.watch(monkeypatch)
        cfg = mlp_cfg(tmp_path, run_id="bn", epochs=2)
        cfg.model.family = "plain_cnn"
        cfg.model.depth = 5
        cfg.model.width = 4
        cfg.model.with_bn = True
        cfg.dataset.n = 160
        run_experiment(cfg)
        assert calls == {"_eval_acc": 2, "_collect_epoch_stats": 2,
                         "sandwich_probes": 1}

    def test_variance_study(self, tmp_path, monkeypatch):
        calls = self.watch(monkeypatch)
        run_experiment(self.shipped(tmp_path, "variance_study.cfg",
                                    "epochs=2"))
        assert calls == {"_eval_acc": 4, "_collect_epoch_stats": 4,
                         "sandwich_probes": 2}

    @pytest.mark.parametrize("activation", [
        ActivationSpec(base="relu", ng=True, t_init=-1.0),
        ActivationSpec(base="selu", ng=True, t_init=-1.0)],
        ids=["relu", "selu"])
    def test_backward_frees_each_layer_as_it_walks(self, monkeypatch,
                                                   activation):
        """On a BN ResNet-8, the last block's cached arrays are dead before
        the stem's conv backward runs, and every layer's are dead when
        ``backward`` returns (SELU caches each activation's input too)."""
        spec = network.build_resnet(8, 2, 3, activation, input_hw=8)
        params = network.init_params(spec, network.InitScheme("msra", 5))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3, 8, 8))
        _, _, cache = network.forward(spec, params, x, rng.integers(0, 3, 4))
        refs = [[weakref.ref(v) for v in c.values()
                 if isinstance(v, np.ndarray)] for c in cache["layers"]]
        last_block = max(i for i, layer in enumerate(spec.layers)
                         if isinstance(layer, network.ResBlockStart))
        tail = [ref for layer_refs in refs[last_block:] for ref in layer_refs]
        assert len(tail) >= 6  # two convs' inputs, two xhat, two inv_std
        at_stem = []
        conv2d_backward = network.conv2d_backward

        def watched(*args, input_grad=True, **kwargs):
            if not input_grad:  # only the stem skips its input gradient
                at_stem.append([ref() is None for ref in tail])
            return conv2d_backward(*args, input_grad=input_grad, **kwargs)

        monkeypatch.setattr(network, "conv2d_backward", watched)
        network.backward(spec, params, cache)
        assert at_stem == [[True] * len(tail)]
        assert all(ref() is None for layer_refs in refs for ref in layer_refs)

    def test_diverging_sweep(self, tmp_path, monkeypatch, capsys):
        """Each wrapped run's loss goes non-finite; its batch is walked
        again, and the run is probed, after its step is dropped."""
        calls = self.watch(monkeypatch)
        run_experiment(self.shipped(tmp_path, "learning_behavior.cfg",
                                    "optim.lr=0.3", "epochs=4"))
        assert calls["_first_non_finite"] == 3
        assert calls["sandwich_probes"] == 6
        assert capsys.readouterr().err.count("non-finite loss") == 3


# ---------------------------------------------------------------------------
# Experiment procedures
# ---------------------------------------------------------------------------

def capacity_cfg(tmp_path, **kw):
    cfg = mlp_cfg(tmp_path, experiment="capacity_sweep")
    cfg.model.family = "toy_cnn"
    cfg.dataset.n = 160
    cfg.epochs = 3
    cfg.activation.granularity = "channel"
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


class TestCapacitySweep:
    def test_summary_covers_every_setting(self, tmp_path):
        cfg = capacity_cfg(tmp_path, t_values=[-1.0, -0.25])
        _, summary = run_capacity_sweep(cfg)
        assert [r["setting"] for r in summary] == \
            ["none", "t-1", "t-0.25", "trainable"]
        assert all(0.0 <= r["max_train_acc"] <= 1.0 for r in summary)
        rows = read_csv(os.path.join(cfg.out, "capacity.csv"))
        assert len(rows) == 4

    def test_deep_shift_matches_identity_baseline_exactly(self, tmp_path):
        """With the fixed shift far below every pre-activation the wrapped
        ReLU never clips, so its whole trajectory equals the identity
        network's, accuracy included."""
        cfg = capacity_cfg(tmp_path, t_values=[-100.0])
        _, summary = run_capacity_sweep(cfg)
        by = {r["setting"]: r for r in summary}
        assert by["t-100"]["max_train_acc"] == by["none"]["max_train_acc"]

    def test_trainable_row_reports_final_mean_t(self, tmp_path):
        cfg = capacity_cfg(tmp_path, t_values=[-1.0])
        _, summary = run_capacity_sweep(cfg)
        by = {r["setting"]: r for r in summary}
        assert np.isfinite(by["trainable"]["final_mean_t"])
        assert np.isnan(by["none"]["final_mean_t"])


class TestCriticalDepth:
    def test_shallow_net_converges_on_separable_data(self, tmp_path):
        cfg = mlp_cfg(tmp_path, experiment="critical_depth",
                      depth_start=2, depth_step=6, depth_count=1)
        cfg.dataset.kind = "synthetic_blobs"
        cfg.dataset.dims = 6
        cfg.dataset.n = 160
        cfg.epochs = 6
        results, critical = run_critical_depth(cfg)
        assert critical["ng"] == 2 and critical["plain"] == 2
        rows = read_csv(os.path.join(cfg.out, "critical_depth.csv"))
        # one row per (variant, depth) + one critical row per variant
        assert len(rows) == 4
        crit = [r for r in rows if r["run_id"].endswith("critical")]
        assert {r["variant"] for r in crit} == {"ng", "plain"}


class TestLearningBehavior:
    def test_grid_and_spread_rows(self, tmp_path):
        cfg = mlp_cfg(tmp_path, experiment="learning_behavior")
        results, spread = run_learning_behavior(cfg)
        assert len(results) == 6  # 3 inits x 2 variants
        rows = read_csv(os.path.join(cfg.out, "learning_behavior.csv"))
        assert len(rows) == 8
        spread_rows = {r["variant"]: int(r["epochs_to_threshold"])
                       for r in rows if r["init"] == "spread"}
        assert spread_rows == {k: v for k, v in spread.items()}
        for vname in ("ng", "plain"):
            es = [int(r["epochs_to_threshold"]) for r in rows
                  if r["variant"] == vname and r["init"] != "spread"]
            assert spread[vname] == max(es) - min(es)


class TestVarianceStudy:
    def test_probes_layerstats_and_ttrace(self, tmp_path):
        cfg = mlp_cfg(tmp_path, experiment="variance_study", probe_steps=4)
        cfg.activation.trainable = True
        results = run_variance_study(cfg)
        assert set(results) == {"ng", "plain"}

        # every per-sample probe satisfies the analytic bounds
        slack = 1e-9
        probed = 0
        for res in results.values():
            for row in res.layerstats_rows:
                if np.isfinite(row["lower_bound"]):
                    probed += 1
                    assert row["lower_bound"] * (1 - slack) - 1e-300 \
                        <= row["var_dw"]
                    assert row["var_dw"] <= row["upper_bound"] * (1 + slack) \
                        + 1e-300
        assert probed == 2 * cfg.probe_steps * 4  # 4 dense layers each

        # the trainable run's shift spread grows over training
        tstd = {}
        for row in results["ng"].ttrace_rows:
            tstd.setdefault(row["layer"], []).append(row["t_std"])
        assert tstd
        for series in tstd.values():
            assert series[-1] > series[0]
        assert not results["plain"].ttrace_rows

    def test_golden_headers(self, tmp_path):
        cfg = mlp_cfg(tmp_path, experiment="variance_study", probe_steps=2,
                      epochs=2)
        run_variance_study(cfg)
        for name in ("metrics", "layerstats", "ttrace"):
            path = os.path.join(cfg.out, f"{name}.csv")
            with open(path) as fh:
                header = fh.readline().strip().split(",")
            assert header == SCHEMAS[name]


class TestDivergedRuns:
    """A run that diverges is a row of its sweep: its metrics rows are
    written, it gets no probes, and its cause is one stderr line."""

    @staticmethod
    def check_written(out, run_ids, err):
        by_run: dict = {}
        for row in read_csv(os.path.join(out, "metrics.csv")):
            by_run.setdefault(row["run_id"], []).append(row)
        assert sorted(by_run) == sorted(run_ids)
        assert all(rows[-1]["diverged"] == "true" for rows in by_run.values())
        path = os.path.join(out, "layerstats.csv")
        stats = read_csv(path) if os.path.exists(path) else []
        # probe rows are the only ones with a var_dw
        assert all(r["var_dw"] == "nan" for r in stats)
        for run_id in run_ids:
            assert f"{run_id}: diverged at epoch " in err

    def test_diverged_sweep_writes_one_stderr_line_per_run(self, tmp_path):
        """The divergence lines are all a diverging sweep writes to stderr:
        no NumPy floating-point warning escapes."""
        out = tmp_path / "out"
        res = python_m_ngnet(["sweep", "--config",
                              str(CONFIGS / "learning_behavior.cfg"),
                              "--override", "optim.lr=0.3",
                              "--override", "epochs=4", "--out", str(out)])
        assert res.returncode == 0, res.stderr
        lines = res.stderr.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"learning_behavior-s7-ng-{init}"
            for init in ("xavier", "msra", "orthogonal")]
        assert all(": diverged at epoch " in line for line in lines)
        assert res.stdout.endswith(
            f"learning_behavior complete; wrote CSVs to {out}\n")

    def test_diverged_variance_study_writes_both_runs(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli_main(["sweep", "--config",
                         str(CONFIGS / "variance_study.cfg"),
                         "--override", "optim.lr=1e6",
                         "--override", "epochs=2", "--out", out]) == 0
        self.check_written(out, ["variance_study-s7-ng",
                                 "variance_study-s7-plain"],
                           capsys.readouterr().err)

    def test_diverged_single_run_with_probes(self, tmp_path, capsys):
        cfg = mlp_cfg(tmp_path, run_id="blowup", probe_steps=2)
        cfg.optim.lr = 1e6
        (res,) = run_experiment(cfg)
        assert res.diverged
        epoch, step, cause = res.divergence
        assert res.rows[-1]["epoch"] == epoch and step >= 1 and cause
        self.check_written(cfg.out, ["blowup"], capsys.readouterr().err)

    @pytest.mark.parametrize("family", ["mlp", "plain_cnn"])
    def test_non_finite_loss_names_its_first_layer(self, tmp_path, capsys,
                                                   family):
        """The cause names the first layer whose output is not finite on
        the failing batch, by an index and kind that exist in the spec."""
        cfg = mlp_cfg(tmp_path, run_id="blowup")
        cfg.optim.lr = 1e9
        if family == "plain_cnn":
            cfg.model.family, cfg.model.depth = "plain_cnn", 8
        res = train_run(cfg)
        cause = res.divergence[2]
        found = re.fullmatch(r"non-finite loss \(first at layer (\d+), "
                             r"(\w+)\)", cause)
        assert found, cause
        layer = res.spec.layers[int(found[1])]
        assert type(layer).__name__ == found[2] and found[2] != "Activation"
        assert cause in capsys.readouterr().err


def bits(rows):
    """Rows with each float as its hex string, so that rows compare bitwise
    and a nan equals a nan."""
    return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()}
            for row in rows]


class TestSweepRunsStandAlone:
    """A sweep run is its own config: training that config alone, on the
    dataset it builds itself, gives every per-run row the sweep wrote for
    it, bitwise."""

    @staticmethod
    def run_of(cfg, name, ng):
        run = copy.deepcopy(cfg)
        run.activation.ng = ng
        run.run_id = f"{cfg.run_id}-{name}"
        return run

    @staticmethod
    def check(cfg, results, runs, collect_stats=False):
        alone = [train_run(run, collect_stats=collect_stats) for run in runs]
        for schema, attr in runner.RUN_CSVS.items():
            assert [bits(getattr(res, attr)) for res in alone] == \
                [bits(getattr(res, attr)) for res in results]
            rows = [row for res in alone for row in getattr(res, attr)]
            if rows:
                path = os.path.join(cfg.out, f"alone-{schema}.csv")
                emit_csv(rows, path, schema=schema)
                assert Path(path).read_bytes() == \
                    Path(cfg.out, f"{schema}.csv").read_bytes()

    def test_critical_depth(self, tmp_path):
        cfg = mlp_cfg(tmp_path, experiment="critical_depth", run_id="cd",
                      depth_start=2, depth_step=1, depth_count=2, epochs=2)
        results, _ = run_critical_depth(cfg)
        runs = []
        for v in ("ng", "plain"):
            for depth in (2, 3):
                run = self.run_of(cfg, f"{v}-d{depth}", ng=v == "ng")
                run.model.depth = depth
                runs.append(run)
        self.check(cfg, results, runs)

    def test_learning_behavior(self, tmp_path):
        cfg = mlp_cfg(tmp_path, experiment="learning_behavior", run_id="lb",
                      epochs=2)
        results, _ = run_learning_behavior(cfg)
        runs = []
        for v in ("ng", "plain"):
            for init in ("xavier", "msra", "orthogonal"):
                run = self.run_of(cfg, f"{v}-{init}", ng=v == "ng")
                run.init = init
                runs.append(run)
        self.check(cfg, results, runs)

    def test_variance_study(self, tmp_path):
        """Epoch rows, then the closing probe rows, and the shift traces."""
        cfg = mlp_cfg(tmp_path, experiment="variance_study", run_id="vs",
                      probe_steps=2, epochs=2)
        results = run_variance_study(cfg)
        runs = [self.run_of(cfg, v, ng=v == "ng") for v in ("ng", "plain")]
        self.check(cfg, list(results.values()), runs, collect_stats=True)


class TestExperimentDispatch:
    def test_unknown_kind_rejected(self, tmp_path):
        cfg = mlp_cfg(tmp_path, experiment="ablation")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_csvs_bitwise_identical_across_repeats(self, tmp_path):
        base = mlp_cfg(tmp_path, experiment="variance_study", probe_steps=2,
                       epochs=2)
        blobs = []
        for sub in ("one", "two"):
            cfg = copy.deepcopy(base)
            cfg.out = str(tmp_path / sub)
            run_experiment(cfg)
            blobs.append({name: Path(cfg.out, name).read_bytes()
                          for name in os.listdir(cfg.out)})
        assert blobs[0].keys() == blobs[1].keys()
        assert blobs[0] == blobs[1]

    def test_failed_run_leaves_the_runs_before_it(self, tmp_path,
                                                  monkeypatch):
        """Each run's rows are on disk when it ends: a sweep whose third run
        fails leaves the first two runs' rows, as an uninterrupted sweep
        writes them, and no summary."""
        whole = mlp_cfg(tmp_path, experiment="learning_behavior", epochs=2,
                        out=str(tmp_path / "whole"))
        run_learning_behavior(whole)
        cfg = copy.deepcopy(whole)
        cfg.out = str(tmp_path / "failed")
        calls = []

        def failing_third(run, *args, **kwargs):
            if len(calls) == 2:
                raise RuntimeError("third run fails")
            calls.append(run.run_id)
            return train_run(run, *args, **kwargs)

        monkeypatch.setattr(runner, "train_run", failing_third)
        with pytest.raises(RuntimeError, match="third run fails"):
            run_learning_behavior(cfg)
        header, *lines = Path(whole.out, "metrics.csv").read_bytes() \
            .splitlines(keepends=True)
        kept = [line for line in lines
                if line.split(b",")[0].decode() in calls]
        assert Path(cfg.out, "metrics.csv").read_bytes() == \
            header + b"".join(kept)
        assert sorted(os.listdir(cfg.out)) == ["metrics.csv"]

    def test_summary_run_id_refused_before_training(self, tmp_path,
                                                    monkeypatch):
        """A run id only the sweep's summary CSV holds stops it too."""
        cfg = mlp_cfg(tmp_path, experiment="critical_depth", run_id="cd",
                      depth_start=2, depth_step=1, depth_count=1, epochs=1)
        os.makedirs(cfg.out)
        path = os.path.join(cfg.out, "critical_depth.csv")
        emit_csv([{"run_id": "cd-ng-critical"}], path, schema="critical_depth")
        before = Path(path).read_bytes()
        calls = count_training(monkeypatch)
        with pytest.raises(NgnetError, match="cd-ng-critical"):
            run_experiment(cfg)
        assert calls == []
        assert os.listdir(cfg.out) == ["critical_depth.csv"]
        assert Path(path).read_bytes() == before


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def leaf_keys(obj, prefix=""):
    """The dotted name of every leaf field of a config and its sections."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaf_keys(value, prefix + f.name + ".")
        else:
            yield prefix + f.name


CONFIG_TEXT = """\
# tiny smoke run
experiment = single_run
model.family = mlp
model.hidden = 8
model.depth = 3
dataset.kind = synthetic_spirals
dataset.n = 160
activation.base = relu
activation.ng = true
activation.t_init = -1
optim.lr = 0.05
optim.weight_decay = 0
epochs = 2
seed = 5
"""


def python_m_ngnet(argv, cwd=None):
    """Run ``python -m ngnet argv`` on this checkout's source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "ngnet", *argv], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


# command line -> what its error line must name (see refusal_argv).  The
# CLI refuses CLI_REFUSALS before any config rule runs; REFUSALS adds four
# refusals of config rules that other tests run in-process.
CLI_REFUSALS = {
    ("run", "--config", "{tmp}/nonexistent.cfg"): "nonexistent.cfg",
    ("run", "--config", "{tmp}"): "Is a directory",
    ("run", "--config", "{file}"): "cannot read config",
    **{("grad-check", "--config", "{cfg}", "--tolerance", t): "--tolerance"
       for t in ("nan", "0", "inf")},
    ("inspect-cifar", "{tmp}/missing.bin"): "missing.bin",
}
SELU = ("run", "--config", "{cfg}", "--override", "activation.base=selu",
        "--override")
REFUSALS = {
    **CLI_REFUSALS,
    SELU + ("activation.base_kwargs.lam=inf",): "activation.base_kwargs",
    SELU + ("activation.base_kwargs.alpha=inf",): "activation.base_kwargs",
    ("run", "--config", "{cfg}", "--override", "optim.lr=nan"): "optim.lr",
    ("run", "--config", "{cfg}", "--out", "{file}"): "cannot make directory",
}


def refusal_cases(table):
    return pytest.mark.parametrize("argv, named", table.items(),
                                   ids=[" ".join(argv) for argv in table])


class TestCli:
    def write_cfg(self, tmp_path, text=CONFIG_TEXT):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return str(path)

    def test_run_writes_metrics(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli_main(["run", "--config", cfg, "--out", out]) == 0
        rows = read_csv(os.path.join(out, "metrics.csv"))
        assert len(rows) == 2
        assert "final_train_acc" in capsys.readouterr().out

    def test_override_and_seed_flags(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        out = str(tmp_path / "out")
        assert cli_main(["run", "--config", cfg, "--out", out,
                         "--seed", "9", "--override", "epochs=3"]) == 0
        rows = read_csv(os.path.join(out, "metrics.csv"))
        assert len(rows) == 3
        assert rows[0]["run_id"] == "single_run-s9"

    def test_sweep_runs_configured_experiment(self, tmp_path, capsys):
        text = CONFIG_TEXT.replace("experiment = single_run",
                                   "experiment = capacity_sweep") \
            + "model.family = toy_cnn\nt_values = -1,-0.5\nepochs = 2\n"
        cfg = self.write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert cli_main(["sweep", "--config", cfg, "--out", out]) == 0
        assert len(read_csv(os.path.join(out, "capacity.csv"))) == 4
        assert "capacity_sweep complete" in capsys.readouterr().out

    @pytest.mark.parametrize("base, kwarg", [("selu", "lam=1.1"),
                                             ("lrelu", "alpha=0.2")])
    def test_capacity_sweep_over_a_base_with_keywords(self, tmp_path, base,
                                                      kwarg):
        """The `none` setting's identity base takes none of the keyword
        arguments of the sweep's base."""
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(CONFIGS / "capacity.cfg"),
                         "--out", str(out), "--override", "epochs=1",
                         "--override", f"activation.base={base}",
                         "--override",
                         f"activation.base_kwargs.{kwarg}"]) == 0
        assert len(read_csv(os.path.join(out, "capacity.csv"))) == 6

    def test_missing_seed_is_a_clean_error(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, CONFIG_TEXT.replace("seed = 5", ""))
        assert cli_main(["run", "--config", cfg]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("override, name", [
        ("optim.lr=-1", "lr"),
        ("optim.lr=abc", "optim.lr"),
        ("batch_size=0", "batch_size"),
        ("batch_size=true", "batch_size"),
        ("epochs=0", "epochs"),
        ("epochs=1.5", "epochs"),
        ("model.depth=abc", "model.depth"),
        ("model.width=2.5", "model.width"),
        ("activation.base=foo", "activation.base"),
        ("activation.t_init=abc", "activation.t_init"),
        ("activation.granularity=pixel", "activation.granularity"),
        ("activation.granularity=layer", "activation.granularity"),
        ("dataset.n=0", "dataset.n"),
        ("optim.t_lr=-1", "t_lr"),
        pytest.param("optim.t_momentum=0.5",
                     "unknown config key 'optim.t_momentum'",
                     id="optim.t_momentum=0.5-unknown"),
        ("optim.lr=0", "optim.lr"),
        ("optim.momentum=1", "optim.momentum"),
        ("optim.weight_decay=-0.1", "optim.weight_decay"),
        ("dataset.n=2", "dataset.n"),
        ("dataset.noise=abc", "dataset.noise"),
        ("dataset.noise=-0.1", "dataset.noise"),
        ("dataset.spread=nan", "dataset.spread"),
        ("depth_start=0", "depth_start"),
        ("depth_step=abc", "depth_step"),
        ("depth_count=2.5", "depth_count"),
        ("t_values=-1,abc", "t_values"),
        # a variance_study without probes; elsewhere 0 means "no probes"
        pytest.param("experiment=variance_study probe_steps=0", "probe_steps",
                     id="probe_steps=0-probe_steps"),
        ("probe_steps=121", "probe_steps"),  # 160 spiral points train 120
        ("model=3", "model"),
        ("optim=0.1", "optim"),
        ("dataset=blobs", "dataset"),
        ("activation=relu", "activation"),
        ("optim.schedule=foo", "optim.schedule"),
        ("optim.schedule=none", "optim.schedule"),
        ("schedule=step", "schedule"),
        ("schedule.pateince=3", "schedule.pateince"),
        ("schedule.kind=step", "schedule.kind"),
        ("schedule.patience=3", "schedule.patience"),
        ("schedule.metric=train_loss", "schedule.metric"),
        ("schedule.factor=abc", "schedule.factor"),
        ("schedule.epochs=1 schedule.factor=abc", "schedule.epochs"),
        ("schedule.factor=-1", "schedule.factor"),
        ("schedule.factor=inf", "schedule.factor"),
        ("schedule.epochs=abc", "schedule.epochs"),
        ("schedule.epochs=1,-1", "schedule.epochs"),
        ("epochs.x=1", "epochs.x"),
        ("foo.bar=1", "foo.bar"),
        ("model.input_hw=0", "model.input_hw"),
        ("model.family=plain_cnn model.depth=8 model.input_hw=6",
         "model.input_hw"),
        ("model.family=resnet model.depth=9", "model.depth"),
        ("experiment=critical_depth model.family=plain_cnn model.depth=8 "
         "depth_step=5", "depth_step"),
        # batch norm on a batch of one: every batch, or the last of 120 = 7*17 + 1
        ("model.family=resnet model.depth=8 model.with_bn=true batch_size=1",
         "batch_size"),
        ("model.family=plain_cnn model.depth=8 model.with_bn=true batch_size=7",
         "batch_size"),
        ("model.hidden=0", "model.hidden"),
        ("model.hidden=4,0", "model.hidden"),
        ("model.hidden=8,8", "model.hidden"),  # one width for every layer
        ("model.hidden=abc", "model.hidden"),
        ("dataset.dims=0", "dataset.dims"),
        ("dataset.dims=abc", "dataset.dims"),
        ("seed=abc", "seed"),
        ("seed=1.5", "seed"),
        ("activation.ng=abc", "activation.ng"),
        ("model.with_bn=abc", "model.with_bn"),
        ("activation.trainable=abc", "activation.trainable"),
        ("dataset.augment=abc", "dataset.augment"),
        ("dataset.augment=true", "dataset.augment"),  # on vector input
        ("dataset.kind=cifar10_binary dataset.path=nowhere.bin",
         "dataset.path"),
        ("convergence_margin=0.1", "convergence_margin"),
        ("dataset.classes=1", "dataset.classes"),
        ("model.hidden=,", "model.hidden"),
        ("experiment=capacity_sweep t_values=,", "t_values"),
        # nan or inf would train a silent diverged run, and an integer
        # beyond float64 would stop the run with an OverflowError
        ("optim.lr=nan", "optim.lr"),
        ("optim.weight_decay=nan", "optim.weight_decay"),
        ("optim.lr=inf", "optim.lr"),
        ("activation.t_init=inf", "activation.t_init"),
        ("activation.base=selu activation.base_kwargs.lam=inf",
         "activation.base_kwargs"),
        ("activation.base=selu activation.base_kwargs.alpha=inf",
         "activation.base_kwargs"),
        ("activation.base_kwargs.alpha.x=1", "activation.base_kwargs.alpha.x"),
        ("activation.base_kwargs=3 activation.base_kwargs.alpha=1",
         "activation.base_kwargs.alpha"),
        pytest.param("optim.lr=1" + "0" * 400, "optim.lr",
                     id="optim.lr=an integer beyond float64"),
    ])
    def test_invalid_config_is_a_clean_error(self, tmp_path, capsys,
                                             override, name):
        """`override` holds one or more space-separated key=value pairs."""
        self.check_refused(tmp_path, capsys, override.split(), name)

    def check_refused(self, tmp_path, capsys, overrides, name):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        argv = ["run", "--config", cfg, "--out", str(out)]
        for assignment in overrides:
            argv += ["--override", assignment]
        assert cli_main(argv) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base, kwarg", [
        ("identity", "alpha=0.2"), ("relu", "alpha=0.2"),
        ("prelu", "alpha=0.2"), ("lrelu", "beta=1")])
    def test_keyword_the_base_does_not_take_is_refused(self, tmp_path,
                                                       capsys, base, kwarg):
        """The error names the configured base and the keyword, and no
        class, factory or lambda behind the base's name."""
        out = tmp_path / "out"
        assert cli_main(["run", "--config", self.write_cfg(tmp_path),
                         "--out", str(out),
                         "--override", f"activation.base={base}",
                         "--override", f"activation.base_kwargs.{kwarg}"]) == 2
        err = capsys.readouterr().err
        assert f"base activation {base!r} takes no keyword argument " \
            f"{kwarg.split('=')[0]!r}" in err
        assert not re.search(r"lambda|Leaky|_lrelu|\w\(", err), err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["", "model", "dataset",
                                         "activation", "optim"],
                             ids=lambda section: section or "top")
    def test_section_refuses_an_undeclared_attribute(self, section):
        """A misspelt field set in code raises instead of doing nothing."""
        cfg = ExperimentConfig()
        obj = getattr(cfg, section) if section else cfg
        with pytest.raises(AttributeError):
            obj.no_such_key = 1

    def test_every_key_has_a_rule(self):
        """config.RULES holds exactly the leaf keys: the keys without a rule
        and the rules without a key are both empty."""
        keys = set(leaf_keys(ExperimentConfig()))
        assert (sorted(keys - set(RULES)), sorted(set(RULES) - keys)) == \
            ([], [])

    @pytest.mark.parametrize("key", [
        key for key in leaf_keys(ExperimentConfig())
        # free text: any value names a valid output directory or run id,
        # and a path no dataset but CIFAR reads
        if key not in ("out", "run_id", "dataset.path")])
    def test_every_key_refuses_a_wrong_type(self, tmp_path, capsys, key):
        """A number for a text key, text for any other key."""
        default = reduce(getattr, key.split("."), ExperimentConfig())
        wrong = "3" if isinstance(default, str) else "abc"
        self.check_refused(tmp_path, capsys, [f"{key}={wrong}"], key)

    @pytest.mark.parametrize("override", [
        "model.family=plain_cnn model.depth=8 model.with_bn=true batch_size=8",
        "model.family=resnet model.depth=8 model.with_bn=false batch_size=7",
        "model.family=mlp model.with_bn=true batch_size=1",
    ])
    def test_config_without_a_batch_norm_batch_of_one_loads(self, tmp_path,
                                                            override):
        raw = load_config(self.write_cfg(tmp_path), override.split())
        assert build_experiment_config(raw).batch_size == \
            int(override.rsplit("=", 1)[1])

    def test_probes_beyond_training_split_are_a_clean_error(self, tmp_path,
                                                             capsys):
        # 160 spiral points leave 120 for training
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", cfg, "--out", str(out),
                         "--override", "experiment=variance_study",
                         "--override", "probe_steps=121"]) == 2
        assert "probe_steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, named", [
        # one record goes to the test split
        pytest.param("dataset.subset=1", "dataset.subset=1", id="subset=1"),
        # ten records train eight
        pytest.param("probe_steps=9",
                     "probe_steps=9 exceeds the 8 training samples",
                     id="probe_steps=9"),
        pytest.param("model.family=plain_cnn model.depth=5 "
                     "model.with_bn=true batch_size=7",
                     "batch_size=7 leaves a training batch of one",
                     id="bn-batch_size=7"),
    ])
    def test_cifar_training_count_is_checked_at_load(self, tmp_path, capsys,
                                                     override, named):
        path = tmp_path / "batch.bin"
        rng = np.random.default_rng(0)
        write_cifar10_records(str(path), rng.integers(0, 10, 10),
                              rng.integers(0, 256, (10, 3, 32, 32)))
        self.check_refused(tmp_path, capsys, [
            "dataset.kind=cifar10_binary", f"dataset.path={path}",
            *override.split()], named)

    def test_malformed_cifar_file_refused_at_load(self, tmp_path, capsys):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x01" * (3073 + 17))
        self.check_refused(tmp_path, capsys, [
            "dataset.kind=cifar10_binary", f"dataset.path={path}"],
            "length 3090 is not a multiple of 3073")

    def test_bad_ladder_depth_refused_before_training(self, tmp_path, capsys,
                                                      monkeypatch):
        calls = count_training(monkeypatch)
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(CONFIGS / "critical_depth.cfg"),
                         "--out", str(out), "--override", "depth_step=5"]) == 2
        assert "depth_step" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_model_depth_refused_beside_a_ladder(self, tmp_path, capsys,
                                                 monkeypatch, command):
        """A critical-depth config's model.depth is checked at load with its
        ladder: ``run`` builds it, and a ``sweep`` that reads only the
        ladder still refuses it."""
        calls = count_training(monkeypatch)
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(CONFIGS / "critical_depth.cfg"),
                         "--out", str(out), "--override", "model.depth=9"]) == 2
        assert "model.depth" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("override, named", [
        ("model.family=toy_cnn", "model.family=toy_cnn")])
    def test_ladder_over_a_fixed_depth_refused(self, tmp_path, override,
                                               named):
        """A critical-depth ladder over a model that model.depth does not
        build (the toy CNN) would train one model at every depth."""
        out = tmp_path / "out"
        res = python_m_ngnet(["sweep", "--config",
                              str(CONFIGS / "critical_depth.cfg"),
                              "--out", str(out), "--override", override])
        assert res.returncode == 2, res.stderr
        assert "error:" in res.stderr and named in res.stderr
        assert "depth_start/depth_step/depth_count" in res.stderr
        assert "Traceback" not in res.stderr and not out.exists()

    def test_mlp_ladder_trains_each_depth(self, tmp_path, monkeypatch):
        """An MLP is built at model.depth, so its critical-depth ladder
        trains depth - 1 hidden layers of model.hidden units at each rung."""
        built = []

        def recorded(cfg, num_classes):
            spec = build_model(cfg, num_classes)
            built.append([l.units for l in spec.layers
                          if isinstance(l, Dense)])
            return spec

        monkeypatch.setattr(runner, "build_model", recorded)
        assert cli_main(["sweep", "--config",
                         str(CONFIGS / "critical_depth.cfg"),
                         "--out", str(tmp_path / "out"),
                         "--override", "model.family=mlp",
                         "--override", "epochs=1"]) == 0
        assert built == [[16] * (depth - 1) + [3]
                         for _ in range(2) for depth in (8, 14, 20, 26)]

    def test_repeated_run_id_refused_before_training(self, tmp_path, capsys,
                                                     monkeypatch):
        cfg = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        calls = count_training(monkeypatch)
        assert cli_main(["run", "--config", cfg, "--out", str(out),
                         "--override", "epochs=3"]) == 2
        assert "run_id already present" in capsys.readouterr().err
        assert calls == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("t_values,run_id", [
        ("-1,-1", "capacity_sweep-s7-t-1"),
        ("-0.1234567,-0.1234568", "capacity_sweep-s7-t-0.123457")])
    def test_run_id_repeated_within_a_sweep_refused_before_training(
            self, tmp_path, capsys, monkeypatch, t_values, run_id):
        calls = count_training(monkeypatch)
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(CONFIGS / "capacity.cfg"),
                         "--out", str(out), "--override", "epochs=1",
                         "--override", f"t_values={t_values}"]) == 2
        assert f"run_id repeats within the sweep: ['{run_id}']" in \
            capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_output_path_of_a_file_refused_before_training(
            self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        calls = count_training(monkeypatch)
        assert cli_main(["run", "--config", self.write_cfg(tmp_path),
                         "--out", str(out)]) == 2
        assert f"cannot make directory {out}" in capsys.readouterr().err
        assert calls == [] and out.read_text() == "not a directory\n"

    def test_foreign_csv_header_refused_before_training(
            self, tmp_path, capsys, monkeypatch):
        """A per-run CSV with another header stops the run before it
        trains, not after metrics.csv was written."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "layerstats.csv").write_text("run_id,step,layer\nx,1,0\n")
        before = (out / "layerstats.csv").read_bytes()
        calls = count_training(monkeypatch)
        assert cli_main(["run", "--config", self.write_cfg(tmp_path),
                         "--out", str(out)]) == 2
        assert "existing header" in capsys.readouterr().err
        assert calls == [] and os.listdir(out) == ["layerstats.csv"]
        assert (out / "layerstats.csv").read_bytes() == before

    def test_run_config_equals_the_overridden_config(self):
        """A sweep's run settings are the dotted keys --override names."""
        path = str(CONFIGS / "critical_depth.cfg")
        run = run_config(build_experiment_config(load_config(path)), "x",
                         {"model.depth": 14, "activation.ng": False})
        loaded = build_experiment_config(load_config(
            path, ["model.depth=14", "activation.ng=false"]))

        def values(cfg):
            return [(key, reduce(getattr, key.split("."), cfg))
                    for key in leaf_keys(cfg) if key != "run_id"]
        assert values(run) == values(loaded)

    def test_free_text_keys_keep_their_text(self, tmp_path):
        raw = load_config(self.write_cfg(tmp_path),
                          ["run_id=007", "out=3", "dataset.path=1.50"])
        cfg = build_experiment_config(raw)
        assert (cfg.run_id, cfg.out, cfg.dataset.path) == ("007", "3", "1.50")

    def test_single_t_value_is_a_list(self, tmp_path):
        cfg = self.write_cfg(tmp_path, CONFIG_TEXT + "t_values = -0.5\n")
        assert build_experiment_config(load_config(cfg)).t_values == [-0.5]

    @pytest.mark.parametrize("path", sorted(
        str(p) for root in ("configs", "perfbench")
        for p in (Path(__file__).resolve().parents[1] / root).glob("*.cfg")))
    def test_shipped_configs_load(self, path):
        assert build_experiment_config(load_config(path)).seed is not None

    def test_python_m_ngnet(self):
        res = python_m_ngnet(["--help"])
        assert res.returncode == 0, res.stderr
        assert "sweep" in res.stdout

    def refusal_argv(self, tmp_path, argv):
        """`argv` with {cfg} the smoke config, {file} a file that holds a
        byte no text decodes, and {tmp} the directory that holds both, and
        that the command runs in."""
        (tmp_path / "binary").write_bytes(b"\xff\n")
        cfg = self.write_cfg(tmp_path)
        return [a.format(cfg=cfg, file=tmp_path / "binary", tmp=tmp_path)
                for a in argv]

    @refusal_cases(CLI_REFUSALS)
    def test_refusal_is_a_clean_error(self, tmp_path, capsys, monkeypatch,
                                      argv, named):
        monkeypatch.chdir(tmp_path)
        try:
            code = cli_main(self.refusal_argv(tmp_path, argv))
        except SystemExit as exc:  # argparse refuses an argument this way
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and named in err

    @refusal_cases(REFUSALS)
    def test_refusal_through_python_m_ngnet(self, tmp_path, argv, named):
        res = python_m_ngnet(self.refusal_argv(tmp_path, argv), tmp_path)
        assert res.returncode == 2, res.stderr
        assert "error:" in res.stderr and named in res.stderr
        assert "Traceback" not in res.stderr

    # 3, 13 and 113 exclude kinks or fail; 7 and 977 are the default seed
    # and the held-out one
    @pytest.mark.parametrize("seed", [3, 7, 13, 113, 977])
    def test_grad_check_is_the_benchmark_check(self, seed, capsys):
        """grad-check on a config checks what perfbench's gradcheck workload
        checks: same counts and verdict as its recorded reference."""
        ref = json.loads((CONFIGS.parent / "perfbench" / "reference.json")
                         .read_text())
        ref = ref["gradcheck_toy_cnn"][str(seed)]
        cfg = str(CONFIGS / "capacity.cfg")
        code = cli_main(["grad-check", "--config", cfg, "--seed", str(seed)])
        assert code == (0 if ref["passed"] else 1)
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == (f"checked={ref['checked']} "
                        f"excluded_kink={ref['excluded_kink']} "
                        f"passed={ref['passed']}")

    def test_grad_check_plain_activation(self, capsys):
        cfg = str(CONFIGS / "capacity.cfg")
        assert cli_main(["grad-check", "--config", cfg,
                         "--override", "activation.ng=false"]) == 0
        out = capsys.readouterr().out
        assert "passed=True" in out and "ng_t" not in out

    def test_grad_check_refuses_a_large_net(self, capsys):
        assert cli_main(["grad-check", "--config",
                         str(CONFIGS / "critical_depth.cfg")]) == 2
        assert ("grad_check is for small nets (10785 params)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "sweep", "grad-check",
                                         "inspect-cifar"])
    def test_help(self, command):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--help"])
        assert exc.value.code == 0

    def test_inspect_cifar(self, tmp_path, capsys):
        path = str(tmp_path / "batch.bin")
        rng = np.random.default_rng(0)
        labels = np.array([6, 0, 3], dtype=np.uint8)
        images = rng.integers(0, 256, size=(3, 3, 32, 32), dtype=np.uint8)
        write_cifar10_records(path, labels, images)
        assert cli_main(["inspect-cifar", path]) == 0
        out = capsys.readouterr().out
        assert "3 records" in out and f"{3 * 3073} bytes" in out

    def test_corrupt_cifar_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 100)
        assert cli_main(["inspect-cifar", str(path)]) == 2
        assert "error" in capsys.readouterr().err
