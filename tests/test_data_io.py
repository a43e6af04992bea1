"""Datasets, the CIFAR-10 binary codec, augmentation, config, and CSV."""

from pathlib import Path

import numpy as np
import pytest

from ngnet.config import (build_experiment_config, parse_config_text,
                          parse_value)
from ngnet.csvio import SCHEMAS, emit_csv, read_csv
from ngnet.datasets import (CIFAR_RECORD, augment, load_cifar10_binary,
                            make_blobs, make_spirals, read_cifar10_records,
                            write_cifar10_records)
from ngnet.errors import ConfigError, FormatError, NgnetError


class TestSynthetic:
    def test_blobs_deterministic(self):
        d1 = make_blobs(seed=3)
        d2 = make_blobs(seed=3)
        assert np.array_equal(d1.train_x, d2.train_x)
        assert np.array_equal(d1.train_y, d2.train_y)

    def test_blobs_image_shape(self):
        d = make_blobs(dims=3 * 8 * 8, n=60, seed=0, image_shape=(3, 8, 8))
        assert d.train_x.shape[1:] == (3, 8, 8)

    def test_spirals_not_linearly_trivial(self):
        d = make_spirals(classes=3, n=300, seed=1)
        assert d.train_x.shape[1] == 2
        assert set(np.unique(d.train_y)) == {0, 1, 2}

    def test_spirals_image_embedding(self):
        d = make_spirals(classes=3, n=120, seed=2, image_shape=(3, 8, 8))
        assert d.train_x.shape[1:] == (3, 8, 8)


class TestCifarCodec:
    def _fixture(self, tmp_path, n=10):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, n).astype(np.uint8)
        images = rng.integers(0, 256, (n, 3, 32, 32)).astype(np.uint8)
        path = tmp_path / "batch.bin"
        write_cifar10_records(path, labels, images)
        return path, labels, images

    def test_record_size_arithmetic(self, tmp_path):
        path, labels, _ = self._fixture(tmp_path, n=100)
        assert path.stat().st_size == 100 * CIFAR_RECORD

    def test_round_trip(self, tmp_path):
        path, labels, images = self._fixture(tmp_path)
        got_labels, got_images = read_cifar10_records(path)
        assert np.array_equal(got_labels, labels)
        assert np.array_equal(got_images, images)

    def test_label_read_direct(self, tmp_path):
        path = tmp_path / "one.bin"
        labels = np.array([6], dtype=np.uint8)
        images = np.zeros((1, 3, 32, 32), dtype=np.uint8)
        write_cifar10_records(path, labels, images)
        got, _ = read_cifar10_records(path)
        assert got[0] == 6

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * (CIFAR_RECORD + 1))
        with pytest.raises(FormatError):
            read_cifar10_records(path)

    def test_corrupt_label_rejected_with_index(self, tmp_path):
        path = tmp_path / "corrupt.bin"
        rec0 = bytes([3]) + b"\x00" * 3072
        rec1 = bytes([11]) + b"\x00" * 3072
        path.write_bytes(rec0 + rec1)
        with pytest.raises(FormatError, match="record 1"):
            read_cifar10_records(path)

    def test_loader_standardizes(self, tmp_path):
        path, _, _ = self._fixture(tmp_path, n=50)
        d = load_cifar10_binary(path, seed=0)
        assert d.num_classes == 10
        assert abs(d.train_x.mean()) < 0.1

    def test_subset_deterministic(self, tmp_path):
        path, _, _ = self._fixture(tmp_path, n=50)
        d1 = load_cifar10_binary(path, subset=20, seed=4)
        d2 = load_cifar10_binary(path, subset=20, seed=4)
        assert np.array_equal(d1.train_x, d2.train_x)


class TestAugment:
    def test_forced_double_flip_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 8, 8))
        flips = np.array([True, True])
        offsets = np.full((2, 2), 1)  # center of pad=1
        once = augment(x, rng, pad=1, flips=flips, offsets=offsets)
        twice = augment(once, rng, pad=1, flips=flips, offsets=offsets)
        np.testing.assert_array_equal(twice, x)

    def test_center_crop_recovers_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 32, 32))
        out = augment(x, rng, pad=4, flips=np.array([False]),
                      offsets=np.array([[4, 4]]))
        np.testing.assert_array_equal(out, x)

    def test_flip_preserves_pixel_multiset(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 3, 8, 8))
        out = augment(x, rng, pad=1, flips=np.array([True]),
                      offsets=np.array([[1, 1]]))
        np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(x.ravel()))

    def test_seeded_stream_deterministic(self):
        x = np.random.default_rng(3).standard_normal((4, 3, 8, 8))
        a1 = augment(x, np.random.default_rng(7))
        a2 = augment(x, np.random.default_rng(7))
        np.testing.assert_array_equal(a1, a2)


class TestConfig:
    def test_scalars(self):
        assert parse_value("true") is True
        assert parse_value("3") == 3
        assert parse_value("0.5") == 0.5
        assert parse_value("relu") == "relu"
        assert parse_value("-2,-1,-0.5") == [-2, -1, -0.5]

    def test_dotted_keys_and_comments(self):
        cfg = parse_config_text("""
        # an experiment
        experiment = single_run
        optim.lr = 0.05   # inline comment
        model.family = mlp
        seed = 3
        """)
        assert cfg["optim.lr"] == 0.05
        assert cfg["model.family"] == "mlp"

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("this is not a pair")

    def test_build_experiment_config(self):
        raw = parse_config_text("""
        experiment = capacity_sweep
        model.family = toy_cnn
        activation.base = relu
        activation.ng = true
        activation.t_init = -1
        optim.lr = 0.02
        seed = 11
        """)
        cfg = build_experiment_config(raw)
        assert cfg.experiment == "capacity_sweep"
        assert cfg.activation.ng is True
        assert cfg.optim.lr == 0.02
        assert cfg.run_id

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError):
            build_experiment_config({"experiment": "single_run"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_experiment_config({"experiment": "single_run", "seed": 1,
                                     "bogus": 2})

    def test_comma_list_under_a_dotted_key(self):
        assert parse_config_text("model.hidden = 8,8") == \
            {"model.hidden": [8, 8]}

    def test_base_kwargs_is_a_dict_key(self):
        raw = parse_config_text("""
        experiment = single_run
        seed = 1
        activation.base = lrelu
        activation.base_kwargs.alpha = 0.2
        """)
        cfg = build_experiment_config(raw)
        assert cfg.activation.base_kwargs == {"alpha": 0.2}
        assert cfg.activation.make_base().slope == 0.2


class TestCsv:
    ROW = {"run_id": "r1", "epoch": 1, "step": 10, "train_loss": 1.234567891,
           "train_acc": 0.5, "test_acc": 0.25, "lr_multiplier": 1.0,
           "diverged": False}

    def test_header_only_for_empty_run(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv([], path, schema="metrics")
        assert path.read_text().strip() == ",".join(SCHEMAS["metrics"])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv([self.ROW], path, schema="metrics")
        rows = read_csv(path)
        assert rows[0]["run_id"] == "r1"
        assert float(rows[0]["train_loss"]) == pytest.approx(1.234567891)
        assert rows[0]["diverged"] == "false"

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv([self.ROW], path, schema="metrics")
        assert "1.23456789" in path.read_text()

    def test_append_new_run_ok(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv([self.ROW], path, schema="metrics")
        emit_csv([dict(self.ROW, run_id="r2")], path, schema="metrics")
        assert len(read_csv(path)) == 2

    def test_run_id_collision_refused(self, tmp_path):
        path = tmp_path / "m.csv"
        emit_csv([self.ROW], path, schema="metrics")
        with pytest.raises(NgnetError):
            emit_csv([self.ROW], path, schema="metrics")

    def test_golden_headers(self):
        assert SCHEMAS["metrics"] == ["run_id", "epoch", "step", "train_loss",
                                      "train_acc", "test_acc",
                                      "lr_multiplier", "diverged"]
        assert SCHEMAS["layerstats"][:4] == ["run_id", "step", "layer",
                                             "mean_z"]
        assert SCHEMAS["ttrace"] == ["run_id", "epoch", "layer", "t_mean",
                                     "t_std", "t_min", "t_max"]

    def test_headers_match_the_benchmark_pins(self):
        """perfbench/workloads.py pins the headers of the CSVs its
        workloads write, so the columns that read nan on every row (the
        five layerstats bound columns, metrics' lr_multiplier) stay until
        the benchmark drops them too.  The file is read as text and run,
        not imported, so no bytecode is written under perfbench/."""
        path = (Path(__file__).resolve().parents[1] / "perfbench"
                / "workloads.py")
        namespace = {"__name__": "perfbench_workloads", "__file__": str(path)}
        exec(compile(path.read_text(), str(path), "exec"), namespace)
        pinned = {name.removesuffix(".csv"): [col for col, _ in columns]
                  for name, columns in namespace["SCHEMAS"].items()}
        assert sorted(pinned) == ["critical_depth", "layerstats", "metrics",
                                  "ttrace"]
        assert {name: SCHEMAS[name] for name in pinned} == pinned
