"""Dataset providers: seeded synthetic tasks, the CIFAR-10 binary codec,
and pad-crop-flip augmentation.

Synthetic tasks come in two flavours:
  * blobs: Gaussian clusters, linearly separable; used for pure
    trainability experiments (depth ladders).
  * spirals: interleaved 2-D spirals, not linearly separable; the image
    variant embeds each point into pixel space through a fixed random
    linear map, so the class structure stays nonlinear in the pixels and a
    linear model caps out early.  Used for capacity and learning-behavior
    experiments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

CIFAR_RECORD = 3073  # 1 label byte + 3 * 1024 pixel bytes
# share of the samples held out for the test split
SYNTHETIC_TEST_FRAC = 0.25
CIFAR_TEST_FRAC = 0.2
SPIRAL_TURNS = 1.75  # the angle each spiral arm sweeps, in units of pi


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int


def _test_count(n, test_frac):
    return max(1, int(n * test_frac))


def _split(x, y, test_frac, rng):
    n = len(y)
    order = rng.permutation(n)
    x, y = x[order], y[order]
    n_test = _test_count(n, test_frac)
    return x[n_test:], y[n_test:], x[:n_test], y[:n_test]


def train_count(d) -> int:
    """Training samples the dataset section `d` of a config leaves: spirals
    draw n // classes points per arm, and a CIFAR file gives at most
    `subset` of its records.  Raises FormatError on a CIFAR file whose
    length is not a whole number of records."""
    if d.kind == "cifar10_binary":
        n = min(d.subset, _record_count(d.path, os.path.getsize(d.path)))
        return n - _test_count(n, CIFAR_TEST_FRAC)
    n = d.n // d.classes * d.classes if d.kind == "synthetic_spirals" else d.n
    return n - _test_count(n, SYNTHETIC_TEST_FRAC)


def make_blobs(classes=3, dims=8, spread=0.6, n=600, seed=0,
               image_shape=None) -> Dataset:
    """Gaussian clusters with unit-scale centers; standardized features."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    centers = rng.standard_normal((classes, dims))
    y = np.arange(n) % classes
    x = centers[y] + spread * rng.standard_normal((n, dims))
    x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-12)
    if image_shape is not None:
        x = x.reshape((n,) + tuple(image_shape))
    tr_x, tr_y, te_x, te_y = _split(x, y, SYNTHETIC_TEST_FRAC, rng)
    return Dataset(tr_x, tr_y, te_x, te_y, classes)


def make_spirals(classes=3, n=1500, seed=0, noise=0.08,
                 image_shape=None) -> Dataset:
    """Interleaved spirals in the plane; optionally embedded linearly into
    image space so conv nets can consume them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    per = n // classes
    pts, ys = [], []
    for c in range(classes):
        r = np.linspace(0.15, 1.0, per)
        theta = np.linspace(0, SPIRAL_TURNS * np.pi, per) \
            + 2 * np.pi * c / classes
        p = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        p += noise * rng.standard_normal(p.shape)
        pts.append(p)
        ys.append(np.full(per, c))
    x = np.concatenate(pts)
    y = np.concatenate(ys)
    x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-12)
    if image_shape is not None:
        dims = int(np.prod(image_shape))
        proj = rng.standard_normal((2, dims)) / np.sqrt(2.0)
        pix = x @ proj + 0.05 * rng.standard_normal((len(x), dims))
        x = pix.reshape((len(x),) + tuple(image_shape))
    tr_x, tr_y, te_x, te_y = _split(x, y, SYNTHETIC_TEST_FRAC, rng)
    return Dataset(tr_x, tr_y, te_x, te_y, classes)


# ---------------------------------------------------------------------------
# CIFAR-10 binary format
# ---------------------------------------------------------------------------

def read_cifar10_records(path):
    """Raw records from one CIFAR-10 binary batch file: labels (N,), pixels
    (N, 3, 32, 32) uint8."""
    try:
        raw = np.fromfile(path, dtype=np.uint8)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    raw = raw.reshape(_record_count(path, raw.size), CIFAR_RECORD)
    labels = raw[:, 0]
    bad = np.nonzero(labels >= 10)[0]
    if bad.size:
        raise FormatError(f"{path}: corrupt record {int(bad[0])}: "
                          f"label {int(labels[bad[0]])}")
    images = raw[:, 1:].reshape(-1, 3, 32, 32)
    return labels.astype(np.int64), images


def _record_count(path, size):
    """Records in a CIFAR-10 batch file of `size` bytes."""
    if size == 0 or size % CIFAR_RECORD:
        raise FormatError(
            f"{path}: length {size} is not a multiple of {CIFAR_RECORD}")
    return size // CIFAR_RECORD


def write_cifar10_records(path, labels, images):
    """Inverse of read_cifar10_records, for round-trip tests and fixtures."""
    labels = np.asarray(labels, dtype=np.uint8)
    images = np.asarray(images, dtype=np.uint8)
    rec = np.concatenate(
        [labels[:, None], images.reshape(len(labels), -1)], axis=1)
    rec.astype(np.uint8).tofile(path)


def load_cifar10_binary(path, subset=None, seed=0) -> Dataset:
    """Load one binary batch file; scale to [0,1] and standardize per
    channel with training-set statistics.  `subset` caps the record count
    (selection deterministic in seed)."""
    labels, images = read_cifar10_records(path)
    x = images.astype(np.float64) / 255.0
    y = labels
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    if subset is not None and subset < len(y):
        pick = rng.permutation(len(y))[:subset]
        x, y = x[pick], y[pick]
    tr_x, tr_y, te_x, te_y = _split(x, y, CIFAR_TEST_FRAC, rng)
    mean = tr_x.mean(axis=(0, 2, 3), keepdims=True)
    std = tr_x.std(axis=(0, 2, 3), keepdims=True) + 1e-12
    return Dataset((tr_x - mean) / std, tr_y, (te_x - mean) / std, te_y, 10)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def augment(images, rng, pad=None, flips=None, offsets=None):
    """Pad, random crop back to size, random horizontal flip.

    `flips` and `offsets` override the random draws (for tests).  Images are
    (B, C, H, W); pad defaults to side/8.
    """
    images = np.asarray(images, dtype=np.float64)
    b, c, h, w = images.shape
    if pad is None:
        pad = max(1, h // 8)
    padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    if offsets is None:
        offsets = rng.integers(0, 2 * pad + 1, size=(b, 2))
    if flips is None:
        flips = rng.integers(0, 2, size=b).astype(bool)
    out = np.empty_like(images)
    for k in range(b):
        oy, ox = int(offsets[k][0]), int(offsets[k][1])
        crop = padded[k, :, oy:oy + h, ox:ox + w]
        out[k] = crop[:, :, ::-1] if flips[k] else crop
    return out

