"""Acceptance gate: the eight headline properties of the shifted-activation
mechanism, each at its published tolerance.

Every test prints one ``ACCEPT n PASS|FAIL <name>`` line so a plain
``pytest -s tests/test_acceptance.py`` doubles as a checklist.  Training-based
criteria (4-7) each train one shipped config in configs/ at its seed; the
settings were chosen once and are not free parameters of the gate.
"""

import copy
from pathlib import Path

import numpy as np
import pytest

from ngnet.config import build_experiment_config, load_config
from ngnet.datasets import (make_blobs, read_cifar10_records,
                            write_cifar10_records)
from ngnet.errors import FormatError
from ngnet.instrumentation import (grad_check, stability_score,
                                   variance_bounds, weight_variance_trace)
from ngnet.network import (ActivationSpec, InitScheme, build_mlp, forward,
                           init_params)
from ngnet.runner import (run_capacity_sweep, run_critical_depth,
                          run_experiment, run_learning_behavior,
                          run_variance_study)

SEED = 7
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def report(num, ok, name):
    print(f"ACCEPT {num} {'PASS' if ok else 'FAIL'} {name}")
    assert ok, f"acceptance criterion {num} ({name})"


# ---------------------------------------------------------------------------
# 1. Gradient exactness
# ---------------------------------------------------------------------------

def test_accept_1_gradient_exactness():
    """4 weighted layers, wrapped ReLU with per-node trainable shifts; every
    analytic gradient within 1e-4 of central differences."""
    act = ActivationSpec(base="relu", ng=True, trainable=True, t_init=-1.0,
                         granularity="element")
    spec = build_mlp([10, 10, 10], 3, act, input_dim=6)
    params = init_params(spec, InitScheme("msra", SEED))
    n_params = sum(int(np.size(v)) for g in params.values() for v in g.values())
    data = make_blobs(classes=3, dims=6, n=32, seed=SEED)
    rep = grad_check(spec, params, data.train_x[:16], data.train_y[:16],
                     tolerance=1e-4)
    ok = (n_params <= 2000 and rep.passed and "ng_t" in rep.max_rel_err
          and all(e < 1e-4 for e in rep.max_rel_err.values()))
    report(1, ok, "gradient exactness "
           f"(worst {max(rep.max_rel_err.values()):.2e} over "
           f"{sorted(rep.max_rel_err)})")


# ---------------------------------------------------------------------------
# 2. Linearity at init
# ---------------------------------------------------------------------------

def test_accept_2_linearity_at_init():
    """A shift far below every pre-activation keeps the wrapped ReLU in its
    linear region, so logits match the identity-activation twin."""
    ng = ActivationSpec(base="relu", ng=True, t_init=-1e4)
    ident = ActivationSpec(base="identity", ng=False)
    spec_ng = build_mlp([12, 12, 12], 3, ng, input_dim=6)
    spec_id = build_mlp([12, 12, 12], 3, ident, input_dim=6)
    params = init_params(spec_ng, InitScheme("xavier", SEED))
    twin = init_params(spec_id, InitScheme("xavier", SEED))
    x = make_blobs(classes=3, dims=6, n=128, seed=SEED).train_x[:64]
    a, _, _ = forward(spec_ng, params, x)
    b, _, _ = forward(spec_id, twin, x)
    gap = float(np.abs(a - b).max())
    report(2, gap <= 1e-9, f"linearity at init (max logit gap {gap:.2e})")


# ---------------------------------------------------------------------------
# 3. Variance sandwich
# ---------------------------------------------------------------------------

def test_accept_3_variance_sandwich():
    rng = np.random.default_rng(SEED)
    slack = 1e-9
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        m = int(rng.integers(1, 33))
        z = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), size=n)
        g = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), size=m)
        lr = float(rng.uniform(1e-4, 1.0))
        dw = -lr * np.outer(g, z)
        v = float(np.var(dw))
        lo, hi = variance_bounds(z, g, lr)
        ok &= lo * (1 - slack) - 1e-300 <= v <= hi * (1 + slack) + 1e-300

    # constant g makes the lower bound exact: Var(dw) = lr^2 g^2 Var(z)
    z = rng.normal(0.5, 1.2, size=16)
    g = np.full(8, 0.75)
    lo, _ = variance_bounds(z, g, 0.1)
    v = float(np.var(-0.1 * np.outer(g, z)))
    tight = abs(v - lo) <= 1e-12 * max(abs(v), 1.0)
    report(3, ok and tight,
           f"variance sandwich (1000 draws, lower-bound gap {abs(v - lo):.2e})")


# ---------------------------------------------------------------------------
# The shipped configs the training criteria run
# ---------------------------------------------------------------------------

def shipped_cfg(name, out, *overrides):
    """configs/<name>.cfg as ``ngnet sweep --out <out>`` loads it, with
    `overrides` (key=value strings) applied."""
    raw = load_config(str(CONFIGS / f"{name}.cfg"), overrides)
    raw["out"] = str(out)
    cfg = build_experiment_config(raw)
    assert cfg.seed == SEED
    return cfg


# ---------------------------------------------------------------------------
# 4. Capacity trend
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_accept_4_capacity_trend(tmp_path):
    cfg = shipped_cfg("capacity", tmp_path)
    _, summary = run_capacity_sweep(cfg)
    by = {r["setting"]: r for r in summary}
    accs = [by[f"t{t:g}"]["max_train_acc"] for t in cfg.t_values]

    violations = [max(a - b, 0.0) for a, b in zip(accs, accs[1:])]
    big = [v for v in violations if v > 0.0]
    trend = len(big) <= 1 and all(v <= 0.01 for v in big)

    final_t = by["trainable"]["final_mean_t"]
    drift = final_t > -1.0
    report(4, trend and drift,
           "capacity trend (max accs "
           + " ".join(f"{a:.3f}" for a in accs)
           + f"; trainable mean t {final_t:.3f})")


# ---------------------------------------------------------------------------
# 5. Critical depth
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_accept_5_critical_depth(tmp_path):
    cfg = shipped_cfg("critical_depth", tmp_path)
    _, critical = run_critical_depth(cfg)
    ng, plain = critical.get("ng", 0), critical.get("plain", 0)
    report(5, ng >= plain + cfg.depth_step,
           f"critical depth (wrapped {ng} vs plain {plain}, "
           f"ladder step {cfg.depth_step})")


# ---------------------------------------------------------------------------
# 6. Initialization robustness
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_accept_6_init_robustness(tmp_path):
    cfg = shipped_cfg("learning_behavior", tmp_path)
    _, spread = run_learning_behavior(cfg)
    report(6, spread["ng"] < spread["plain"],
           f"init robustness (epoch spread wrapped {spread['ng']} "
           f"vs plain {spread['plain']})")


# ---------------------------------------------------------------------------
# 7. Variance stability
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_accept_7_variance_stability(tmp_path):
    """Ten conv layers plus the classifier, trained the same way from the
    same seed; the wrapped net's per-layer weight variances stay closer to
    one another (smaller spread of log variance)."""
    cfg = shipped_cfg("variance_study", tmp_path)
    scores = {}
    for vname, res in run_variance_study(cfg).items():
        assert not res.diverged
        scores[vname] = stability_score(weight_variance_trace(res.spec,
                                                              res.params))
    report(7, scores["ng"] < scores["plain"],
           f"variance stability (score wrapped {scores['ng']:.4f} "
           f"vs plain {scores['plain']:.4f})")


# ---------------------------------------------------------------------------
# 8. Determinism and formats
# ---------------------------------------------------------------------------

def test_accept_8_determinism_and_formats(tmp_path):
    base = shipped_cfg("variance_study", tmp_path / "a", "model.family=mlp",
                       "model.depth=4", "model.hidden=8",
                       "dataset.kind=synthetic_spirals", "dataset.n=200",
                       "optim.lr=0.05", "epochs=2")
    files = []
    for sub in ("a", "b"):
        cfg = copy.deepcopy(base)
        cfg.out = str(tmp_path / sub)
        run_experiment(cfg)
        files.append({name: Path(cfg.out, name).read_bytes()
                      for name in ("metrics.csv", "layerstats.csv",
                                   "ttrace.csv")})
    identical = files[0] == files[1]

    # image codec: synthetic records round-trip; malformed length refused
    rng = np.random.default_rng(SEED)
    labels = rng.integers(0, 10, size=5).astype(np.uint8)
    images = rng.integers(0, 256, size=(5, 3, 32, 32), dtype=np.uint8)
    path = str(tmp_path / "batch.bin")
    write_cifar10_records(path, labels, images)
    rl, ri = read_cifar10_records(path)
    roundtrip = np.array_equal(rl, labels) and np.array_equal(ri, images)

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x01" * (3073 * 2 + 17))
    try:
        read_cifar10_records(str(bad))
        rejected = False
    except FormatError:
        rejected = True

    report(8, identical and roundtrip and rejected,
           f"determinism and formats (bitwise={identical} "
           f"roundtrip={roundtrip} malformed-rejected={rejected})")
