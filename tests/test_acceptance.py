"""Acceptance suite: every release criterion, one pass/fail line each.

The synthetic end-to-end runs (criteria 5 and 6) use the full reference
settings (populations 70/75/80, 900 iterations, 50 hidden neurons, 75/25
split, 708 records, 2% label noise) and therefore dominate the runtime of
this module (about 50 s on a shared 2-vCPU machine); they are marked
``slow``, so ``-m "not slow"`` runs the seven fast criteria alone.
"""
import time

import numpy as np
import pytest

from cfrpnet.cli import main
from cfrpnet.dataset import FIELD_BOUNDS, FIELDS, fit_normalizer
from cfrpnet.experiment import (
    EmpiricalPredictor,
    ExperimentConfig,
    SweepSpec,
    parametric_sweep,
    run_experiment,
    synth_dataset,
)
from cfrpnet.mechanics import (
    confinement_stress,
    eurocode_strains,
    hoop_rupture_strain,
    lam_teng,
    miyauchi,
)
from cfrpnet.metrics import mae, mse, r_squared
from cfrpnet.neuralnet import gradient, loss_mse, parameter_count
from cfrpnet.optimizers import BaConfig, GwoConfig, PsoConfig, ba_run, gwo_run, pso_run

from conftest import table1_extremes


def _report(criterion, description, passed):
    print(f"[criterion {criterion}] {description}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {criterion} failed: {description}"


_EXPERIMENTS: dict[int, object] = {}


def synthetic_experiment(seed):
    """Full-size synthetic comparison at the reference settings, cached."""
    if seed not in _EXPERIMENTS:
        records = synth_dataset(708, seed=seed, noise_fraction=0.02)
        config = ExperimentConfig(roster=("ann", "pso", "gwo", "ba", "lam_teng"), seed=seed)
        _EXPERIMENTS[seed] = run_experiment(config, records=records)
    return _EXPERIMENTS[seed]


def test_criterion_1_formula_oracles():
    start = time.perf_counter()
    checks = [
        (hoop_rupture_strain(0.015, 40.0), 0.009459),
        (confinement_stress(231000.0, 0.01, 0.167, 150.0), 5.1436),
        (lam_teng(30.0, 10.0), 63.0),
        (miyauchi(30.0, 10.0), 64.85),
        (eurocode_strains(12.5)[0], 0.0015196),
        (eurocode_strains(12.5)[1], 0.0037408),
    ]
    elapsed = time.perf_counter() - start
    values_ok = all(abs(got - want) <= 1e-4 * abs(want) for got, want in checks)
    _report(1, "closed-form oracles within 1e-4, sub-millisecond runtime",
            values_ok and elapsed < 0.006)


def test_criterion_2_normalization_contract():
    spec = fit_normalizer(table1_extremes())
    endpoints_exact = all(
        spec.normalize(name, FIELD_BOUNDS[name][0]) == 0.1
        and spec.normalize(name, FIELD_BOUNDS[name][1]) == 0.9
        for name in FIELDS
    )
    rng = np.random.default_rng(123)
    roundtrip_ok = True
    for name in FIELDS:
        lo, hi = FIELD_BOUNDS[name]
        x = rng.uniform(lo - (hi - lo), hi + (hi - lo), 10_000)
        back = spec.denormalize(name, spec.normalize(name, x))
        roundtrip_ok &= bool(np.all(np.abs(back - x) <= 1e-12 * np.maximum(1.0, np.abs(x))))
    _report(2, "endpoints map to 0.1/0.9 exactly, round-trip <= 1e-12 on 1e4 values",
            endpoints_exact and roundtrip_ok)


def test_criterion_3_gradient_correctness():
    # the paper's seven inputs, five hidden units
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        w = rng.uniform(-0.5, 0.5, parameter_count(5))
        X = rng.uniform(0.1, 0.9, (10, 7))
        y = rng.uniform(0.1, 0.9, 10)
        g = gradient(w, X, y)
        fd = np.zeros_like(w)
        h = 1e-6
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (loss_mse(wp, X, y) - loss_mse(wm, X, y)) / (2 * h)
        worst = max(worst, float(np.linalg.norm(g - fd) / np.linalg.norm(g)))
    elapsed = time.perf_counter() - start
    _report(3, f"backprop vs central differences, worst rel err {worst:.2e} in {elapsed:.2f}s",
            worst <= 1e-5 and elapsed < 1.0)


def test_criterion_4_optimizer_sanity():
    def sphere(x):
        return float(np.dot(x, x))

    box = (10, 5.12)  # [-5.12, 5.12] in each of 10 dimensions
    start = time.perf_counter()
    pso1 = pso_run(PsoConfig(seed=0), *box, sphere)
    gwo1 = gwo_run(GwoConfig(seed=0), *box, sphere)
    ba1 = ba_run(BaConfig(seed=0), *box, sphere)
    pso2 = pso_run(PsoConfig(seed=0), *box, sphere)
    elapsed = time.perf_counter() - start

    thresholds = pso1.best_fitness[-1] < 1e-3 and gwo1.best_fitness[-1] < 1e-3 and ba1.best_fitness[-1] < 0.1
    monotone = all(np.all(np.diff(t.best_fitness) <= 0.0) for t in (pso1, gwo1, ba1))
    bitwise = np.array_equal(pso1.best_fitness, pso2.best_fitness) and np.array_equal(
        pso1.best_position, pso2.best_position)
    _report(4, f"sphere d=10: pso {pso1.best_fitness[-1]:.1e}, gwo {gwo1.best_fitness[-1]:.1e}, "
               f"ba {ba1.best_fitness[-1]:.1e}, traces monotone, bitwise repeat, {elapsed:.1f}s",
            thresholds and monotone and bitwise and elapsed < 30.0)


@pytest.mark.slow
def test_criterion_5_synthetic_reproduction():
    start = time.perf_counter()
    result = synthetic_experiment(1)
    elapsed = time.perf_counter() - start
    r2 = {name: report.r_squared for name, report in result.reports.items()}
    ok = (r2["pso"] >= 0.95 and r2["gwo"] >= 0.93 and r2["ann"] >= 0.90
          and r2["lam_teng"] >= 0.99)
    _report(5, f"synthetic 708/seed 1/2% noise: pso {r2['pso']:.4f} (>=0.95), "
               f"gwo {r2['gwo']:.4f} (>=0.93), ann {r2['ann']:.4f} (>=0.90), "
               f"lam_teng {r2['lam_teng']:.4f} (>=0.99), {elapsed:.0f}s",
            ok and elapsed < 600.0)


@pytest.mark.slow
def test_criterion_6_relative_ordering():
    wins = 0
    detail = []
    for seed in (1, 2, 3):
        r2 = {name: report.r_squared for name, report in synthetic_experiment(seed).reports.items()}
        worst = r2["ba"] <= r2["pso"] and r2["ba"] <= r2["gwo"]
        wins += int(worst)
        detail.append(f"seed {seed}: ba {r2['ba']:.3f} vs pso {r2['pso']:.3f}/gwo {r2['gwo']:.3f}")
    _report(6, "ba not above pso/gwo in " + f"{wins}/3 seeds ({'; '.join(detail)})", wins >= 2)


def test_criterion_7_metric_oracles():
    from fractions import Fraction

    def exact_r2(t, p):
        # textbook product-moment form in exact rational arithmetic
        xs = [Fraction(float(a)) for a in t]
        ys = [Fraction(float(b)) for b in p]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        num = n * sum(a * b for a, b in zip(xs, ys)) - sx * sy
        den2 = ((n * sum(a * a for a in xs) - sx * sx)
                * (n * sum(b * b for b in ys) - sy * sy))
        return float(num * num / den2)

    rng = np.random.default_rng(321)
    agree = True
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        t = rng.uniform(0.0, 1.0, n)
        p = rng.uniform(0.0, 1.0, n)
        naive_mse = sum((a - b) ** 2 for a, b in zip(t, p)) / n
        naive_mae = sum(abs(a - b) for a, b in zip(t, p)) / n
        agree &= abs(mse(t, p) - naive_mse) <= 1e-12 * max(naive_mse, 1e-300)
        agree &= abs(mae(t, p) - naive_mae) <= 1e-12 * max(naive_mae, 1e-300)
        if np.std(t) > 1e-9 and np.std(p) > 1e-9:
            naive_r2 = exact_r2(t, p)
            agree &= abs(r_squared(t, p) - naive_r2) <= 1e-12 * max(naive_r2, 1e-300)
    x = rng.uniform(0.0, 1.0, 100)
    y = rng.uniform(0.0, 1.0, 100)
    base = r_squared(x, y)
    affine = (abs(r_squared(4.2 * x - 3.0, y) - base) <= 1e-12
              and abs(r_squared(x, 0.3 * y + 9.0) - base) <= 1e-12)
    _report(7, "mse/mae/r_squared match naive recomputation to 1e-12, affine invariance",
            agree and affine)


def test_criterion_8_sweep_monotonicity():
    fixed_t = {"d": 150.0, "ef": 231.0, "fco": 30.0, "eps_h_rup": 0.009}
    fixed_e = {"d": 150.0, "nt": 0.334, "fco": 30.0, "eps_h_rup": 0.009}
    ok = True
    for model in ("lam_teng", "miyauchi"):
        predictor = EmpiricalPredictor(model)
        t_grid = parametric_sweep(predictor, SweepSpec("nt", 0.15, 1.05, 10, fixed_t))
        e_grid = parametric_sweep(predictor, SweepSpec("ef", 110.0, 245.0, 10, fixed_e))
        ok &= bool(np.all(np.diff(t_grid.predictions) > 0.0))
        ok &= bool(np.all(np.diff(e_grid.predictions) > 0.0))
    _report(8, "empirical sweeps strictly increasing over t [0.15,1.05] and E_f [110,245]", ok)


def test_criterion_9_compare_reproducibility(tmp_path):
    import json
    config = {
        "synth": {"n": 60, "noise_fraction": 0.02},
        "roster": ["ann", "pso", "lam_teng"],
        "seed": 17,
        "hidden_neurons": 5,
        "models": {"ann": {"epochs": 20}, "pso": {"population": 8, "iterations": 15}},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    blobs = {}
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        blobs[sub] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    identical = (blobs["first"].keys() == blobs["second"].keys()
                 and all(blobs["first"][k] == blobs["second"][k] for k in blobs["first"]))
    _report(9, f"two identical compare runs, {len(blobs['first'])} files byte-identical", identical)
