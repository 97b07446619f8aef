"""Seeded input generator for the benchmark.

Inputs are made here, from the workload seed, with the benchmark's own
code: a program change cannot alter them, so two commits are always
measured on the same bytes. The program only ever reads the files this
module writes; it never sees the seed.

Records follow the reference-database bounds. Labels are the Lam-Teng
strength for each record's hoop rupture strain, with 2 % multiplicative
Gaussian noise, so the empirical baseline is a known-good reference.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

HEADER = ("d_mm", "h_mm", "nt_mm", "ef_gpa", "fco_mpa", "eco_pct", "ecc_pct", "fcc_mpa",
          "eps_hrup")
FEATURES = ("d", "h", "nt", "ef", "fco", "eco", "ecc")
# Observed bounds of the 708-record reference database (mm, GPa, MPa, %).
BOUNDS = {
    "d": (51.0, 406.0), "nt": (0.09, 5.9), "ef": (10.0, 663.0),
    "fco": (12.41, 188.2), "eco": (0.1676, 1.53), "ecc": (0.083, 4.62),
    "fcc": (18.5, 302.2),
}
NOISE = 0.02
FIBER_STRAIN = (0.0135, 0.0165)
# Confined strain rises with the jacket pressure at a nominal fiber strain;
# this keeps the seventh feature informative without being the label.
NOMINAL_FIBER_STRAIN = 0.015
STRAIN_PER_MPA = 0.0004
SWEEP_VARIABLES = ("fco", "d", "ef", "nt")

# Independent generator streams, keyed so adding a stream moves no other.
STREAM_TRAIN, STREAM_SERVE, STREAM_REQUESTS = 0, 1, 2


def _pressure(ef_gpa, eps_f, fco, nt, d):
    eps_h = eps_f / fco ** 0.125
    return 2.0 * ef_gpa * 1000.0 * eps_h * nt / d, eps_h


def make_rows(n: int, rng: np.random.Generator) -> list[tuple[float, ...]]:
    """n in-range specimen rows in HEADER order, resampling out-of-range draws."""
    rows = []
    while len(rows) < n:
        d, nt, ef, fco, eco = (rng.uniform(*BOUNDS[k]) for k in ("d", "nt", "ef", "fco", "eco"))
        eps_f = rng.uniform(*FIBER_STRAIN)
        noise = rng.standard_normal()
        f_l, eps_h = _pressure(ef, eps_f, fco, nt, d)
        f_l_nom, _ = _pressure(ef, NOMINAL_FIBER_STRAIN, fco, nt, d)
        fcc = (fco + 3.3 * f_l) * (1.0 + NOISE * noise)
        ecc = eco + 100.0 * STRAIN_PER_MPA * f_l_nom
        if BOUNDS["fcc"][0] <= fcc <= BOUNDS["fcc"][1] and BOUNDS["ecc"][0] <= ecc <= BOUNDS["ecc"][1]:
            rows.append((d, 2.0 * d, nt, ef, fco, eco, ecc, fcc, eps_h))
    return rows


def write_csv(rows, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def make_requests(train_rows, serve_rows, count: int, sweep_steps: int,
                  rng: np.random.Generator) -> dict:
    """Single-record requests (row indices into the serving set) and sweeps.

    Requests are serving rows whose features lie between the 5th and 95th
    percentiles of the labelled rows, so they almost always fall inside
    the trained normalization range: every request then takes the same
    path, and the latency tail measures the system rather than the share
    of extrapolating requests. Sweeps span the full bounds, so they
    exercise the extrapolation warnings instead.
    """
    lo, hi = np.quantile(np.asarray(train_rows)[:, :7], [0.05, 0.95], axis=0)
    features = np.asarray(serve_rows)[:, :7]
    inside = np.flatnonzero(np.all((lo <= features) & (features <= hi), axis=1))
    if inside.size == 0:
        raise ValueError("no serving row lies inside the labelled rows' central range")
    picks = rng.choice(inside, size=count)
    requests = [{"row": int(i), "values": dict(zip(FEATURES, serve_rows[i][:7]))} for i in picks]
    base = dict(zip(FEATURES, serve_rows[int(rng.integers(0, len(serve_rows)))][:7]))
    sweeps = []
    for var in SWEEP_VARIABLES:
        lo, hi = BOUNDS[var]
        fixed = {k: v for k, v in base.items() if k != var}
        sweeps.append({"var": var, "start": lo, "stop": hi, "steps": sweep_steps, "fixed": fixed})
    return {"requests": requests, "sweeps": sweeps}


def generate(seed: int, size: dict, directory: Path) -> dict:
    """Write train.csv, serve.csv and requests.json; return their paths and digest."""
    directory.mkdir(parents=True, exist_ok=True)
    train_rows = make_rows(size["records"], np.random.default_rng([seed, STREAM_TRAIN]))
    serve_rows = make_rows(size["serve_records"], np.random.default_rng([seed, STREAM_SERVE]))
    paths = {"train_csv": directory / "train.csv", "serve_csv": directory / "serve.csv",
             "requests_json": directory / "requests.json"}
    write_csv(train_rows, paths["train_csv"])
    write_csv(serve_rows, paths["serve_csv"])
    reqs = make_requests(train_rows, serve_rows, size["requests"], size["sweep_steps"],
                         np.random.default_rng([seed, STREAM_REQUESTS]))
    paths["requests_json"].write_text(json.dumps(reqs), encoding="utf-8")
    digest = hashlib.sha256()
    for key in sorted(paths):
        digest.update(paths[key].read_bytes())
    return {**{k: str(v) for k, v in paths.items()}, "inputs_sha256": digest.hexdigest()}
