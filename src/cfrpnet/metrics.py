"""Regression error metrics and evaluation reports.

Accuracy follows the convention used throughout this project: 100 times
the squared Pearson correlation between targets and predictions. Reports
carry both physical-scale (MPa) metrics and normalized-scale metrics
expressed as percentages (the normalized MSE/MAE times 100).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import TARGET_FIELD, NormalizationSpec, csv_text


def _paired(targets, predictions) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(targets, dtype=float)
    p = np.asarray(predictions, dtype=float)
    if t.ndim != 1 or t.shape != p.shape:
        raise ValueError(f"targets and predictions must be 1-D of equal length, got {t.shape} and {p.shape}")
    if t.size == 0:
        raise ValueError("metrics need at least one (target, prediction) pair")
    return t, p


def mse(targets, predictions) -> float:
    """Mean squared error."""
    t, p = _paired(targets, predictions)
    return float(np.mean((t - p) ** 2))


def mae(targets, predictions) -> float:
    """Mean absolute error."""
    t, p = _paired(targets, predictions)
    return float(np.mean(np.abs(t - p)))


def r_squared(x, y) -> float:
    """Squared Pearson correlation of two sequences.

    Evaluated from centered sums, the numerically stable form of the
    textbook product-moment expression. Affine-invariant in either
    argument; undefined (raises) for constant sequences.
    """
    t, p = _paired(x, y)
    if t.size < 2:
        raise ValueError("r_squared needs at least 2 pairs")
    dx = t - t.mean()
    dy = p - p.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("r_squared is undefined for a constant sequence")
    r = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return r * r


@dataclass
class EvaluationReport:
    """Error metrics of one model on one evaluation set.

    The headline ``mse``/``mae`` are the MPa-scale ``mse_mpa``/``mae_mpa``
    (``scale`` is always "mpa"). ``r_squared`` is None when undefined
    (fewer than 2 pairs or a constant sequence), with the reason recorded
    in ``notes``.
    """

    n: int
    scale: str
    mse: float
    mae: float
    r_squared: float | None
    accuracy_percent: float | None
    mse_mpa: float
    mae_mpa: float
    mse_pct: float | None
    mae_pct: float | None
    targets: np.ndarray
    predictions: np.ndarray
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("targets", "predictions")}
        out["notes"] = list(self.notes)
        return out

    def pairs_csv(self) -> str:
        return csv_text(("target_mpa", "prediction_mpa"), zip(self.targets, self.predictions))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, not warned about
def report_from_pairs(targets_mpa, predictions_mpa, spec: NormalizationSpec | None = None) -> EvaluationReport:
    """Build a report from physical-scale pairs.

    Normalized-scale metrics are included when a normalization spec is
    given (pairs are mapped through the target's affine normalization).
    A metric that overflows float64 raises ValueError.
    """
    t, p = _paired(targets_mpa, predictions_mpa)
    mse_mpa = mse(t, p)
    mae_mpa = mae(t, p)
    mse_pct = mae_pct = None
    if spec is not None:
        tn = spec.normalize(TARGET_FIELD, t)
        pn = spec.normalize(TARGET_FIELD, p)
        mse_pct = 100.0 * mse(tn, pn)
        mae_pct = 100.0 * mae(tn, pn)
    notes: list[str] = []
    r2 = accuracy = None
    if t.size < 2:
        notes.append("r_squared not computable for fewer than 2 pairs")
    else:
        try:
            r2 = r_squared(t, p)
            accuracy = 100.0 * r2
        except ValueError as exc:
            notes.append(str(exc))
    if not all(math.isfinite(v) for v in (mse_mpa, mae_mpa, mse_pct, mae_pct, accuracy) if v is not None):
        raise ValueError(f"error metrics overflow for values up to "
                         f"{max(np.abs(t).max(), np.abs(p).max()):g} MPa")
    return EvaluationReport(
        n=int(t.size),
        scale="mpa",
        mse=mse_mpa,
        mae=mae_mpa,
        r_squared=r2,
        accuracy_percent=accuracy,
        mse_mpa=mse_mpa,
        mae_mpa=mae_mpa,
        mse_pct=mse_pct,
        mae_pct=mae_pct,
        targets=t,
        predictions=p,
        notes=notes,
    )
