"""Confinement mechanics for FRP-wrapped concrete cylinders.

Closed-form relations for hoop rupture strain, confinement stress, the
Lam-Teng and Miyauchi strength models, a configurable nonlinear strength
model, and Eurocode 2 compressive strain estimates. Everything works in
MPa / mm / dimensionless strain; convert GPa moduli and percent strains
at the boundary. All functions are pure.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .dataset import ConfigBase, SpecimenRecord

LAM_TENG_COEFFICIENT = 3.3
MIYAUCHI_COEFFICIENT = 3.485

EMPIRICAL_MODELS = ("lam_teng", "miyauchi", "nonlinear")
_RECORD_FIELDS = ("d", "nt", "ef", "fco", "eps_h_rup")
_record_fields = operator.attrgetter(*_RECORD_FIELDS)


def _require(name: str, value: float, zero_ok: bool = False) -> None:
    """Raise unless ``value`` is finite and positive (or zero, when ``zero_ok``).

    confinement_stress and the strength models make these comparisons for all
    their arguments as one chain, in the same order, and call this only when
    the chain fails, to name the first bad argument."""
    if not 0.0 <= value < math.inf or (value == 0.0 and not zero_ok):
        rule = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {rule} and finite, got {value}")


def hoop_rupture_strain(eps_f: float, fco: float) -> float:
    """Jacket hoop rupture strain from the fiber ultimate tensile strain."""
    _require("eps_f", eps_f)
    _require("fco", fco)
    return eps_f / fco ** 0.125


def confinement_stress(ef_mpa: float, eps_h_rup: float, t: float, d: float) -> float:
    """Maximum lateral pressure exerted by the jacket, MPa."""
    inf = math.inf
    if not (0.0 <= ef_mpa < inf and ef_mpa != 0.0 and 0.0 <= t < inf and t != 0.0
            and 0.0 <= d < inf and d != 0.0 and 0.0 <= eps_h_rup < inf):
        _require("ef_mpa", ef_mpa)
        _require("t", t)
        _require("d", d)
        _require("eps_h_rup", eps_h_rup, zero_ok=True)
    return 2.0 * ef_mpa * eps_h_rup * t / d


def _require_strength(fco: float, f_l: float) -> None:
    """fco positive and f_l non-negative, both finite."""
    if not (0.0 <= fco < math.inf and fco != 0.0 and 0.0 <= f_l < math.inf):
        _require("fco", fco)
        _require("f_l", f_l, zero_ok=True)


def _overflow(model: str, fco: float, f_l: float, fcc: float) -> None:
    """Raise for a strength that overflowed to inf without an OverflowError:
    a bad input like any other, not an arithmetic fault."""
    raise ValueError(f"{model} model overflows: fcc={fcc} with f_l={f_l}, fco={fco}")


def lam_teng(fco: float, f_l: float) -> float:
    """Lam-Teng confined strength, linear in the confinement ratio."""
    _require_strength(fco, f_l)
    fcc = fco * (1.0 + LAM_TENG_COEFFICIENT * f_l / fco)
    if not fcc < math.inf:
        _overflow("lam_teng", fco, f_l, fcc)
    return fcc


def miyauchi(fco: float, f_l: float) -> float:
    """Miyauchi confined strength, linear with a steeper coefficient."""
    _require_strength(fco, f_l)
    fcc = fco * (1.0 + MIYAUCHI_COEFFICIENT * f_l / fco)
    if not fcc < math.inf:
        _overflow("miyauchi", fco, f_l, fcc)
    return fcc


@dataclass(frozen=True)
class EmpiricalModelParams(ConfigBase):
    """Multiplier k and exponent n of the nonlinear strength model."""

    k: float
    n: float

    def __post_init__(self):
        super().__post_init__()
        _require("k", self.k)
        _require("n", self.n)


def nonlinear_model(fco: float, f_l: float, params: EmpiricalModelParams) -> float:
    """Nonlinear confined strength fcc = fco * (1 + k * (f_l / fco)**n)."""
    _require_strength(fco, f_l)
    try:
        fcc = fco * (1.0 + params.k * (f_l / fco) ** params.n)
    except OverflowError:  # a bad input like any other, not an arithmetic fault
        raise ValueError(f"nonlinear model overflows: (f_l / fco) ** n with f_l={f_l}, fco={fco}, "
                         f"n={params.n}") from None
    if not fcc < math.inf:
        _overflow("nonlinear", fco, f_l, fcc)
    return fcc


def eurocode_strains(fcm: float) -> tuple[float, float]:
    """Eurocode 2 average and ultimate compressive strains for mean strength fcm (MPa)."""
    _require("fcm", fcm)
    eps_c1 = 0.0014 * (2.0 - math.exp(-0.024 * fcm) - math.exp(-0.140 * fcm))
    eps_cu1 = 0.004 - 0.0011 * (1.0 - math.exp(-0.0215 * fcm))
    return eps_c1, eps_cu1


def check_model(model: str, params: EmpiricalModelParams | None) -> None:
    """Raise unless ``model`` names an empirical model and has the parameters it needs."""
    if model not in EMPIRICAL_MODELS:
        raise ValueError(f"unknown empirical model {model!r}; choose from {EMPIRICAL_MODELS}")
    if model == "nonlinear" and params is None:
        raise ValueError("nonlinear model requires explicit EmpiricalModelParams")


def predict_record(
    record,
    model: str = "lam_teng",
    params: EmpiricalModelParams | None = None,
    eps_f: float | None = None,
) -> float:
    """Chain rupture strain and lateral pressure into one strength model.

    ``record`` may be a SpecimenRecord or mapping carrying ``d``, ``nt``,
    ``ef`` (GPa), and ``fco`` (MPa). The rupture strain is the record's own
    ``eps_h_rup``, else derived from ``eps_f`` via the rupture-strain
    relation; with neither a configuration error is raised rather than
    guessing.
    """
    check_model(model, params)
    # a record by one attrgetter; anything else as a mapping (no ABC check: it runs in Python)
    d, nt, ef, fco, eps = (_record_fields(record) if isinstance(record, SpecimenRecord)
                           else map(record.get, _RECORD_FIELDS))
    if d is None or nt is None or ef is None or fco is None:
        missing = next(n for n, v in zip(_RECORD_FIELDS, (d, nt, ef, fco)) if v is None)
        raise ValueError(f"record is missing field {missing!r}")
    if eps is None and eps_f is not None:
        eps = hoop_rupture_strain(eps_f, fco)
    if eps is None:
        raise ValueError("no rupture-strain source: the record has no eps_h_rup and no fiber strain was given")
    f_l = confinement_stress(ef * 1000.0, eps, nt, d)
    if model == "lam_teng":
        return lam_teng(fco, f_l)
    if model == "miyauchi":
        return miyauchi(fco, f_l)
    return nonlinear_model(fco, f_l, params)
