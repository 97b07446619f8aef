"""Confinement mechanics for FRP-wrapped concrete cylinders.

Closed-form relations for hoop rupture strain, confinement stress,
strain/stiffness ratios, the Lam-Teng and Miyauchi strength models, a
configurable nonlinear strength model, and Eurocode 2 compressive strain
estimates. Everything works in MPa / mm / dimensionless strain; convert
GPa moduli and percent strains at the boundary. All functions are pure.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from .dataset import ConfigBase

LAM_TENG_COEFFICIENT = 3.3
MIYAUCHI_COEFFICIENT = 3.485

EMPIRICAL_MODELS = ("lam_teng", "miyauchi", "nonlinear")


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_non_negative(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"{name} must be non-negative and finite, got {value}")


def hoop_rupture_strain(eps_f: float, fco: float) -> float:
    """Jacket hoop rupture strain from the fiber ultimate tensile strain."""
    _require_positive(eps_f=eps_f, fco=fco)
    return eps_f / fco ** 0.125


def strain_ratio(eps_h_rup: float, eco: float) -> float:
    """Hoop rupture strain over unconfined axial strain."""
    _require_non_negative(eps_h_rup=eps_h_rup)
    _require_positive(eco=eco)
    return eps_h_rup / eco


def stiffness_ratio(ef_mpa: float, t: float, fco: float, eco: float, d: float) -> float:
    """Confinement stiffness of the jacket relative to the concrete core."""
    _require_positive(ef_mpa=ef_mpa, t=t, fco=fco, eco=eco, d=d)
    return 2.0 * ef_mpa * t / ((fco / eco) * d)


def confinement_stress(ef_mpa: float, eps_h_rup: float, t: float, d: float) -> float:
    """Maximum lateral pressure exerted by the jacket, MPa."""
    _require_positive(ef_mpa=ef_mpa, t=t, d=d)
    _require_non_negative(eps_h_rup=eps_h_rup)
    return 2.0 * ef_mpa * eps_h_rup * t / d


def lam_teng(fco: float, f_l: float) -> float:
    """Lam-Teng confined strength, linear in the confinement ratio."""
    _require_positive(fco=fco)
    _require_non_negative(f_l=f_l)
    return fco * (1.0 + LAM_TENG_COEFFICIENT * f_l / fco)


def miyauchi(fco: float, f_l: float) -> float:
    """Miyauchi confined strength, linear with a steeper coefficient."""
    _require_positive(fco=fco)
    _require_non_negative(f_l=f_l)
    return fco * (1.0 + MIYAUCHI_COEFFICIENT * f_l / fco)


@dataclass(frozen=True)
class EmpiricalModelParams(ConfigBase):
    """Multiplier k and exponent n of the nonlinear strength model."""

    k: float
    n: float

    def __post_init__(self):
        super().__post_init__()
        _require_positive(k=self.k, n=self.n)


def nonlinear_model(fco: float, f_l: float, params: EmpiricalModelParams) -> float:
    """Nonlinear confined strength fcc = fco * (1 + k * (f_l / fco)**n)."""
    _require_positive(fco=fco)
    _require_non_negative(f_l=f_l)
    return fco * (1.0 + params.k * (f_l / fco) ** params.n)


def eurocode_strains(fcm: float) -> tuple[float, float]:
    """Eurocode 2 average and ultimate compressive strains for mean strength fcm (MPa)."""
    _require_positive(fcm=fcm)
    eps_c1 = 0.0014 * (2.0 - math.exp(-0.024 * fcm) - math.exp(-0.140 * fcm))
    eps_cu1 = 0.004 - 0.0011 * (1.0 - math.exp(-0.0215 * fcm))
    return eps_c1, eps_cu1


@dataclass(frozen=True)
class ConfinementInputs:
    """Inputs for the confinement chain, MPa / mm / dimensionless strain.

    At least one of ``eps_f`` (fiber ultimate strain) or ``eps_h_rup``
    (measured hoop rupture strain) must be present to compute the lateral
    pressure.
    """

    ef_mpa: float
    t: float
    d: float
    fco: float
    eco: float | None = None
    eps_f: float | None = None
    eps_h_rup: float | None = None

    def __post_init__(self):
        _require_positive(ef_mpa=self.ef_mpa, t=self.t, d=self.d, fco=self.fco)
        if self.eco is not None:
            _require_positive(eco=self.eco)
        if self.eps_f is not None:
            _require_positive(eps_f=self.eps_f)
        if self.eps_h_rup is not None:
            _require_non_negative(eps_h_rup=self.eps_h_rup)

    def rupture_strain(self) -> float:
        if self.eps_h_rup is not None:
            return self.eps_h_rup
        if self.eps_f is not None:
            return hoop_rupture_strain(self.eps_f, self.fco)
        raise ValueError("no rupture-strain source: supply eps_h_rup or eps_f")

    def lateral_pressure(self) -> float:
        return confinement_stress(self.ef_mpa, self.rupture_strain(), self.t, self.d)


def _fields(record, names) -> list:
    """The named fields of a mapping or an object, None where absent."""
    if isinstance(record, Mapping):
        return [record.get(name) for name in names]
    return [getattr(record, name, None) for name in names]


def predict_record(
    record,
    model: str = "lam_teng",
    params: EmpiricalModelParams | None = None,
    eps_h_rup: float | None = None,
    eps_f: float | None = None,
) -> float:
    """Chain rupture strain and lateral pressure into one strength model.

    ``record`` may be a SpecimenRecord or mapping carrying ``d``, ``nt``,
    ``ef`` (GPa), and ``fco`` (MPa). The rupture strain comes from the
    ``eps_h_rup`` argument, then the record's own value, then from
    ``eps_f`` via the rupture-strain relation; with no source available a
    configuration error is raised rather than guessing.
    """
    if model not in EMPIRICAL_MODELS:
        raise ValueError(f"unknown empirical model {model!r}; choose from {EMPIRICAL_MODELS}")
    if model == "nonlinear" and params is None:
        raise ValueError("nonlinear model requires explicit EmpiricalModelParams")
    names = ("d", "nt", "ef", "fco", "eps_h_rup")
    d, nt, ef, fco, record_eps = _fields(record, names)
    for name, value in zip(names, (d, nt, ef, fco)):
        if value is None:
            raise ValueError(f"record is missing field {name!r}")
    eps = eps_h_rup if eps_h_rup is not None else record_eps
    if eps is None and eps_f is not None:
        eps = hoop_rupture_strain(eps_f, fco)
    if eps is None:
        raise ValueError("no rupture-strain source: supply eps_h_rup, a record value, or eps_f")
    f_l = confinement_stress(ef * 1000.0, eps, nt, d)
    if model == "lam_teng":
        return lam_teng(fco, f_l)
    if model == "miyauchi":
        return miyauchi(fco, f_l)
    return nonlinear_model(fco, f_l, params)
