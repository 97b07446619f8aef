import collections.abc
import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrpnet.dataset import SpecimenRecord
from cfrpnet.mechanics import (
    LAM_TENG_COEFFICIENT,
    MIYAUCHI_COEFFICIENT,
    EmpiricalModelParams,
    check_model,
    confinement_stress,
    eurocode_strains,
    hoop_rupture_strain,
    lam_teng,
    miyauchi,
    nonlinear_model,
    predict_record,
)

from conftest import assert_rejects_bad_values


class TestHoopRuptureStrain:
    def test_hand_value(self):
        # 40**0.125 = 1.58582, so 0.015 / 1.58582 = 0.0094588
        assert hoop_rupture_strain(0.015, 40.0) == pytest.approx(0.015 / 40.0 ** 0.125, rel=1e-12)
        assert hoop_rupture_strain(0.015, 40.0) == pytest.approx(0.009459, rel=1e-4)

    def test_unit_denominator(self):
        assert hoop_rupture_strain(0.012, 1.0) == 0.012

    def test_linear_in_fiber_strain(self):
        assert hoop_rupture_strain(0.03, 37.0) == pytest.approx(2 * hoop_rupture_strain(0.015, 37.0), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hoop_rupture_strain(0.0, 40.0)
        with pytest.raises(ValueError):
            hoop_rupture_strain(0.015, -1.0)


class TestConfinementStress:
    def test_hand_value(self):
        assert confinement_stress(231000.0, 0.01, 0.167, 150.0) == pytest.approx(5.1436, rel=1e-4)

    def test_zero_hoop_strain(self):
        assert confinement_stress(231000.0, 0.0, 0.167, 150.0) == 0.0

    def test_scaling(self):
        base = confinement_stress(231000.0, 0.01, 0.167, 150.0)
        assert confinement_stress(462000.0, 0.01, 0.167, 150.0) == pytest.approx(2 * base, rel=1e-12)
        assert confinement_stress(231000.0, 0.02, 0.167, 150.0) == pytest.approx(2 * base, rel=1e-12)
        assert confinement_stress(231000.0, 0.01, 0.334, 150.0) == pytest.approx(2 * base, rel=1e-12)
        assert confinement_stress(231000.0, 0.01, 0.167, 300.0) == pytest.approx(base / 2, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            confinement_stress(0.0, 0.01, 0.167, 150.0)


class TestStrengthModels:
    def test_unconfined_limits(self):
        assert lam_teng(30.0, 0.0) == 30.0
        assert miyauchi(30.0, 0.0) == 30.0

    def test_hand_values(self):
        assert lam_teng(30.0, 10.0) == pytest.approx(63.0, rel=1e-12)
        assert miyauchi(30.0, 10.0) == pytest.approx(64.85, rel=1e-12)
        assert lam_teng(30.0, 5.1436) == pytest.approx(46.974, rel=1e-4)

    def test_miyauchi_exceeds_lam_teng(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            fco = rng.uniform(10.0, 150.0)
            f_l = rng.uniform(0.01, 60.0)
            assert miyauchi(fco, f_l) > lam_teng(fco, f_l)

    def test_strictly_increasing_in_pressure(self):
        pressures = np.linspace(0.0, 40.0, 30)
        lt = [lam_teng(25.0, p) for p in pressures]
        mi = [miyauchi(25.0, p) for p in pressures]
        assert all(b > a for a, b in zip(lt, lt[1:]))
        assert all(b > a for a, b in zip(mi, mi[1:]))

    def test_deterministic(self):
        assert lam_teng(31.7, 8.3) == lam_teng(31.7, 8.3)

    @pytest.mark.parametrize("fn, args", [
        (lam_teng, (1.0, 1e308)),
        (miyauchi, (1.0, 1e308)),
        (nonlinear_model, (5e-324, 1.0, EmpiricalModelParams(k=1.0, n=2.0))),
        (nonlinear_model, (1.0, 1e300, EmpiricalModelParams(k=1e10, n=1.0))),
    ])
    def test_overflow_to_inf_is_a_value_error(self, fn, args):
        # finite, valid inputs whose strength overflows to inf without an OverflowError
        with pytest.raises(ValueError, match=r"model overflows: fcc=inf with f_l="):
            fn(*args)


class TestNonlinearModel:
    def test_reduces_to_lam_teng(self):
        params = EmpiricalModelParams(k=3.3, n=1.0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            fco = rng.uniform(10.0, 180.0)
            f_l = rng.uniform(0.0, 50.0)
            assert nonlinear_model(fco, f_l, params) == pytest.approx(lam_teng(fco, f_l), rel=1e-12)

    def test_matches_miyauchi_on_random_inputs(self):
        params = EmpiricalModelParams(k=3.485, n=1.0)
        rng = np.random.default_rng(2)
        for _ in range(1000):
            fco = rng.uniform(10.0, 180.0)
            f_l = rng.uniform(0.0, 50.0)
            assert nonlinear_model(fco, f_l, params) == pytest.approx(miyauchi(fco, f_l), rel=1e-12)

    def test_unconfined_limit(self):
        assert nonlinear_model(25.0, 0.0, EmpiricalModelParams(k=2.0, n=0.5)) == 25.0

    def test_hand_value(self):
        # 25 * (1 + 2 * (4/25)**0.5) = 25 * (1 + 2*0.4) = 45
        assert nonlinear_model(25.0, 4.0, EmpiricalModelParams(k=2.0, n=0.5)) == pytest.approx(45.0, rel=1e-12)

    def test_overflow_is_a_value_error(self):
        # (f_l / fco) ** n overflows: a bad input that per-model isolation records
        params = EmpiricalModelParams(k=1.0, n=2.0)
        with pytest.raises(ValueError) as exc:
            nonlinear_model(1.0, 1e300, params)
        assert str(exc.value) == "nonlinear model overflows: (f_l / fco) ** n with f_l=1e+300, fco=1.0, n=2.0"
        record = {"d": 1.0, "nt": 1.0, "ef": 1e200, "fco": 1.0, "eps_h_rup": 0.01}
        with pytest.raises(ValueError, match="^nonlinear model overflows"):
            predict_record(record, model="nonlinear", params=params)
        assert predict_record(record, model="lam_teng") == 1.0 + LAM_TENG_COEFFICIENT * 2e201

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EmpiricalModelParams(k=0.0, n=1.0)
        with pytest.raises(ValueError):
            EmpiricalModelParams(k=3.3, n=-1.0)
        assert_rejects_bad_values(EmpiricalModelParams(k=3.3, n=1.0))
        with pytest.raises(ValueError, match="missing"):
            EmpiricalModelParams.from_dict({"k": 3.3})


class TestEurocodeStrains:
    def test_hand_values(self):
        eps_c1, eps_cu1 = eurocode_strains(12.5)
        assert eps_c1 == pytest.approx(0.0015196, rel=1e-4)
        assert eps_cu1 == pytest.approx(0.0037408, rel=1e-4)

    def test_asymptotic_limits(self):
        eps_c1, eps_cu1 = eurocode_strains(1e6)
        assert eps_c1 == pytest.approx(0.0028, rel=1e-9)
        assert eps_cu1 == pytest.approx(0.0029, rel=1e-9)

    def test_bounded_over_practical_range(self):
        for fcm in np.linspace(1.0, 200.0, 200):
            eps_c1, eps_cu1 = eurocode_strains(float(fcm))
            assert 0.0 < eps_c1 < 0.004
            assert 0.0 < eps_cu1 < 0.004

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eurocode_strains(0.0)


class _UserMapping(collections.abc.Mapping):
    """A mapping that is neither a dict nor registered by the standard library."""

    def __init__(self, fields):
        self._fields = dict(fields)

    def __getitem__(self, key):
        return self._fields[key]

    def __iter__(self):
        return iter(self._fields)

    def __len__(self):
        return len(self._fields)


class TestPredictRecord:
    def _record(self, **overrides):
        base = dict(d=150.0, h=300.0, nt=0.167, ef=231.0, fco=30.0,
                    eco=0.2, ecc=1.2, fcc=45.0)
        base.update(overrides)
        return SpecimenRecord(**base)

    def test_chained_hand_value(self):
        fcc = predict_record(self._record(), model="lam_teng", eps_h_rup=0.01)
        assert fcc == pytest.approx(46.974, rel=1e-4)

    def test_zero_confinement_path(self):
        r = self._record()
        params = EmpiricalModelParams(k=2.0, n=0.7)
        for model, kwargs in [("lam_teng", {}), ("miyauchi", {}), ("nonlinear", {"params": params})]:
            assert predict_record(r, model=model, eps_h_rup=0.0, **kwargs) == r.fco

    def test_nonlinear_reduction_on_records(self):
        params = EmpiricalModelParams(k=3.3, n=1.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = self._record(nt=rng.uniform(0.1, 1.0), fco=rng.uniform(15.0, 90.0))
            eps = rng.uniform(0.004, 0.02)
            a = predict_record(r, model="nonlinear", params=params, eps_h_rup=eps)
            b = predict_record(r, model="lam_teng", eps_h_rup=eps)
            assert a == pytest.approx(b, rel=1e-12)

    def test_record_rupture_strain_used(self):
        r = self._record(eps_h_rup=0.01)
        assert predict_record(r) == pytest.approx(46.974, rel=1e-4)

    def test_explicit_overrides_record(self):
        r = self._record(eps_h_rup=0.01)
        assert predict_record(r, eps_h_rup=0.0) == r.fco

    def test_fiber_strain_fallback(self):
        r = self._record(fco=40.0)
        expected = lam_teng(40.0, confinement_stress(231000.0, hoop_rupture_strain(0.015, 40.0), 0.167, 150.0))
        assert predict_record(r, eps_f=0.015) == pytest.approx(expected, rel=1e-12)

    def test_no_rupture_source(self):
        with pytest.raises(ValueError, match="rupture-strain"):
            predict_record(self._record())

    def test_mapping_input(self):
        values = {"d": 150.0, "nt": 0.167, "ef": 231.0, "fco": 30.0}
        assert predict_record(values, eps_h_rup=0.01) == pytest.approx(46.974, rel=1e-4)

    @pytest.mark.parametrize("container", [dict, types.MappingProxyType, _UserMapping,
                                           lambda fields: types.SimpleNamespace(**fields)])
    def test_record_kinds_agree(self, container):
        rng = np.random.default_rng(4)
        params = EmpiricalModelParams(k=2.1, n=0.8)
        for _ in range(20):
            r = self._record(d=rng.uniform(100.0, 300.0), nt=rng.uniform(0.1, 2.0),
                             ef=rng.uniform(50.0, 400.0), fco=rng.uniform(15.0, 80.0),
                             eps_h_rup=rng.uniform(0.005, 0.015))
            other = container({f: getattr(r, f) for f in ("d", "nt", "ef", "fco", "eps_h_rup")})
            for model in ("lam_teng", "miyauchi", "nonlinear"):
                for kwargs in ({}, {"eps_h_rup": 0.02}):
                    expected = predict_record(r, model=model, params=params, **kwargs)
                    assert predict_record(other, model=model, params=params, **kwargs) == expected
            fields = {"d": r.d, "nt": r.nt, "ef": r.ef, "fco": r.fco}  # rupture strain from eps_f
            expected = predict_record(dataclasses.replace(r, eps_h_rup=None), eps_f=0.015)
            assert predict_record(container(fields), eps_f=0.015) == expected

    @pytest.mark.parametrize("container", [dict, types.MappingProxyType, _UserMapping,
                                           lambda fields: types.SimpleNamespace(**fields)])
    @pytest.mark.parametrize("missing", ["d", "nt", "ef", "fco"])
    def test_missing_field_same_error(self, container, missing):
        fields = {"d": 150.0, "nt": 0.167, "ef": 231.0, "fco": 30.0, "eps_h_rup": 0.01}
        del fields[missing]
        with pytest.raises(ValueError, match=f"^record is missing field '{missing}'$"):
            predict_record(container(fields))
        del fields["eps_h_rup"]
        with pytest.raises(ValueError, match=f"^record is missing field '{missing}'$"):
            predict_record(container(fields), eps_f=0.015)

    def test_mapping_read_by_key_not_attribute(self):
        # a mapping that also carries record attributes is read as a mapping
        class MappingWithAttributes(_UserMapping):
            d, nt, ef, fco, eps_h_rup = 300.0, 1.0, 100.0, 50.0, 0.02

        fields = {"d": 150.0, "nt": 0.167, "ef": 231.0, "fco": 30.0, "eps_h_rup": 0.01}
        expected = predict_record(self._record(**fields))
        assert predict_record(MappingWithAttributes(fields)) == predict_record(fields) == expected
        assert predict_record(types.SimpleNamespace(**fields)) == expected

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown empirical model"):
            predict_record(self._record(), model="svm", eps_h_rup=0.01)

    def test_nonlinear_needs_params(self):
        with pytest.raises(ValueError, match="nonlinear"):
            predict_record(self._record(), model="nonlinear", eps_h_rup=0.01)


# Each guarded function with valid arguments, and the rule each argument must meet.
GUARDED = [
    (hoop_rupture_strain, {"eps_f": 0.015, "fco": 40.0}, {"eps_f": "positive", "fco": "positive"}),
    (confinement_stress, {"ef_mpa": 231000.0, "eps_h_rup": 0.01, "t": 0.167, "d": 150.0},
     {"ef_mpa": "positive", "eps_h_rup": "non-negative", "t": "positive", "d": "positive"}),
    (lam_teng, {"fco": 30.0, "f_l": 5.0}, {"fco": "positive", "f_l": "non-negative"}),
    (miyauchi, {"fco": 30.0, "f_l": 5.0}, {"fco": "positive", "f_l": "non-negative"}),
    (nonlinear_model, {"fco": 30.0, "f_l": 5.0, "params": EmpiricalModelParams(k=2.0, n=0.5)},
     {"fco": "positive", "f_l": "non-negative"}),
    (eurocode_strains, {"fcm": 30.0}, {"fcm": "positive"}),
    (EmpiricalModelParams, {"k": 2.0, "n": 0.5}, {"k": "positive", "n": "positive"}),
]
GUARD_CASES = [
    pytest.param(fn, {**valid, name: value}, name, rule, value,
                 id=f"{fn.__name__}-{name}-{value}")
    for fn, valid, rules in GUARDED
    for name, rule in rules.items()
    for value in ((0.0,) if rule == "positive" else ()) + (-1.0, math.nan, math.inf)
]


@pytest.mark.parametrize("fn, kwargs, name, rule, value", GUARD_CASES)
def test_guard_messages(fn, kwargs, name, rule, value):
    expected = f"{name} must be {rule} and finite, got {value}"
    if fn is EmpiricalModelParams and not math.isfinite(value):
        expected = f"EmpiricalModelParams.{name} must be float, got {value!r}"  # the config base's check
    with pytest.raises(ValueError) as exc:
        fn(**kwargs)
    assert str(exc.value) == expected


def test_guard_reports_the_first_checked_argument():
    # positive arguments are checked before the non-negative rupture strain
    with pytest.raises(ValueError) as exc:
        confinement_stress(231000.0, -1.0, 0.167, 0.0)
    assert str(exc.value) == "d must be positive and finite, got 0.0"


def test_formula_oracle_runtime():
    # the closed forms must be effectively instantaneous
    import time
    start = time.perf_counter()
    for _ in range(200):
        hoop_rupture_strain(0.015, 40.0)
        confinement_stress(231000.0, 0.01, 0.167, 150.0)
        lam_teng(30.0, 10.0)
        miyauchi(30.0, 10.0)
        eurocode_strains(12.5)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.2  # 1000 calls, sub-millisecond each with big margin


def test_repeated_calls_agree_bitwise():
    args = (231000.0, 0.00912, 0.334, 203.0)
    assert confinement_stress(*args) == confinement_stress(*args)
    assert eurocode_strains(47.3) == eurocode_strains(47.3)


# The oracle: the checked chain predict_record ran before its checks were
# merged, one argument at a time in the checked functions' order.
def _require_one(name, value, zero_ok=False):
    if not 0.0 <= value < math.inf or (value == 0.0 and not zero_ok):
        rule = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {rule} and finite, got {value}")


def _confinement_by_argument(ef_mpa, eps_h_rup, t, d):
    for name, value in (("ef_mpa", ef_mpa), ("t", t), ("d", d)):
        _require_one(name, value)
    _require_one("eps_h_rup", eps_h_rup, zero_ok=True)
    return 2.0 * ef_mpa * eps_h_rup * t / d


def _strength_by_argument(model, fco, f_l, params=None):
    _require_one("fco", fco)
    _require_one("f_l", f_l, zero_ok=True)
    if model == "nonlinear":
        try:
            fcc = fco * (1.0 + params.k * (f_l / fco) ** params.n)
        except OverflowError:
            raise ValueError(f"nonlinear model overflows: (f_l / fco) ** n with f_l={f_l}, fco={fco}, "
                             f"n={params.n}") from None
    else:
        coefficient = LAM_TENG_COEFFICIENT if model == "lam_teng" else MIYAUCHI_COEFFICIENT
        fcc = fco * (1.0 + coefficient * f_l / fco)
    if not math.isfinite(fcc):
        raise ValueError(f"{model} model overflows: fcc={fcc} with f_l={f_l}, fco={fco}")
    return fcc


def _predict_by_argument(record, model="lam_teng", params=None, eps_h_rup=None, eps_f=None):
    check_model(model, params)
    names = ("d", "nt", "ef", "fco", "eps_h_rup")
    if isinstance(record, collections.abc.Mapping):
        d, nt, ef, fco, record_eps = [record.get(name) for name in names]
    else:
        d, nt, ef, fco, record_eps = [getattr(record, name, None) for name in names]
    for name, value in zip(names, (d, nt, ef, fco)):
        if value is None:
            raise ValueError(f"record is missing field {name!r}")
    eps = eps_h_rup if eps_h_rup is not None else record_eps
    if eps is None and eps_f is not None:
        _require_one("eps_f", eps_f)
        _require_one("fco", fco)
        eps = eps_f / fco ** 0.125
    if eps is None:
        raise ValueError("no rupture-strain source: supply eps_h_rup, a record value, or eps_f")
    return _strength_by_argument(model, fco, _confinement_by_argument(ef * 1000.0, eps, nt, d), params)


def _bits(fn, *args, **kwargs):
    """The result's exact bits, or the error's type and message; any other
    error, an ArithmeticError included, fails the test."""
    try:
        return float(fn(*args, **kwargs)).hex()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


# Valid inputs, zero, negatives, NaN, infinities, subnormals, huge values
# (so that the pressure overflows), ints and a string.
MECH_VALUES = (st.floats(0.01, 1000.0) | st.floats()
               | st.sampled_from([0.0, -1.0, 5e-324, 1e300, 3, "x"]))
PARAMS = st.builds(EmpiricalModelParams, k=st.floats(0.1, 5.0), n=st.floats(0.2, 2.0))


class TestMergedChecksAgreeWithArgumentChecks:
    """The guards test all their arguments in one chained comparison and the
    fields are fetched at once; bits and errors must stay those of checking
    one argument after another."""

    @settings(max_examples=400, deadline=None)
    @given(MECH_VALUES, MECH_VALUES, MECH_VALUES, MECH_VALUES, PARAMS)
    def test_guards(self, a, b, c, e, params):
        assert _bits(confinement_stress, a, b, c, e) == _bits(_confinement_by_argument, a, b, c, e)
        for model, fn, extra in (("lam_teng", lam_teng, ()), ("miyauchi", miyauchi, ()),
                                 ("nonlinear", nonlinear_model, (params,))):
            assert _bits(fn, a, b, *extra) == _bits(_strength_by_argument, model, a, b, *extra)

    @settings(max_examples=600, deadline=None)
    @given(st.fixed_dictionaries({name: MECH_VALUES for name in ("d", "nt", "ef", "fco")}),
           st.sets(st.sampled_from(["d", "nt", "ef", "fco"]), max_size=1),
           st.sampled_from(["lam_teng", "miyauchi", "nonlinear"]), PARAMS,
           st.sampled_from(["argument", "record", "eps_f", "none"]), MECH_VALUES)
    def test_predict_record(self, values, absent, model, params, source, strain):
        fields = {k: v for k, v in values.items() if k not in absent}
        kwargs = {"model": model, "params": params}
        if source == "record":
            fields["eps_h_rup"] = strain
        elif source != "none":
            kwargs["eps_h_rup" if source == "argument" else "eps_f"] = strain
        containers = [fields, types.SimpleNamespace(**fields), types.MappingProxyType(fields)]
        try:
            d = fields["d"]
            containers.append(SpecimenRecord(d=d, h=2 * d, nt=fields["nt"], ef=fields["ef"],
                                             fco=fields["fco"], eco=0.2, ecc=1.2, fcc=45.0,
                                             eps_h_rup=fields.get("eps_h_rup")))
        except (KeyError, ValueError, TypeError):
            pass  # not a valid record
        expected = _bits(_predict_by_argument, fields, **kwargs)
        for record in containers:
            assert _bits(predict_record, record, **kwargs) == expected

    def test_errors_kept(self):
        fields = {"d": 150.0, "nt": 0.167, "ef": 231.0, "fco": 30.0, "eps_h_rup": 0.01}
        cases = [
            ({**fields, "ef": 1e300, "nt": 1e300, "d": 1.0}, "f_l must be non-negative and finite, got inf"),
            ({**fields, "nt": -1.0}, "t must be positive and finite, got -1.0"),
            ({**fields, "fco": math.nan}, "fco must be positive and finite, got nan"),
            ({**fields, "eps_h_rup": -0.01}, "eps_h_rup must be non-negative and finite, got -0.01"),
            ({k: v for k, v in fields.items() if k != "nt"}, "record is missing field 'nt'"),
        ]
        for values, message in cases:
            for record in (values, types.SimpleNamespace(**values)):
                for model in ("lam_teng", "miyauchi"):
                    with pytest.raises(ValueError) as exc:
                        predict_record(record, model=model)
                    assert str(exc.value) == message
