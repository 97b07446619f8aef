import dataclasses
import math
import typing

import numpy as np
import pytest

from cfrpnet.dataset import FIELD_BOUNDS, SpecimenRecord


def make_records(n=40, seed=0, with_rupture=False):
    """Plausible in-range records for tests that just need valid data.

    Labels are arbitrary smooth functions of the inputs, not mechanics.
    """
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        d = rng.uniform(100.0, 300.0)
        nt = rng.uniform(0.1, 2.0)
        ef = rng.uniform(50.0, 400.0)
        fco = rng.uniform(15.0, 80.0)
        eco = rng.uniform(0.18, 0.4)
        ecc = eco * rng.uniform(1.5, 6.0)
        fcc = fco * rng.uniform(1.1, 2.5)
        records.append(SpecimenRecord(
            d=d, h=2.0 * d, nt=nt, ef=ef, fco=fco, eco=eco, ecc=ecc, fcc=fcc,
            eps_h_rup=rng.uniform(0.005, 0.015) if with_rupture else None,
        ))
    return records


@pytest.fixture
def records():
    return make_records()


def table1_extremes():
    """Two records sitting exactly on the reference min/max bounds."""
    low = SpecimenRecord(**{f: FIELD_BOUNDS[f][0] for f in FIELD_BOUNDS})
    high = SpecimenRecord(**{f: FIELD_BOUNDS[f][1] for f in FIELD_BOUNDS})
    return [low, high]


# Values every int field must reject; float fields accept 7.5.
BAD_INTS = (math.nan, math.inf, -math.inf, True, 7.5, "5")


def assert_rejects_bad_values(config):
    """Every int, float and str field of a valid config rejects ill-typed values.

    NaN, +-inf, booleans and strings fail as ints and floats, 7.5 fails as
    an int, and 5 fails as a string; each raises ValueError on
    construction and through from_dict.
    """
    hints = typing.get_type_hints(type(config))
    settings = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    for f in dataclasses.fields(config):
        kinds = set(typing.get_args(hints[f.name])) or {hints[f.name]}
        if int in kinds:
            bad = BAD_INTS
        elif float in kinds:
            bad = tuple(v for v in BAD_INTS if v != 7.5)
        elif str in kinds:
            bad = (5, True)
        else:
            continue
        for value in bad:
            with pytest.raises(ValueError):
                dataclasses.replace(config, **{f.name: value})
            with pytest.raises(ValueError):
                type(config).from_dict({**settings, f.name: value})
