import math
import warnings

import numpy as np
import pytest

from cfrpnet.dataset import FeatureRange, NormalizationSpec, split
from cfrpnet.experiment import model_seed, synth_dataset
from cfrpnet.mechanics import predict_record
from cfrpnet.metrics import mae, mse, r_squared, report_from_pairs


def naive_mse(t, p):
    return sum((a - b) ** 2 for a, b in zip(t, p)) / len(t)


def naive_mae(t, p):
    return sum(abs(a - b) for a, b in zip(t, p)) / len(t)


def naive_r_squared(x, y):
    """Raw textbook product-moment form in exact rational arithmetic.

    Exact evaluation sidesteps the cancellation the raw form suffers in
    floats, so disagreement beyond 1e-12 is always the implementation's
    fault, never the oracle's.
    """
    from fractions import Fraction

    xs = [Fraction(float(a)) for a in x]
    ys = [Fraction(float(b)) for b in y]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(a * b for a, b in zip(xs, ys))
    sxx = sum(a * a for a in xs)
    syy = sum(b * b for b in ys)
    num = n * sxy - sx * sy
    den2 = (n * sxx - sx * sx) * (n * syy - sy * sy)
    return float(num * num / den2)


class TestMse:
    def test_identical_vectors(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(1 / 3, rel=1e-15)

    def test_translation_invariance(self):
        t = np.array([1.0, 2.0, 3.0])
        p = np.array([1.5, 1.8, 3.3])
        assert mse(t + 7.5, p + 7.5) == pytest.approx(mse(t, p), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse([], [])


class TestMae:
    def test_identical_vectors(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert mae([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(1 / 3, rel=1e-15)

    def test_jensen_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            t = rng.normal(size=12)
            p = rng.normal(size=12)
            assert mae(t, p) <= math.sqrt(mse(t, p)) + 1e-15


class TestRSquared:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_affine_of_itself(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(x, 2.5 * x - 7.0) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 2.0]) == pytest.approx(0.75, rel=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 40)
        y = rng.uniform(0, 1, 40)
        base = r_squared(x, y)
        assert r_squared(3.0 * x + 11.0, y) == pytest.approx(base, abs=1e-12)
        assert r_squared(x, -0.5 * y + 2.0) == pytest.approx(base, abs=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            r_squared([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            r_squared([1.0], [2.0])

    @pytest.mark.parametrize("scale", [1e80, 1e-100])
    def test_perfect_fit_at_extreme_scales(self, scale):
        # the product of the two centered sums overflows (underflows) though each sum is finite
        x = [0.0, scale, 2.0 * scale]
        assert r_squared(x, x) == 1.0
        assert report_from_pairs([40.0, *x[1:]], [40.0, *x[1:]]).accuracy_percent == 100.0

    def test_reference_split_bits_kept(self):
        # on the seed-1 reference split's test targets, r² is the one-root form's, bit for bit
        _, test = split(synth_dataset(708, 1), 0.75, seed=model_seed(1, "split"))
        t = np.array([r.fcc for r in test])
        rng = np.random.default_rng(1)
        for p in [np.array([predict_record(r) for r in test]),
                  *(t + rng.normal(0.0, scale, t.size) for scale in (0.1, 1.0, 10.0, 100.0))]:
            dx, dy = t - t.mean(), p - p.mean()
            r = float(np.dot(dx, dy)) / math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
            assert r_squared(t, p) == r * r


class TestOracleEquivalence:
    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            t = rng.uniform(0.0, 1.0, n)
            p = rng.uniform(0.0, 1.0, n)
            assert mse(t, p) == pytest.approx(naive_mse(t, p), rel=1e-12)
            assert mae(t, p) == pytest.approx(naive_mae(t, p), rel=1e-12)
            if np.std(t) > 1e-9 and np.std(p) > 1e-9:
                assert r_squared(t, p) == pytest.approx(naive_r_squared(t, p), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0, 100, 60)
        p = rng.uniform(0, 100, 60)
        perm = rng.permutation(60)
        assert mse(t[perm], p[perm]) == pytest.approx(mse(t, p), rel=1e-12)
        assert mae(t[perm], p[perm]) == pytest.approx(mae(t, p), rel=1e-12)
        assert r_squared(t[perm], p[perm]) == pytest.approx(r_squared(t, p), rel=1e-12)


def _fcc_spec():
    return NormalizationSpec(ranges={"fcc": FeatureRange(18.5, 302.2)})


class TestReports:
    def test_report_fields(self):
        spec = _fcc_spec()
        t = np.array([40.0, 90.0, 150.0, 210.0])
        p = np.array([42.0, 88.0, 155.0, 200.0])
        report = report_from_pairs(t, p, spec)
        assert report.n == 4
        assert report.mse_mpa == pytest.approx(mse(t, p), rel=1e-15)
        assert report.mae_mpa == pytest.approx(mae(t, p), rel=1e-15)
        assert report.accuracy_percent == pytest.approx(100.0 * r_squared(t, p), rel=1e-12)
        tn = spec.normalize("fcc", t)
        pn = spec.normalize("fcc", p)
        assert report.mse_pct == pytest.approx(100.0 * mse(tn, pn), rel=1e-12)
        assert report.mae_pct == pytest.approx(100.0 * mae(tn, pn), rel=1e-12)
        assert report.mae_mpa ** 2 <= report.mse_mpa + 1e-15

    def test_single_pair_flags_r_squared(self):
        report = report_from_pairs([45.0], [44.0], _fcc_spec())
        assert report.r_squared is None
        assert report.accuracy_percent is None
        assert report.notes == ["r_squared needs at least 2 pairs"]

    def test_constant_predictions_flagged(self):
        report = report_from_pairs([45.0, 50.0], [44.0, 44.0], _fcc_spec())
        assert report.r_squared is None
        assert any("constant" in note for note in report.notes)

    @pytest.mark.parametrize("targets, predictions", [
        ([40.0, 90.0, 150.0], [3e200, 1e200, 7e199]),  # squared errors overflow
        ([40.0, 90.0, 150.0], [1.5e308, -1.5e308, 1.0]),  # the differences overflow
    ])
    def test_overflowing_metrics_refused_without_warnings(self, targets, predictions):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in (None, _fcc_spec()):
                with pytest.raises(ValueError, match="^error metrics overflow for values up to "):
                    report_from_pairs(targets, predictions, spec)

    def test_pairs_csv(self):
        report = report_from_pairs([40.0, 90.0], [42.0, 88.0], _fcc_spec())
        lines = report.pairs_csv().strip().split("\n")
        assert lines[0] == "target_mpa,prediction_mpa"
        assert lines[1] == "40.0,42.0"

    def test_to_dict_roundtrips_through_json(self):
        import json
        report = report_from_pairs([40.0, 90.0], [42.0, 88.0], _fcc_spec())
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert sorted(payload) == ["accuracy_percent", "mae_mpa", "mae_pct", "mse_mpa", "mse_pct", "n",
                                   "notes", "r_squared"]
        assert payload["n"] == 2
