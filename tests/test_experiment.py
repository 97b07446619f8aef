import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrpnet import experiment, mechanics
from cfrpnet.dataset import (DEFAULT_FEATURES, FIELD_BOUNDS, FIELDS, feature_matrix, fit_normalizer, raw_matrix,
                             target_vector)
from cfrpnet.experiment import (
    ALL_MODELS,
    MODEL_CONFIGS,
    EmpiricalPredictor,
    ExperimentConfig,
    SweepSpec,
    SynthSpec,
    model_seed,
    parametric_sweep,
    run_experiment,
    synth_dataset,
    train_model,
)
from cfrpnet.mechanics import EmpiricalModelParams
from cfrpnet.neuralnet import BackpropConfig, forward_batch, load_model, save_model
from cfrpnet.optimizers import BaConfig, GwoConfig, PsoConfig

from conftest import assert_rejects_bad_values, make_records


def small_config(**overrides):
    """A fast roster configuration for pipeline tests."""
    base = dict(
        roster=("ann", "pso", "gwo", "ba", "lam_teng"),
        seed=5,
        pso=PsoConfig(population=6, iterations=12, seed=0),
        gwo=GwoConfig(population=6, iterations=12, seed=0),
        ba=BaConfig(population=6, iterations=12, seed=0),
        ann=BackpropConfig(epochs=15, seed=0),
        hidden_neurons=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSynthDataset:
    def test_determinism(self):
        a = synth_dataset(40, seed=9)
        b = synth_dataset(40, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        assert synth_dataset(40, seed=1) != synth_dataset(40, seed=2)

    def test_all_fields_within_reference_bounds(self):
        records = synth_dataset(300, seed=2, noise_fraction=0.02)
        data = raw_matrix(records, FIELDS)
        for j, name in enumerate(FIELDS):
            lo, hi = FIELD_BOUNDS[name]
            assert data[:, j].min() >= lo, name
            assert data[:, j].max() <= hi, name

    def test_noiseless_labels_match_lam_teng_exactly(self):
        for r in synth_dataset(60, seed=3, noise_fraction=0.0):
            assert r.fcc == mechanics.predict_record(r, model="lam_teng")

    def test_records_carry_rupture_strain(self):
        records = synth_dataset(20, seed=4)
        assert all(r.eps_h_rup is not None for r in records)
        for r in records:
            # rupture strain consistent with a fiber strain in the sampled band
            eps_f = r.eps_h_rup * r.fco ** 0.125
            assert 0.0135 <= eps_f <= 0.0165

    def test_height_is_twice_diameter(self):
        assert all(r.h == 2.0 * r.d for r in synth_dataset(20, seed=5))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            synth_dataset(5, seed=0)
        for noise in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_fraction"):
                synth_dataset(20, seed=0, noise_fraction=noise)


class TestModelSeed:
    def test_deterministic_and_name_sensitive(self):
        assert model_seed(1, "pso") == model_seed(1, "pso")
        assert model_seed(1, "pso") != model_seed(1, "gwo")
        assert model_seed(1, "pso") != model_seed(2, "pso")


class TestExperimentConfig:
    def test_from_dict_full(self):
        config = ExperimentConfig.from_dict({
            "synth": {"n": 60, "noise_fraction": 0.0},
            "roster": ["pso", "lam_teng"],
            "seed": 3,
            "models": {"pso": {"population": 5, "iterations": 8},
                       "nonlinear": {"k": 3.3, "n": 1.0}},
        })
        assert config.pso.population == 5
        assert config.nonlinear == EmpiricalModelParams(k=3.3, n=1.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_dict({"seed": 1, "rosterr": ["pso"]})
        with pytest.raises(ValueError, match="unknown model config"):
            ExperimentConfig.from_dict({"models": {"svm": {}}})

    def test_unknown_roster_model(self):
        with pytest.raises(ValueError, match="unknown roster model"):
            ExperimentConfig(roster=("pso", "svm"))

    def test_nonlinear_requires_params(self):
        with pytest.raises(ValueError, match="nonlinear"):
            ExperimentConfig(roster=("nonlinear",))

    def test_features_are_not_a_setting(self):
        # the network reads the paper's seven inputs; a config may not name others
        with pytest.raises(ValueError, match="unknown config key.*: features"):
            ExperimentConfig.from_dict({"features": list(DEFAULT_FEATURES)})

    def test_synth_seed_is_not_a_setting(self):
        # synthetic data use the master seed; a config may not name another
        with pytest.raises(ValueError, match="^unknown config key.*SynthSpec: seed$"):
            ExperimentConfig.from_dict({"synth": {"n": 30, "seed": 3}})

    @pytest.mark.parametrize("name", ["ann", "pso", "gwo", "ba"])
    def test_model_seed_is_not_a_setting(self, name):
        # run_experiment derives each model's seed from the master seed; a config may not name another
        with pytest.raises(ValueError, match=f"^models.{name}.seed is not a setting: "):
            ExperimentConfig.from_dict({"synth": {"n": 30}, "models": {name: {"seed": 5}}})

    def test_readme_config_is_accepted(self):
        # the example under "### Experiment config" in README.md advertises only real keys
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Experiment config", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        config = ExperimentConfig.from_dict(json.loads(block))
        assert config.roster == ("ann", "pso", "gwo", "ba", "lam_teng", "miyauchi")

    def test_invalid_field_types(self):
        assert_rejects_bad_values(small_config(fiber_strain=0.015, dataset="data.csv"))
        assert_rejects_bad_values(SynthSpec(n=30))
        for data in (5, {"synth": 5}, {"models": 5}, {"models": {"pso": 5}},
                     {"features": 5}, {"roster": ["pso", 5]}, {"pso": {"population": 5}}):
            with pytest.raises(ValueError):
                ExperimentConfig.from_dict(data)


# Every kind of value a JSON config can hold, with NaN, the infinities and ints
# too large for a float, nested; plus values that pass the type checks, so that
# the range checks behind them run too.
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
                 | st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400), 0, 1, 3, 0.5]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.sampled_from([["pso", "lam_teng"], ["d", "fco"], "data.csv", {"n": 30}]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_ALL_KEYS = sorted({f.name for cls in (*MODEL_CONFIGS.values(), ExperimentConfig, SynthSpec)
                    for f in dataclasses.fields(cls)})


def _settings(keys):
    """Mappings over the given keys, any of the config keys and unknown ones."""
    return st.dictionaries(st.sampled_from(keys) | st.sampled_from(_ALL_KEYS) | st.text(max_size=4),
                           _JSON_VALUES, max_size=5)


def _config_documents(cls):
    keys = [f.name for f in dataclasses.fields(cls)]
    if cls is not ExperimentConfig:
        return _JSON_VALUES | _settings(keys)
    models = st.dictionaries(st.sampled_from(sorted(MODEL_CONFIGS)) | st.text(max_size=4),
                             _JSON_VALUES | _settings(_ALL_KEYS), max_size=3)
    roster = st.lists(st.sampled_from(ALL_MODELS), max_size=4)
    return _JSON_VALUES | st.builds(lambda base, extra: {**base, **extra}, _settings(keys),
                                    st.fixed_dictionaries({}, optional={"models": models, "roster": roster,
                                                                        "synth": _settings(["n", "noise_fraction"])}))


@pytest.mark.parametrize("cls", [PsoConfig, GwoConfig, BaConfig, BackpropConfig, EmpiricalModelParams,
                                 ExperimentConfig, SweepSpec], ids=lambda cls: cls.__name__)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_from_dict_builds_or_raises_value_error(cls, data):
    """Any document either builds the config or raises ValueError; no other exception."""
    document = data.draw(_config_documents(cls), label="document")
    try:
        config = cls.from_dict(document)
    except ValueError:
        return
    assert isinstance(config, cls)


@pytest.mark.parametrize("model, params", [("lam_teng", None), ("miyauchi", None),
                                           ("nonlinear", EmpiricalModelParams(k=2.9, n=0.9))])
def test_empirical_predict_records_is_predict_record(model, params):
    # records with their own rupture strain, then records that take it from eps_f
    records = [*synth_dataset(20, seed=3), *make_records(20, seed=3)]
    got = EmpiricalPredictor(model, params, eps_f=0.015).predict_records(records)
    want = [mechanics.predict_record(r, model=model, params=params, eps_f=0.015) for r in records]
    assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("width", [0, -1, True, 2.0], ids=repr)
@pytest.mark.parametrize("name", ["ann", "pso", "gwo", "ba"])
def test_train_model_refuses_hidden_width(name, width):
    # the one hidden-width check, on every trainer's path, before any training
    records = synth_dataset(20, seed=4)
    norm = fit_normalizer(records)
    cfg = MODEL_CONFIGS[name](seed=1)
    with pytest.raises(ValueError, match="hidden width must be an integer >= 1"):
        train_model(name, cfg, width, norm, feature_matrix(records, norm), target_vector(records, norm))


class TestRunExperiment:
    def test_empirical_only_roster_no_training(self):
        records = synth_dataset(80, seed=7, noise_fraction=0.0)
        config = ExperimentConfig(roster=("lam_teng",), seed=7)
        result = run_experiment(config, records=records)
        assert list(result.reports) == ["lam_teng"]
        assert result.models == {} and result.histories == {}
        # the generator labels ARE lam_teng outputs, so the fit is exact
        assert result.reports["lam_teng"].r_squared == pytest.approx(1.0, abs=1e-9)

    def test_noisy_lam_teng_still_near_perfect(self):
        records = synth_dataset(120, seed=8, noise_fraction=0.02)
        result = run_experiment(ExperimentConfig(roster=("lam_teng", "miyauchi"), seed=8),
                                records=records)
        assert result.reports["lam_teng"].r_squared > 0.99
        assert result.reports["miyauchi"].r_squared > 0.9

    def test_shared_split_sizes(self):
        records = synth_dataset(80, seed=9)
        result = run_experiment(small_config(roster=("lam_teng",), seed=9), records=records)
        assert result.n_train == 60 and result.n_test == 20

    def test_no_test_records_refused_before_training(self, monkeypatch):
        # 10 records at 0.96 split 10 / 0: nothing could be scored, so nothing is trained
        monkeypatch.setattr(experiment, "train_model", lambda *args: pytest.fail("a model was trained"))
        with pytest.raises(ValueError, match=r"^train_fraction 0.96 leaves no test records: 10 train / 0 test$"):
            run_experiment(small_config(train_fraction=0.96), records=synth_dataset(10, seed=1))

    @pytest.mark.parametrize("fraction, counts", [(0.04, "0 train / 10 test"), (0.1, "1 train / 9 test")])
    def test_fewer_than_two_training_records_refused_before_training(self, monkeypatch, fraction, counts):
        # a normalizer needs two training records: the split is refused, not the fit
        monkeypatch.setattr(experiment, "train_model", lambda *args: pytest.fail("a model was trained"))
        with pytest.raises(ValueError, match=rf"^train_fraction {fraction} leaves fewer than 2 training "
                                             rf"records: {counts}$"):
            run_experiment(small_config(train_fraction=fraction), records=synth_dataset(10, seed=1))

    def test_comparison_table_deterministic(self):
        records = synth_dataset(60, seed=10)
        config = small_config(seed=10)
        a = run_experiment(config, records=records)
        b = run_experiment(config, records=records)
        assert a.comparison.to_dict() == b.comparison.to_dict()

    def test_every_roster_model_accounted_once(self):
        records = synth_dataset(60, seed=11)
        config = small_config(seed=11)
        result = run_experiment(config, records=records)
        seen = list(result.reports) + list(result.comparison.errors)
        assert sorted(seen) == sorted(config.roster)

    def test_failure_isolation(self):
        # records without rupture strains break the empirical baselines only
        records = make_records(60, seed=12)
        config = small_config(roster=("ann", "lam_teng"), seed=12)
        result = run_experiment(config, records=records)
        assert list(result.reports) == ["ann"]
        assert result.comparison.errors["lam_teng"].startswith("ValueError")
        assert "rupture" in result.comparison.errors["lam_teng"]

    def test_programming_errors_propagate(self, monkeypatch):
        # only domain errors (ValueError, RuntimeError) are isolated per model
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(experiment, "train_hybrid", broken)
        records = synth_dataset(60, seed=12)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_experiment(small_config(roster=("lam_teng", "pso"), seed=12), records=records)

    def test_fiber_strain_fallback_rescues_empirical(self):
        records = make_records(60, seed=13)
        config = small_config(roster=("lam_teng",), seed=13, fiber_strain=0.015)
        result = run_experiment(config, records=records)
        assert result.comparison.errors == {}

    def test_output_files(self, tmp_path):
        records = synth_dataset(60, seed=14)
        config = small_config(roster=("ann", "lam_teng"), seed=14, out_dir=str(tmp_path / "out"))
        run_experiment(config, records=records)
        out = tmp_path / "out"
        for name in ("comparison.json", "comparison.csv", "predictions_ann.csv",
                     "predictions_lam_teng.csv", "trace_ann.csv", "model_ann.json"):
            assert (out / name).exists(), name
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["n_train"] + payload["n_test"] == 60

    def test_synth_spec_source(self):
        config = small_config(roster=("lam_teng",), seed=4,
                              synth=SynthSpec(n=40, noise_fraction=0.0))
        result = run_experiment(config)
        assert result.n_train + result.n_test == 40

    def test_dataset_path_source(self, tmp_path):
        from cfrpnet.dataset import records_to_csv
        path = tmp_path / "data.csv"
        path.write_text(records_to_csv(synth_dataset(50, seed=23)))
        config = small_config(roster=("lam_teng",), seed=23, dataset=str(path))
        result = run_experiment(config)
        assert result.n_train + result.n_test == 50
        assert result.comparison.errors == {}

    def test_needs_a_source(self):
        with pytest.raises(ValueError, match="dataset path"):
            run_experiment(ExperimentConfig(roster=("lam_teng",)))

    def test_table_matches_recomputation_from_prediction_files(self, tmp_path):
        import csv as csvmod

        from cfrpnet.metrics import mae as mae_fn
        from cfrpnet.metrics import mse as mse_fn
        from cfrpnet.metrics import r_squared

        records = synth_dataset(60, seed=24)
        config = small_config(roster=("ann", "lam_teng"), seed=24, out_dir=str(tmp_path / "out"))
        result = run_experiment(config, records=records)
        for name, row in result.reports.items():
            with open(tmp_path / "out" / f"predictions_{name}.csv", newline="") as fh:
                reader = csvmod.reader(fh)
                next(reader)
                pairs = [(float(a), float(b)) for a, b in reader]
            t = np.array([a for a, _ in pairs])
            p = np.array([b for _, b in pairs])
            assert row.mse_mpa == pytest.approx(mse_fn(t, p), rel=1e-12)
            assert row.mae_mpa == pytest.approx(mae_fn(t, p), rel=1e-12)
            assert row.r_squared == pytest.approx(r_squared(t, p), rel=1e-12)


class TestParametricSweep:
    def test_lam_teng_fco_sweep_closed_form(self):
        # with rupture strain and geometry fixed, f_l is constant over an fco sweep
        predictor = EmpiricalPredictor("lam_teng")
        fixed = {"d": 150.0, "nt": 0.167, "ef": 231.0, "eps_h_rup": 0.01}
        f_l = mechanics.confinement_stress(231000.0, 0.01, 0.167, 150.0)
        grid = parametric_sweep(predictor, SweepSpec("fco", 5.0, 50.0, 10, fixed))
        expected = 100.0 * ((50.0 + 3.3 * f_l) - (5.0 + 3.3 * f_l)) / (5.0 + 3.3 * f_l)
        assert grid.percent_change == pytest.approx(expected, rel=1e-12)
        assert np.all(np.diff(grid.predictions) > 0.0)

    def test_thickness_sweep_strictly_increasing(self):
        predictor = EmpiricalPredictor("lam_teng")
        fixed = {"d": 150.0, "ef": 231.0, "fco": 30.0, "eps_h_rup": 0.008}
        grid = parametric_sweep(predictor, SweepSpec("nt", 0.15, 1.05, 7, fixed))
        assert np.all(np.diff(grid.predictions) > 0.0)
        # f_l scales with thickness: 7x thickness multiplies the gain by 7
        gain_first = grid.predictions[0] - 30.0
        gain_last = grid.predictions[-1] - 30.0
        assert gain_last == pytest.approx(7.0 * gain_first, rel=1e-12)

    def test_modulus_sweep_strictly_increasing(self):
        predictor = EmpiricalPredictor("miyauchi")
        fixed = {"d": 150.0, "nt": 0.334, "fco": 30.0, "eps_h_rup": 0.008}
        grid = parametric_sweep(predictor, SweepSpec("ef", 110.0, 245.0, 12, fixed))
        assert np.all(np.diff(grid.predictions) > 0.0)

    def test_grid_is_strictly_increasing_with_endpoints(self):
        predictor = EmpiricalPredictor("lam_teng")
        fixed = {"d": 150.0, "nt": 0.167, "ef": 231.0, "eps_h_rup": 0.01}
        grid = parametric_sweep(predictor, SweepSpec("fco", 5.0, 50.0, 10, fixed))
        assert grid.values[0] == 5.0 and grid.values[-1] == 50.0
        assert np.all(np.diff(grid.values) > 0.0)
        assert len(grid.predictions) == 10

    def test_invalid_specs(self):
        # the last rows are the field types, which ConfigBase checks before the range checks
        for args in [("fco", 50.0, 5.0, 10, {}), ("fco", 5.0, 50.0, 1, {}), ("h", 100.0, 200.0, 5, {}),
                     ("fco", 20.0, 40.0, 3.0, {}), ("fco", 20.0, 40.0, True, {}),
                     ("fco", math.nan, 40.0, 3, {}), ("fco", 20.0, math.nan, 3, {}),
                     ("fco", -math.inf, 40.0, 3, {}), ("fco", 20.0, math.inf, 3, {}),
                     ("fco", math.inf, 40.0, 3, {}), ("fco", 20.0, -math.inf, 3, {}),
                     ("fco", "a", 40.0, 3, {}), ("fco", 20.0, "a", 3, {}), ("fco", 20.0, 40.0, 3, [])]:
            with pytest.raises(ValueError):
                SweepSpec(*args)
        with pytest.raises(ValueError, match=r"^SweepSpec\.steps must be int, got 3\.0$"):
            SweepSpec("fco", 20.0, 40.0, 3.0, {})

    def test_trained_model_extrapolation_warns(self):
        records = synth_dataset(60, seed=15)
        config = small_config(roster=("ann",), seed=15)
        result = run_experiment(config, records=records)
        model = result.models["ann"]
        fixed = {name: 0.5 * (model.normalization.ranges[name].x_min +
                              model.normalization.ranges[name].x_max)
                 for name in DEFAULT_FEATURES if name != "fco"}
        hi = model.normalization.ranges["fco"].x_max
        grid = parametric_sweep(model, SweepSpec("fco", 20.0, hi * 2.0, 5, fixed))
        assert any("extrapolating" in w for w in grid.warnings)

    def test_sweep_csv(self):
        predictor = EmpiricalPredictor("lam_teng")
        grid = parametric_sweep(predictor, SweepSpec("fco", 5.0, 50.0, 3,
                                                     {"d": 150.0, "nt": 0.167, "ef": 231.0, "eps_h_rup": 0.01}))
        lines = grid.to_csv().strip().split("\n")
        assert lines[0] == "fco,prediction_mpa"
        assert len(lines) == 4


class TestModelExport:
    def test_roundtrip_through_files(self, tmp_path):
        records = synth_dataset(60, seed=21)
        result = run_experiment(small_config(roster=("ann",), seed=21), records=records)
        model = result.models["ann"]
        path = tmp_path / "ann.json"
        save_model(model, path)
        restored = load_model(path)
        rng = np.random.default_rng(1)
        X = rng.uniform(0.1, 0.9, (50, 7))
        assert np.array_equal(forward_batch(restored.params, X), forward_batch(model.params, X))

    def test_imported_model_predicts_raw_units(self, tmp_path):
        records = synth_dataset(60, seed=22)
        result = run_experiment(small_config(roster=("ann",), seed=22), records=records)
        path = tmp_path / "ann.json"
        save_model(result.models["ann"], path)
        restored = load_model(path)
        values = {f: 0.5 * (restored.normalization.ranges[f].x_min +
                            restored.normalization.ranges[f].x_max)
                  for f in DEFAULT_FEATURES}
        fcc, warnings = restored.predict_values(values)
        assert math.isfinite(fcc)
        assert warnings == []
