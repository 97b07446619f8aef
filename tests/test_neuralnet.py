import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrpnet import neuralnet
from cfrpnet.dataset import DEFAULT_FEATURES, FeatureRange, NormalizationSpec
from cfrpnet.neuralnet import (
    _forward,
    WEIGHT_BOUND,
    BackpropConfig,
    NetworkTopology,
    TrainedModel,
    TrainingDivergedError,
    forward,
    forward_batch,
    gradient,
    init_weights,
    load_model,
    loss_mse,
    model_from_dict,
    model_to_dict,
    parameter_count,
    save_model,
    train_backprop,
    unflatten,
)

from conftest import assert_rejects_bad_values


def fd_gradient(topology, w, X, y, h=1e-6):
    """Central finite differences, the independent gradient oracle."""
    g = np.zeros_like(w)
    for i in range(w.size):
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        g[i] = (loss_mse(topology, wp, X, y) - loss_mse(topology, wm, X, y)) / (2 * h)
    return g


# The allocating kernel the workspace kernel replaced, kept as the exact reference.
def reference_forward(topology, w, X):
    """The hidden activations and the predictions, as fresh arrays."""
    W1, b1, W2, b2 = unflatten(topology, w)
    hidden = np.tanh(X @ W1 + b1)
    return hidden, hidden @ W2 + b2


def reference_gradient(topology, w, X, y):
    _, _, W2, _ = unflatten(topology, w)
    hidden, pred = reference_forward(topology, w, X)
    delta = 2.0 * (pred - y[:, None]) / pred.size  # the output is linear
    grad_out = (hidden.T @ delta, delta.sum(axis=0))
    delta = (delta @ W2.T) * (1.0 - hidden * hidden)
    return np.concatenate([part.ravel() for part in (X.T @ delta, delta.sum(axis=0), *grad_out)])


class TestWorkspaceKernelMatchesReference:
    @pytest.mark.parametrize("hidden_size", [1, 5, 50])
    @pytest.mark.parametrize("rows", [1, 23, 531])
    @pytest.mark.parametrize("input_size", [1, 7])
    def test_bit_identical(self, input_size, rows, hidden_size):
        topology = NetworkTopology(input_size, hidden_size)
        rng = np.random.default_rng(hidden_size * rows + input_size)
        X = rng.uniform(0.1, 0.9, (rows, input_size))
        y = rng.uniform(0.1, 0.9, rows)
        for _ in range(3):
            w = rng.uniform(-2.0, 2.0, parameter_count(topology))
            pred = reference_forward(topology, w, X)[1]
            assert np.array_equal(forward_batch(unflatten(topology, w), X), pred)
            assert loss_mse(topology, w, X, y) == float(np.mean((pred - y[:, None]) ** 2))
            assert np.array_equal(gradient(topology, w, X, y), reference_gradient(topology, w, X, y))

    @pytest.mark.parametrize("hidden_size", [1, 5, 50])
    @pytest.mark.parametrize("input_size", [1, 3])
    def test_backprop_history_matches_two_pass_loop(self, input_size, hidden_size):
        # one forward pass per epoch gives the losses and weights of loss + gradient calls
        topology = NetworkTopology(input_size, hidden_size)
        rng = np.random.default_rng(12)
        X = rng.uniform(0.1, 0.9, (15, input_size))
        y = rng.uniform(0.1, 0.9, 15)
        cfg = BackpropConfig(learning_rate=0.2, epochs=8, seed=3)
        w, history = train_backprop(topology, X, y, cfg)
        w_ref = init_weights(topology, cfg.seed)
        expected = [loss_mse(topology, w_ref, X, y)]
        for _ in range(cfg.epochs):
            w_ref = w_ref - cfg.learning_rate * reference_gradient(topology, w_ref, X, y)
            expected.append(loss_mse(topology, w_ref, X, y))
        assert history == expected
        assert np.array_equal(w, w_ref)


class TestTopology:
    def test_parameter_counts(self):
        assert parameter_count(NetworkTopology(7, 50)) == 451
        assert parameter_count(NetworkTopology(7)) == 451
        assert parameter_count(NetworkTopology(1, 1)) == 4
        assert parameter_count(NetworkTopology(2, 3)) == 13

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            NetworkTopology(0, 5)
        with pytest.raises(ValueError):
            NetworkTopology(3, 0)

    def test_invalid_activations(self):
        # the activations, the depth and the output width are the paper's, not settings
        assert [f.name for f in dataclasses.fields(NetworkTopology)] == ["input_size", "hidden_size"]
        for key, value in (("hidden_activation", "relu"), ("output_activation", "sigmoid"),
                           ("hidden_sizes", [5, 4]), ("output_size", 2)):
            with pytest.raises(ValueError, match="unknown config key"):
                NetworkTopology.from_dict({"input_size": 3, key: value})

    def test_dict_roundtrip(self):
        t = NetworkTopology(4, 8)
        assert NetworkTopology.from_dict(dataclasses.asdict(t)) == t

    def test_from_dict_checks_types(self):
        assert_rejects_bad_values(NetworkTopology(3, 5))
        assert NetworkTopology.from_dict({"input_size": 3}).hidden_size == 50
        for data in (5, {"input_size": 3, "hidden_size": 5.0}, {"input_size": 3, "width": 5},
                     {"input_size": 3, "hidden_size": [5]}, {"hidden_size": 5}):
            with pytest.raises(ValueError):
                NetworkTopology.from_dict(data)


class TestFlattenUnflatten:
    def test_roundtrip_identity(self):
        topology = NetworkTopology(3, 5)
        w = np.random.default_rng(0).normal(size=parameter_count(topology))
        views = unflatten(topology, w)
        assert np.array_equal(np.concatenate([part.ravel() for part in views]), w)
        assert all(np.shares_memory(part, w) for part in views)

    def test_shapes(self):
        topology = NetworkTopology(3, 5)
        W1, b1, W2, b2 = unflatten(topology, np.zeros(parameter_count(topology)))
        assert W1.shape == (3, 5) and b1.shape == (5,)
        assert W2.shape == (5, 1) and b2.shape == (1,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            unflatten(NetworkTopology(3, 5), np.zeros(10))


class TestForward:
    def test_zero_weights_give_zero(self):
        topology = NetworkTopology(4, 6)
        w = np.zeros(parameter_count(topology))
        for x in ([0.1, 0.5, 0.9, 0.3], [1.0, -2.0, 3.0, 0.0]):
            assert forward(unflatten(topology, w), x) == 0.0

    def test_direct_affine(self):
        # the output layer is affine in the hidden unit: 2 * tanh(0) + 7
        topology = NetworkTopology(1, 1)
        assert forward(unflatten(topology, np.array([0.0, 0.0, 2.0, 7.0])), [3.0]) == 7.0
        assert forward(unflatten(topology, np.array([1.0, 0.0, 2.0, 7.0])), [0.0]) == 7.0

    def test_single_tanh_unit(self):
        topology = NetworkTopology(2, 1)
        # hidden w=(1,1), b=0; output w=1, b=0
        w = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        assert forward(unflatten(topology, w), [0.5, 0.5]) == pytest.approx(math.tanh(1.0), rel=1e-12)

    def test_batch_matches_single(self):
        topology = NetworkTopology(3, 5)
        rng = np.random.default_rng(1)
        w = rng.uniform(-0.5, 0.5, parameter_count(topology))
        X = rng.uniform(0.1, 0.9, (10, 3))
        batch = forward_batch(unflatten(topology, w), X)
        assert batch.shape == (10, 1)
        for i in range(10):
            assert forward(unflatten(topology, w), X[i]) == pytest.approx(batch[i, 0], rel=1e-15)

    def test_tanh_output_bounded(self):
        # |tanh| <= 1, so the output lies within b2 +- sum |W2|, however large the inputs
        topology = NetworkTopology(3, 4)
        rng = np.random.default_rng(2)
        for scale in (2.0, 50.0):
            for _ in range(30):
                w = rng.normal(scale=scale, size=parameter_count(topology))
                _, _, W2, b2 = unflatten(topology, w)
                out = forward(unflatten(topology, w), rng.normal(scale=scale, size=3))
                assert abs(out - b2[0]) <= np.abs(W2).sum() * (1 + 1e-12)

    def test_dimension_mismatch(self):
        topology = NetworkTopology(3, 4)
        w = np.zeros(parameter_count(topology))
        with pytest.raises(ValueError):
            forward(unflatten(topology, w), [0.1, 0.2])
        for X in (np.zeros((5, 2)), np.zeros(3)):
            with pytest.raises(ValueError, match=r"expected inputs of shape \(n, 3\)"):
                forward_batch(unflatten(topology, w), X)


class TestInitWeights:
    def test_determinism(self):
        topology = NetworkTopology(5, 9)
        assert np.array_equal(init_weights(topology, 42), init_weights(topology, 42))

    def test_length_and_bounds(self):
        topology = NetworkTopology(7, 50)
        w = init_weights(topology, 3)
        assert w.shape == (451,)
        assert np.all(np.abs(w) <= WEIGHT_BOUND)


class TestGradient:
    def test_zero_at_minimum(self):
        topology = NetworkTopology(1, 1)
        # labels that are the net's own predictions
        w = np.array([0.8, -0.1, 1.5, 0.2])
        X = np.array([[0.2], [0.5], [0.8]])
        g = gradient(topology, w, X, forward_batch(unflatten(topology, w), X)[:, 0])
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_hand_derivative(self):
        # tanh(0) = 0 and tanh'(0) = 1: d(pred)/d(W1, b1, W2, b2) = (x * W2, W2, 0, 1) at x = 1
        topology = NetworkTopology(1, 1)
        g = gradient(topology, np.array([0.0, 0.0, 1.0, 0.0]), np.array([[1.0]]), np.array([1.0]))
        assert g == pytest.approx([-2.0, -2.0, 0.0, -2.0], rel=1e-12)

    @pytest.mark.parametrize("input_size, hidden_size", [(1, 1), (3, 5), (2, 13), (7, 20)])
    def test_matches_finite_differences(self, input_size, hidden_size):
        topology = NetworkTopology(input_size, hidden_size)
        rng = np.random.default_rng(input_size * 100 + hidden_size)
        w = rng.uniform(-0.5, 0.5, parameter_count(topology))
        X = rng.uniform(0.1, 0.9, (12, input_size))
        y = rng.uniform(0.1, 0.9, 12)
        g = gradient(topology, w, X, y)
        fd = fd_gradient(topology, w, X, y)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(g), 1e-12)

    def test_ten_random_nets_against_oracle(self):
        topology = NetworkTopology(3, 5)
        rng = np.random.default_rng(77)
        for _ in range(10):
            w = rng.uniform(-0.5, 0.5, parameter_count(topology))
            X = rng.uniform(0.1, 0.9, (8, 3))
            y = rng.uniform(0.1, 0.9, 8)
            g = gradient(topology, w, X, y)
            fd = fd_gradient(topology, w, X, y)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-5

    def test_empty_batch(self):
        topology = NetworkTopology(2, 1)
        with pytest.raises(ValueError, match="empty"):
            gradient(topology, np.zeros(5), np.empty((0, 2)), np.empty(0))


class TestTrainBackprop:
    def test_linear_toy_converges(self):
        # labels from a one-unit teacher net the student can match exactly
        topology = NetworkTopology(1, 1)
        X = np.linspace(0.1, 0.9, 8)[:, None]
        y = forward_batch(unflatten(topology, np.array([1.5, -0.5, 0.8, 0.5])), X)[:, 0]
        w, history = train_backprop(topology, X, y,
                                    BackpropConfig(learning_rate=0.5, epochs=1000, seed=0))
        assert history[-1] < 1e-4 and history[-1] < 1e-4 * history[0]
        assert len(history) == 1001

    def test_one_epoch_one_update(self):
        topology = NetworkTopology(1, 1)
        X = np.array([[0.5]])
        w0 = init_weights(topology, 4)
        w, history = train_backprop(topology, X, np.array([0.7]),
                                    BackpropConfig(learning_rate=0.05, epochs=1, seed=4))
        expected = w0 - 0.05 * gradient(topology, w0, X, np.array([0.7]))
        assert np.array_equal(w, expected)
        assert len(history) == 2

    def test_history_deterministic(self):
        topology = NetworkTopology(2, 3)
        rng = np.random.default_rng(5)
        X = rng.uniform(0.1, 0.9, (20, 2))
        y = rng.uniform(0.1, 0.9, 20)
        cfg = BackpropConfig(learning_rate=0.05, epochs=50, seed=9)
        _, h1 = train_backprop(topology, X, y, cfg)
        _, h2 = train_backprop(topology, X, y, cfg)
        assert h1 == h2

    def test_divergence_raises_with_epoch(self):
        topology = NetworkTopology(2, 3)
        rng = np.random.default_rng(6)
        X = rng.uniform(0.1, 0.9, (10, 2))
        y = rng.uniform(0.1, 0.9, 10)
        with pytest.raises(TrainingDivergedError) as exc:
            train_backprop(topology, X, y, BackpropConfig(learning_rate=1e12, epochs=200, seed=0))
        assert exc.value.epoch >= 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BackpropConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            BackpropConfig(epochs=0)
        assert_rejects_bad_values(BackpropConfig())


def _toy_model(seed=0):
    topology = NetworkTopology(2, 3)
    spec = NormalizationSpec(ranges={
        "d": FeatureRange(51.0, 406.0),
        "fco": FeatureRange(12.41, 188.2),
        "fcc": FeatureRange(18.5, 302.2),
    })
    weights = init_weights(topology, seed)
    return TrainedModel(topology=topology, weights=weights, normalization=spec,
                        features=("d", "fco"),
                        provenance={"optimizer": "pso", "seed": seed, "iterations": 10})


def reference_predict_values(model, values):
    """predict_values as it was with numpy 0-d normalization: the exact reference."""
    spec, warnings, x = model.normalization, [], []
    for name in model.features:
        v, r = float(values[name]), spec.ranges[name]
        if not r.x_min <= v <= r.x_max:
            warnings.append(f"{name}={v:g} outside training range [{r.x_min:g}, {r.x_max:g}]; extrapolating")
        arr = np.asarray(v, dtype=float)
        z = (spec.lo * (r.x_max - arr) + spec.hi * (arr - r.x_min)) / (r.x_max - r.x_min)
        x.append(float(np.where(arr == r.x_min, spec.lo, np.where(arr == r.x_max, spec.hi, z))))
    out = reference_forward(model.topology, model.weights, np.array([x]))[1]
    r, z = spec.ranges["fcc"], np.asarray(float(out[0, 0]), dtype=float)
    return float(r.x_min + (z - spec.lo) * (r.x_max - r.x_min) / (spec.hi - spec.lo)), warnings


class TestPredictValuesMatchesReference:
    @pytest.mark.parametrize("hidden_size", [1, 5, 50])
    @pytest.mark.parametrize("seed", range(6))
    def test_values_and_warnings_identical(self, seed, hidden_size):
        topology = NetworkTopology(2, hidden_size)
        rng = np.random.default_rng(100 * seed + hidden_size + 7)
        model = _toy_model()
        model = TrainedModel(topology=topology, weights=rng.uniform(-2.0, 2.0, parameter_count(topology)),
                             normalization=model.normalization, features=model.features)
        ranges = model.normalization.ranges
        requests = [{"d": ranges["d"].x_min, "fco": ranges["fco"].x_max},  # pinned endpoints
                    {"d": ranges["d"].x_max, "fco": ranges["fco"].x_min},
                    {"d": 150, "fco": 40},  # ints
                    {"d": np.float64(1000.0), "fco": 5.0},  # out of range on both sides
                    {"d": -20.0, "fco": 900.0}]
        for name in ("d", "fco"):
            r = ranges[name]
            requests += [{"d": 200.0, "fco": 60.0, name: v}
                         for v in rng.uniform(r.x_min - (r.x_max - r.x_min), 2 * r.x_max, 40)]
        for values in requests:
            assert model.predict_values(values) == reference_predict_values(model, values)


def per_field_predict_values(model, values):
    """predict_values as it was before the model bound its views: a pass for missing
    features, then a range check and normalize per field (the array path), then
    _forward on fresh unflatten views."""
    missing = [f for f in model.features if f not in values]
    if missing:
        raise ValueError(f"missing feature: {missing[0]}")
    spec, warnings = model.normalization, []
    x = np.empty(len(model.features))
    for j, name in enumerate(model.features):
        v, r = float(values[name]), spec.ranges[name]
        if not r.x_min <= v <= r.x_max:
            warnings.append(f"{name}={v:g} outside training range [{r.x_min:g}, {r.x_max:g}]; extrapolating")
        with np.errstate(invalid="ignore", over="ignore"):  # plain floats do not warn on inf
            x[j] = spec.normalize(name, np.asarray(v))
    z = float(_forward(unflatten(model.topology, model.weights), x[None, :])[0, 0])
    return float(spec.denormalize("fcc", z)), warnings


def _served(predict, model, values):
    """The prediction's bits and the warnings, or the error message."""
    try:
        value, warnings = predict(model, values)
        return value.hex(), warnings
    except ValueError as exc:
        return str(exc)


@st.composite
def served_models(draw):
    features = draw(st.lists(st.sampled_from(DEFAULT_FEATURES), min_size=1, max_size=7, unique=True))
    ranges = {}
    for name in (*features, "fcc"):
        x_min = draw(st.floats(-1e3, 1e3))
        ranges[name] = FeatureRange(x_min, x_min + draw(st.floats(1e-2, 1e3)))
    topology = NetworkTopology(len(features), draw(st.integers(1, 12)))
    weights = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(
        -2.0, 2.0, parameter_count(topology))
    return TrainedModel(topology, weights, NormalizationSpec(ranges), tuple(features))


class TestServingPathMatchesPerFieldPath:
    @settings(max_examples=300, deadline=None)
    @given(served_models(), st.data())
    def test_bits_warnings_and_errors(self, model, data):
        values = {"eps_h_rup": 0.01}  # a name the model does not read
        for name in model.features:
            r = model.normalization.ranges[name]
            values[name] = data.draw(
                st.sampled_from([r.x_min, r.x_max])  # pinned to lo/hi
                | st.floats(r.x_min, r.x_max) | st.floats(r.x_max, 2 * r.x_max + 1e3)
                | st.floats(r.x_min - 1e3 - abs(r.x_min), r.x_min) | st.floats()
                | st.integers(-10 ** 4, 10 ** 4) | st.floats(-1e3, 1e3).map(np.float64), label=name)
        for name in data.draw(st.sets(st.sampled_from(model.features)), label="absent"):
            del values[name]
        expected = _served(per_field_predict_values, model, values)
        assert _served(TrainedModel.predict_values, model, values) == expected

    def test_missing_feature_named_in_feature_order(self):
        model = _toy_model()
        for values, message in (({}, "missing feature: d"), ({"fco": 30.0}, "missing feature: d"),
                                ({"d": "not checked"}, "missing feature: fco")):
            assert _served(TrainedModel.predict_values, model, values) == message
            assert _served(per_field_predict_values, model, values) == message

    def test_views_bound_once_and_frozen(self, monkeypatch):
        model = _toy_model()
        assert model.params is model.params and len(model.params) == 4
        assert all(np.shares_memory(view, model.weights) for view in model.params)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.weights = np.zeros(13)
        other = dataclasses.replace(model, weights=np.zeros(13))  # a new model binds its own views
        assert all(np.shares_memory(view, other.weights) for view in other.params)
        assert other.predict_values({"d": 150.0, "fco": 30.0})[0] == other.normalization.denormalize(
            "fcc", 0.0)
        seen = []  # the single-record path goes through the module-level forward
        monkeypatch.setattr(neuralnet, "forward", lambda params, x: seen.append(params) or 0.5)
        model.predict_values({"d": 150.0, "fco": 30.0})
        assert len(seen) == 1 and seen[0] is model.params


class TestTrainedModel:
    def test_identity_equality_and_hash(self):
        # equal weights in distinct arrays: an array-wise __eq__ would raise
        a, b = _toy_model(), _toy_model()
        assert np.array_equal(a.weights, b.weights)
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_serialization_roundtrip_bitwise(self, tmp_path):
        model = _toy_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(restored.weights, model.weights)
        assert restored.topology == model.topology
        assert restored.features == model.features
        assert restored.normalization.ranges == model.normalization.ranges
        assert restored.provenance == model.provenance

    def test_roundtrip_predictions_identical(self, tmp_path):
        model = _toy_model(seed=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        rng = np.random.default_rng(11)
        X = rng.uniform(0.1, 0.9, (100, 2))
        assert np.array_equal(restored.predict_normalized(X), model.predict_normalized(X))

    @pytest.mark.parametrize("hidden_size", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_sizes_save_and_reload(self, tmp_path, hidden_size):
        topology = NetworkTopology(np.int64(2), hidden_size)
        assert topology == NetworkTopology(2, 3)
        assert all(type(s) is int for s in (topology.input_size, topology.hidden_size))
        model = _toy_model()
        model = TrainedModel(topology=topology, weights=model.weights,
                             normalization=model.normalization, features=model.features)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path).topology == NetworkTopology(2, 3)

    def test_truncated_weights_rejected(self, tmp_path):
        data = model_to_dict(_toy_model())
        data["weights"] = data["weights"][:-1]
        with pytest.raises(ValueError, match="length"):
            model_from_dict(data)

    def test_wrong_format_rejected(self):
        data = model_to_dict(_toy_model())
        data["format"] = "something-else"
        with pytest.raises(ValueError, match="format"):
            model_from_dict(data)

    def test_missing_normalization_field(self):
        model = _toy_model()
        data = model_to_dict(model)
        del data["normalization"]["ranges"]["fcc"]
        with pytest.raises(ValueError, match="fcc"):
            model_from_dict(data)

    def test_predict_values_missing_feature(self):
        with pytest.raises(ValueError, match="missing feature: fco"):
            _toy_model().predict_values({"d": 150.0})

    def test_predict_values_warns_out_of_range(self):
        fcc, warnings = _toy_model().predict_values({"d": 1000.0, "fco": 30.0})
        assert math.isfinite(fcc)
        assert any("d=1000" in w and "extrapolating" in w for w in warnings)

    def test_predict_values_clean_in_range(self):
        fcc, warnings = _toy_model().predict_values({"d": 150.0, "fco": 30.0})
        assert warnings == []
        assert math.isfinite(fcc)

    def test_model_json_is_plain_json(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(_toy_model(), path)
        data = json.loads(path.read_text())
        assert data["format"] == "cfrpnet-model"
        assert len(data["weights"]) == 13
        assert data["target"] == "fcc"
        assert data["topology"] == {"hidden_activation": "tanh", "hidden_sizes": [3], "input_size": 2,
                                    "output_activation": "linear", "output_size": 1}
