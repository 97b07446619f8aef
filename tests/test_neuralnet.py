import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrpnet import neuralnet
from cfrpnet.dataset import DEFAULT_FEATURES, FIELD_BOUNDS, FIELDS, HI, LO, FeatureRange, NormalizationSpec
from cfrpnet.neuralnet import (
    WEIGHT_BOUND,
    BackpropConfig,
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


def fd_gradient(w, X, y, h=1e-6):
    """Central finite differences, the independent gradient oracle."""
    g = np.zeros_like(w)
    for i in range(w.size):
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        g[i] = (loss_mse(wp, X, y) - loss_mse(wm, X, y)) / (2 * h)
    return g


def matmul_layers(w):
    """(W1, b1, W2, b2) of a flat vector as the matmul kernel shaped them: the output
    layer an (h, 1) matrix and a (1,) bias. Taken here, not through unflatten, so the
    kernel under test is checked against the arithmetic it replaced."""
    h = (w.size - 1) // 9
    return w[:7 * h].reshape(7, h), w[7 * h:8 * h], w[8 * h:-1].reshape(h, 1), w[-1:]


# The allocating matmul kernel the bound np.dot kernel replaced, kept as the exact reference.
def reference_forward(w, X):
    """The hidden activations and the (n, 1) predictions, as fresh arrays."""
    W1, b1, W2, b2 = matmul_layers(w)
    hidden = np.tanh(np.matmul(X, W1) + b1)
    return hidden, np.matmul(hidden, W2) + b2


def reference_gradient(w, X, y):
    W2 = matmul_layers(w)[2]
    hidden, pred = reference_forward(w, X)
    delta = 2.0 * (pred - y[:, None]) / pred.size  # the output is linear
    grad_out = (np.matmul(hidden.T, delta), delta.sum(axis=0))
    delta = np.matmul(delta, W2.T) * (1.0 - hidden * hidden)
    return np.concatenate([part.ravel() for part in (np.matmul(X.T, delta), delta.sum(axis=0), *grad_out)])


class TestWorkspaceKernelMatchesReference:
    # one and two rows, and a width of 1, are where BLAS takes its dot and gemv paths
    @pytest.mark.parametrize("hidden_size", [1, 5, 50])
    @pytest.mark.parametrize("rows", [1, 2, 23, 45, 531])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_bit_identical(self, seed, rows, hidden_size):
        rng = np.random.default_rng(hidden_size * rows + seed)
        X = rng.uniform(0.1, 0.9, (rows, 7))
        y = rng.uniform(0.1, 0.9, rows)
        for _ in range(3):
            w = rng.uniform(-2.0, 2.0, parameter_count(hidden_size))
            pred = reference_forward(w, X)[1]
            assert forward_batch(unflatten(w), X).tobytes() == pred.tobytes()
            assert loss_mse(w, X, y) == float(np.mean((pred - y[:, None]) ** 2))
            assert gradient(w, X, y).tobytes() == reference_gradient(w, X, y).tobytes()

    @pytest.mark.parametrize("hidden_size", [1, 5, 50])
    @pytest.mark.parametrize("rows", [1, 2, 15, 45])
    @pytest.mark.parametrize("seed", [12, 13])
    def test_backprop_history_matches_two_pass_loop(self, seed, rows, hidden_size):
        # one forward pass per epoch gives the losses and weights of loss + gradient calls
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.1, 0.9, (rows, 7))
        y = rng.uniform(0.1, 0.9, rows)
        cfg = BackpropConfig(learning_rate=0.2, epochs=8, seed=3)
        w, history = train_backprop(hidden_size, X, y, cfg)
        w_ref = init_weights(hidden_size, cfg.seed)
        expected = [loss_mse(w_ref, X, y)]
        for _ in range(cfg.epochs):
            w_ref = w_ref - cfg.learning_rate * reference_gradient(w_ref, X, y)
            expected.append(loss_mse(w_ref, X, y))
        assert history == expected
        assert w.tobytes() == w_ref.tobytes()


# hidden widths that are not an integer >= 1: a bool passes only as a bool, as in ConfigBase
BAD_WIDTHS = [0, -1, True, False, 2.0, 5.0, "3", None, [5], np.float64(3.0), np.int64(0)]


class TestHiddenWidth:
    def test_parameter_counts(self):
        # seven inputs: (7 + 1) * h in, h + 1 out
        assert parameter_count(50) == 451
        assert parameter_count(1) == 10
        assert parameter_count(3) == 28
        assert parameter_count(13) == 118

    @pytest.mark.parametrize("width", BAD_WIDTHS, ids=repr)
    def test_invalid_width_raises_value_error(self, width):
        with pytest.raises(ValueError, match="hidden width must be an integer >= 1"):
            parameter_count(width)
        with pytest.raises(ValueError, match="hidden width"):
            init_weights(width, 0)
        with pytest.raises(ValueError, match="hidden width"):
            train_backprop(width, np.full((3, 7), 0.5), np.full(3, 0.5), BackpropConfig(epochs=1))

    @pytest.mark.parametrize("width", [np.int64(50), np.int32(50), np.uint8(50)], ids=repr)
    def test_numpy_integer_width(self, width):
        # 9 * np.uint8(50) would wrap in uint8: the count is taken in Python ints
        assert parameter_count(width) == 451 and type(parameter_count(width)) is int
        assert np.array_equal(init_weights(width, 5), init_weights(50, 5))


class TestFlattenUnflatten:
    def test_roundtrip_identity(self):
        w = np.random.default_rng(0).normal(size=parameter_count(5))
        views = unflatten(w)
        assert np.array_equal(np.concatenate([part.ravel() for part in views]), w)
        assert all(np.shares_memory(part, w) for part in views)

    def test_shapes(self):
        W1, b1, W2, b2 = unflatten(np.zeros(parameter_count(5)))
        assert W1.shape == (7, 5) and b1.shape == (5,)
        assert W2.shape == (5,) and b2.shape == ()

    @pytest.mark.parametrize("hidden_size", [1, 2, 50])
    def test_width_read_from_length(self, hidden_size):
        assert [a.shape for a in unflatten(np.zeros(9 * hidden_size + 1))] == [
            (7, hidden_size), (hidden_size,), (hidden_size,), ()]

    def test_length_mismatch(self):
        # a length that is not 9h + 1 for a width h >= 1, or not a flat vector
        for w in (np.zeros(0), np.zeros(1), np.zeros(9), np.zeros(11), np.zeros(44), np.zeros(452),
                  np.zeros((1, 10)), np.zeros((2, 10)), np.float64(0.0)):
            with pytest.raises(ValueError, match=r"the network needs a 1-D length of 9h \+ 1"):
                unflatten(w)


class TestForward:
    def test_zero_weights_give_zero(self):
        w = np.zeros(parameter_count(6))
        for x in ([0.1, 0.5, 0.9, 0.3, 0.2, 0.8, 0.4], [1.0, -2.0, 3.0, 0.0, 5.0, -0.5, 9.0]):
            assert forward(unflatten(w), x) == 0.0

    def test_direct_affine(self):
        # the output layer is affine in the hidden unit: 2 * tanh(0) + 7
        assert forward(unflatten(np.array([0.0] * 7 + [0.0, 2.0, 7.0])), [3.0] * 7) == 7.0
        assert forward(unflatten(np.array([1.0] * 7 + [0.0, 2.0, 7.0])), [0.0] * 7) == 7.0

    def test_single_tanh_unit(self):
        # hidden w=(1,1,0,...), b=0; output w=1, b=0
        w = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        x = [0.5, 0.5, 0.3, 0.9, 0.1, 0.7, 0.2]
        assert forward(unflatten(w), x) == pytest.approx(math.tanh(1.0), rel=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(-0.5, 0.5, parameter_count(5))
        X = rng.uniform(0.1, 0.9, (10, 7))
        batch = forward_batch(unflatten(w), X)
        assert batch.shape == (10,)
        for i in range(10):
            assert forward(unflatten(w), X[i]) == pytest.approx(batch[i], rel=1e-15)

    def test_tanh_output_bounded(self):
        # |tanh| <= 1, so the output lies within b2 +- sum |W2|, however large the inputs
        rng = np.random.default_rng(2)
        for scale in (2.0, 50.0):
            for _ in range(30):
                w = rng.normal(scale=scale, size=parameter_count(4))
                _, _, W2, b2 = unflatten(w)
                out = forward(unflatten(w), rng.normal(scale=scale, size=7))
                assert abs(out - b2) <= np.abs(W2).sum() * (1 + 1e-12)

    def test_dimension_mismatch(self):
        w = np.zeros(parameter_count(4))
        for x in ([0.1, 0.2], np.zeros(8), np.zeros((1, 7)), np.array(0.5)):
            with pytest.raises(ValueError, match="expected 7 inputs"):
                forward(unflatten(w), x)
        params = unflatten(np.random.default_rng(3).uniform(-1.0, 1.0, parameter_count(4)))
        values = [0.1, 0.7, 0.35, 0.5, 0.2, 0.9, 0.6]
        outputs = {forward(params, x).hex() for x in (values, tuple(values), np.array(values))}
        assert len(outputs) == 1
        for X in (np.zeros((5, 2)), np.zeros((5, 8)), np.zeros(7)):
            with pytest.raises(ValueError, match=r"expected inputs of shape \(n, 7\)"):
                forward_batch(unflatten(w), X)

    def test_batch_of_no_rows_or_huge_predictions(self):
        # the forward pass stops at its outputs: an empty batch runs through the products,
        # and predictions of 4e200, whose squares would overflow, warn of nothing
        params = unflatten(np.full(parameter_count(3), 1e200))
        assert forward_batch(params, np.empty((0, 7))).shape == (0,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = forward_batch(params, np.full((2, 7), 0.5))
        assert batch.tolist() == [forward(params, [0.5] * 7)] * 2 and math.isfinite(batch[0])

    @pytest.mark.parametrize("hidden_size", [1, 2, 5, 50])
    def test_bit_identical_to_column_output_layer(self, hidden_size):
        # a float of the 1-D np.dot plus b2 as a float: the ddot and the add of the (h, 1)
        # output layer forward had, np.dot(hidden, W2)[0] + b2[0]
        rng = np.random.default_rng(40 + hidden_size)
        for _ in range(200):
            w = rng.uniform(-2.0, 2.0, parameter_count(hidden_size))
            x = rng.uniform(-0.5, 1.5, 7)
            W1, b1, W2, b2 = matmul_layers(w)
            hidden = np.tanh(np.dot(x, W1) + b1)
            expected = np.dot(hidden, W2)[0] + b2[0]
            assert forward(unflatten(w), x).hex() == float(expected).hex()


class TestInitWeights:
    def test_determinism(self):
        assert np.array_equal(init_weights(9, 42), init_weights(9, 42))

    def test_length_and_bounds(self):
        w = init_weights(50, 3)
        assert w.shape == (451,)
        assert np.all(np.abs(w) <= WEIGHT_BOUND)


class TestGradient:
    def test_zero_at_minimum(self):
        # labels that are the net's own predictions, through one hidden unit
        w = np.array([0.8, 0.3, -0.4, 0.1, 0.6, -0.2, 0.5, -0.1, 1.5, 0.2])
        X = np.random.default_rng(14).uniform(0.1, 0.9, (3, 7))
        g = gradient(w, X, forward_batch(unflatten(w), X))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_hand_derivative(self):
        # tanh(0) = 0 and tanh'(0) = 1: d(pred)/d(W1, b1, W2, b2) = (x * W2, W2, 0, 1), and the
        # loss's derivative in pred is 2 * (0 - 1) = -2
        x = [1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 2.0]
        g = gradient(np.array([0.0] * 8 + [1.0, 0.0]), np.array([x]), np.array([1.0]))
        assert g == pytest.approx([-2.0, -1.0, 0.0, 0.0, 0.0, 0.0, -4.0, -2.0, 0.0, -2.0], rel=1e-12)

    @pytest.mark.parametrize("hidden_size", [1, 5, 13, 20])
    def test_matches_finite_differences(self, hidden_size):
        rng = np.random.default_rng(700 + hidden_size)
        w = rng.uniform(-0.5, 0.5, parameter_count(hidden_size))
        X = rng.uniform(0.1, 0.9, (12, 7))
        y = rng.uniform(0.1, 0.9, 12)
        g = gradient(w, X, y)
        fd = fd_gradient(w, X, y)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(g), 1e-12)

    def test_ten_random_nets_against_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            w = rng.uniform(-0.5, 0.5, parameter_count(5))
            X = rng.uniform(0.1, 0.9, (8, 7))
            y = rng.uniform(0.1, 0.9, 8)
            g = gradient(w, X, y)
            fd = fd_gradient(w, X, y)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-5

    def test_empty_batch(self):
        with pytest.raises(ValueError, match="empty"):
            gradient(np.zeros(10), np.empty((0, 7)), np.empty(0))

    def test_caller_owns_the_result(self):
        # each call binds its own gradient buffer, so a second call overwrites nothing
        rng = np.random.default_rng(15)
        w, X, y = rng.uniform(-0.5, 0.5, parameter_count(4)), rng.uniform(0.1, 0.9, (9, 7)), rng.uniform(0.1, 0.9, 9)
        first = gradient(w, X, y)
        kept = first.copy()
        second = gradient(w, X, y)
        assert second is not first and not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes() == second.tobytes()

    def test_column_targets_refused(self):
        # targets are (n,): an (n, 1) column is refused by every batch entry point
        X, y = np.full((5, 7), 0.5), np.full((5, 1), 0.5)
        for run in (lambda: loss_mse(np.zeros(10), X, y), lambda: gradient(np.zeros(10), X, y),
                    lambda: train_backprop(1, X, y, BackpropConfig(epochs=1))):
            with pytest.raises(ValueError, match=r"^targets have shape \(5, 1\), expected \(5,\)$"):
                run()


class TestTrainBackprop:
    def test_linear_toy_converges(self):
        # labels from a one-unit teacher net the student can match exactly: one input
        # varies, the other six are zero, so their weights neither help nor hinder
        X = np.zeros((8, 7))
        X[:, 0] = np.linspace(0.1, 0.9, 8)
        y = forward_batch(unflatten(np.array([1.5, 0, 0, 0, 0, 0, 0, -0.5, 0.8, 0.5])), X)
        w, history = train_backprop(1, X, y, BackpropConfig(learning_rate=0.5, epochs=1000, seed=0))
        assert history[-1] < 1e-4 and history[-1] < 1e-4 * history[0]
        assert len(history) == 1001

    def test_one_epoch_one_update(self):
        X = np.array([[0.5, 0.2, 0.8, 0.4, 0.6, 0.1, 0.9]])
        w0 = init_weights(1, 4)
        w, history = train_backprop(1, X, np.array([0.7]), BackpropConfig(learning_rate=0.05, epochs=1, seed=4))
        expected = w0 - 0.05 * gradient(w0, X, np.array([0.7]))
        assert np.array_equal(w, expected)
        assert len(history) == 2

    def test_history_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0.1, 0.9, (20, 7))
        y = rng.uniform(0.1, 0.9, 20)
        cfg = BackpropConfig(learning_rate=0.05, epochs=50, seed=9)
        _, h1 = train_backprop(3, X, y, cfg)
        _, h2 = train_backprop(3, X, y, cfg)
        assert h1 == h2

    def test_binds_once_per_run(self, monkeypatch):
        # the gradient buffer and every view are bound when the run starts: a run of 100
        # epochs cuts as many vectors as a run of 50
        rng = np.random.default_rng(16)
        X, y = rng.uniform(0.1, 0.9, (10, 7)), rng.uniform(0.1, 0.9, 10)
        calls = []
        real_unflatten = neuralnet.unflatten

        def spy_unflatten(*args):
            calls.append(args)
            return real_unflatten(*args)

        monkeypatch.setattr(neuralnet, "unflatten", spy_unflatten)
        counts = []
        for epochs in (50, 100):
            calls.clear()
            train_backprop(3, X, y, BackpropConfig(epochs=epochs, seed=2))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0.1, 0.9, (10, 7))
        y = rng.uniform(0.1, 0.9, 10)
        with pytest.raises(TrainingDivergedError) as exc:
            train_backprop(3, X, y, BackpropConfig(learning_rate=1e12, epochs=200, seed=0))
        assert re.fullmatch(r"training diverged at epoch [1-9]\d*: loss=(nan|inf)", str(exc.value))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BackpropConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            BackpropConfig(epochs=0)
        assert_rejects_bad_values(BackpropConfig())


TOY_SPEC = NormalizationSpec(ranges={name: FeatureRange(*FIELD_BOUNDS[name]) for name in FIELDS})
# one request inside every range of TOY_SPEC; tests vary d and fco from it
TOY_VALUES = {"d": 150.0, "h": 300.0, "nt": 0.334, "ef": 231.0, "fco": 30.0, "eco": 0.2, "ecc": 1.1}


def _toy_model(seed=0):
    return TrainedModel(weights=init_weights(3, seed), normalization=TOY_SPEC,
                        provenance={"optimizer": "pso", "seed": seed, "iterations": 10})


def reference_predict_values(model, values):
    """predict_values as it was with numpy 0-d normalization: the exact reference."""
    spec, warnings, x = model.normalization, [], []
    for name in DEFAULT_FEATURES:
        v, r = float(values[name]), spec.ranges[name]
        if not r.x_min <= v <= r.x_max:
            warnings.append(f"{name}={v:g} outside training range [{r.x_min:g}, {r.x_max:g}]; extrapolating")
        arr = np.asarray(v, dtype=float)
        z = (LO * (r.x_max - arr) + HI * (arr - r.x_min)) / (r.x_max - r.x_min)
        x.append(float(np.where(arr == r.x_min, LO, np.where(arr == r.x_max, HI, z))))
    out = reference_forward(model.weights, np.array([x]))[1]
    r, z = spec.ranges["fcc"], np.asarray(float(out[0, 0]), dtype=float)
    return float(r.x_min + (z - LO) * (r.x_max - r.x_min) / (HI - LO)), warnings


class TestPredictValuesMatchesReference:
    @pytest.mark.parametrize("hidden_size", [1, 5, 50])
    @pytest.mark.parametrize("seed", range(6))
    def test_values_and_warnings_identical(self, seed, hidden_size):
        rng = np.random.default_rng(100 * seed + hidden_size + 7)
        model = TrainedModel(weights=rng.uniform(-2.0, 2.0, parameter_count(hidden_size)), normalization=TOY_SPEC)
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
        for values in ({**TOY_VALUES, **request} for request in requests):
            assert model.predict_values(values) == reference_predict_values(model, values)


def per_field_predict_values(model, values):
    """predict_values as it was before the model bound its views: a pass for missing
    features, then a range check and normalize per field (the array path), then
    the allocating matmul kernel."""
    missing = [f for f in DEFAULT_FEATURES if f not in values]
    if missing:
        raise ValueError(f"missing feature: {missing[0]}")
    spec, warnings = model.normalization, []
    x = np.empty(len(DEFAULT_FEATURES))
    for j, name in enumerate(DEFAULT_FEATURES):
        v, r = float(values[name]), spec.ranges[name]
        if not r.x_min <= v <= r.x_max:
            warnings.append(f"{name}={v:g} outside training range [{r.x_min:g}, {r.x_max:g}]; extrapolating")
        with np.errstate(invalid="ignore", over="ignore"):  # plain floats do not warn on inf
            x[j] = spec.normalize(name, np.asarray(v))
    z = float(reference_forward(model.weights, x[None, :])[1][0, 0])
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
    ranges = {}
    for name in FIELDS:
        x_min = draw(st.floats(-1e3, 1e3))
        ranges[name] = FeatureRange(x_min, x_min + draw(st.floats(1e-2, 1e3)))
    hidden_size = draw(st.integers(1, 12))
    weights = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(
        -2.0, 2.0, parameter_count(hidden_size))
    return TrainedModel(weights, NormalizationSpec(ranges))


class TestServingPathMatchesPerFieldPath:
    @settings(max_examples=300, deadline=None)
    @given(served_models(), st.data())
    def test_bits_warnings_and_errors(self, model, data):
        values = {"eps_h_rup": 0.01}  # a name the model does not read
        for name in DEFAULT_FEATURES:
            r = model.normalization.ranges[name]
            values[name] = data.draw(
                st.sampled_from([r.x_min, r.x_max])  # pinned to lo/hi
                | st.floats(r.x_min, r.x_max) | st.floats(r.x_max, 2 * r.x_max + 1e3)
                | st.floats(r.x_min - 1e3 - abs(r.x_min), r.x_min) | st.floats()
                | st.integers(-10 ** 4, 10 ** 4) | st.floats(-1e3, 1e3).map(np.float64), label=name)
        for name in data.draw(st.sets(st.sampled_from(DEFAULT_FEATURES)), label="absent"):
            del values[name]
        expected = _served(per_field_predict_values, model, values)
        assert _served(TrainedModel.predict_values, model, values) == expected

    def test_missing_feature_named_in_feature_order(self):
        model = _toy_model()
        without_fco = {name: v for name, v in TOY_VALUES.items() if name != "fco"}
        for values, message in (({}, "missing feature: d"), ({"fco": 30.0}, "missing feature: d"),
                                ({**without_fco, "d": "not checked"}, "missing feature: fco")):
            assert _served(TrainedModel.predict_values, model, values) == message
            assert _served(per_field_predict_values, model, values) == message

    def test_views_bound_once_and_frozen(self, monkeypatch):
        model = _toy_model()
        assert model.params is model.params and len(model.params) == 4
        assert all(np.shares_memory(view, model.weights) for view in model.params)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.weights = np.zeros(28)
        other = dataclasses.replace(model, weights=np.zeros(28))  # a new model binds its own views
        assert all(np.shares_memory(view, other.weights) for view in other.params)
        assert other.predict_values(TOY_VALUES)[0] == other.normalization.denormalize("fcc", 0.0)
        seen = []  # the single-record path goes through the module-level forward
        monkeypatch.setattr(neuralnet, "forward", lambda params, x: seen.append(params) or 0.5)
        model.predict_values(TOY_VALUES)
        assert len(seen) == 1 and seen[0] is model.params


class TestBoundNormalization:
    """A model binds its inputs' (name, x_min, x_max) rows and its target's
    (x_min, width) once; requests read the bound values, which stay current
    because the spec is frozen."""

    def test_bound_values_equal_the_spec(self):
        model, ranges = _toy_model(), TOY_SPEC.ranges
        assert model.inputs == tuple((f, ranges[f].x_min, ranges[f].x_max) for f in DEFAULT_FEATURES)
        assert model.target == (ranges["fcc"].x_min, ranges["fcc"].x_max - ranges["fcc"].x_min)

    def test_replaced_spec_binds_its_own_rows(self):
        model = _toy_model(seed=2)
        other_spec = NormalizationSpec({name: FeatureRange(0.5 * lo, 2.0 * hi)
                                        for name, (lo, hi) in FIELD_BOUNDS.items()})
        other = dataclasses.replace(model, normalization=other_spec)
        assert other.inputs == tuple((f, *(0.5 * FIELD_BOUNDS[f][0], 2.0 * FIELD_BOUNDS[f][1]))
                                     for f in DEFAULT_FEATURES)
        assert other.target == (0.5 * 18.5, 2.0 * 302.2 - 0.5 * 18.5)
        values = {**TOY_VALUES, "d": 30.0, "fco": 300.0}  # outside TOY_SPEC, inside other_spec
        assert other.predict_values(values) == reference_predict_values(other, values)
        assert other.predict_values(values) == per_field_predict_values(other, values)
        assert other.predict_values(values)[0] != model.predict_values(values)[0]
        assert other.predict_values(values)[1] == [] != model.predict_values(values)[1]

    def test_spec_cannot_change_under_a_model(self):
        model = _toy_model()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.normalization.ranges = {}
        with pytest.raises(TypeError):
            model.normalization.ranges["d"] = FeatureRange(0.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.inputs = ()

    def test_integer_bounds_keep_float_results(self):
        # bounds as ints, as NormalizationSpec takes them: the bound rows keep the ints,
        # and the float answer has the array path's bits
        spec = NormalizationSpec({name: FeatureRange(0, 10 * (j + 1)) for j, name in enumerate(FIELDS)})
        model = TrainedModel(init_weights(4, 5), spec)
        assert model.inputs[0] == ("d", 0, 10) and model.target == (0, 80)
        for values in ({name: 5 for name in DEFAULT_FEATURES},
                       {name: 10 * (j + 1) for j, name in enumerate(DEFAULT_FEATURES)},  # pinned to hi
                       {name: 0 for name in DEFAULT_FEATURES},  # pinned to lo
                       {name: -1.5 if j % 2 else 100 for j, name in enumerate(DEFAULT_FEATURES)}):
            value, warnings = model.predict_values(values)
            assert type(value) is float
            assert _served(TrainedModel.predict_values, model, values) == \
                _served(per_field_predict_values, model, values)


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
        assert restored.params[1].size == model.params[1].size == 3
        assert restored.normalization.ranges == model.normalization.ranges
        assert restored.provenance == model.provenance

    def test_roundtrip_predictions_identical(self, tmp_path):
        model = _toy_model(seed=3)
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        rng = np.random.default_rng(11)
        X = rng.uniform(0.1, 0.9, (100, 7))
        assert np.array_equal(forward_batch(restored.params, X), forward_batch(model.params, X))

    @pytest.mark.parametrize("hidden_size", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_sizes_save_and_reload(self, tmp_path, hidden_size):
        model = TrainedModel(weights=init_weights(hidden_size, 0), normalization=TOY_SPEC)
        assert np.array_equal(model.weights, _toy_model().weights)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert json.loads(path.read_text())["topology"]["hidden_sizes"] == [3]
        assert load_model(path).params[1].size == 3

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

    @pytest.mark.parametrize("features", [list(DEFAULT_FEATURES[::-1]), list(DEFAULT_FEATURES[:6]),
                                          ["vol"], [*DEFAULT_FEATURES, "fcc"], 5])
    def test_other_feature_list_refused(self, features):
        # the file still names its inputs, and they must be the seven, in order
        data = {**model_to_dict(_toy_model()), "features": features}
        with pytest.raises(ValueError, match=r"model features must be \['d', 'h', 'nt', 'ef', 'fco', 'eco', "):
            model_from_dict(data)
        del data["features"]
        with pytest.raises(ValueError, match="lacks features"):
            model_from_dict(data)

    def test_missing_normalization_field(self):
        model = _toy_model()
        data = model_to_dict(model)
        del data["normalization"]["ranges"]["fcc"]
        with pytest.raises(ValueError, match="fcc"):
            model_from_dict(data)

    def test_predict_values_missing_feature(self):
        with pytest.raises(ValueError, match="missing feature: fco"):
            _toy_model().predict_values({name: v for name, v in TOY_VALUES.items() if name != "fco"})

    def test_predict_values_warns_out_of_range(self):
        fcc, warnings = _toy_model().predict_values({**TOY_VALUES, "d": 1000.0})
        assert math.isfinite(fcc)
        assert any("d=1000" in w and "extrapolating" in w for w in warnings)

    def test_predict_values_clean_in_range(self):
        fcc, warnings = _toy_model().predict_values(TOY_VALUES)
        assert warnings == []
        assert math.isfinite(fcc)

    def test_model_json_is_plain_json(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(_toy_model(), path)
        data = json.loads(path.read_text())
        assert data["format"] == "cfrpnet-model"
        assert len(data["weights"]) == 28
        assert data["features"] == list(DEFAULT_FEATURES) and data["target"] == "fcc"
        assert data["topology"] == {"hidden_activation": "tanh", "hidden_sizes": [3], "input_size": 7,
                                    "output_activation": "linear", "output_size": 1}
