"""The paper's network: one tanh hidden layer and one linear output.

All weights and biases live in one 1-D vector: the input weights
(row-major by input unit), the hidden biases, the output weights and the
output bias. That vector is the search space of the population
optimizers, which minimize this module's float32 objective_from_dataset;
a full-batch gradient-descent trainer provides the non-swarm baseline.
``forward`` and ``gradient`` are pure; a weight vector is an immutable value safe to share.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .dataset import (DEFAULT_FEATURES, HI, LO, TARGET_FIELD, ConfigBase, NormalizationSpec, feature_matrix,
                      json_text, normalize_row, write_text)

MODEL_FORMAT = "cfrpnet-model"
MODEL_VERSION = 1
# Half-width of the one weight box: init_weights draws from it and the
# swarm trainers search it, so every trainer explores the same space.
WEIGHT_BOUND = 0.5
# The network reads the seven DEFAULT_FEATURES; its one size is the hidden width h.
INPUT_SIZE = len(DEFAULT_FEATURES)
_inputs_of = operator.itemgetter(*DEFAULT_FEATURES)


def parameter_count(hidden: int) -> int:
    """Total number of weights and biases for hidden width h: (7 + 1) * h in, h + 1 out.
    Every path that builds a network passes here, so here a width that is not an int >= 1
    (a bool or a float included) raises ValueError."""
    if isinstance(hidden, bool) or not isinstance(hidden, numbers.Integral) or hidden < 1:
        raise ValueError(f"hidden width must be an integer >= 1, got {hidden!r}")
    return (INPUT_SIZE + 2) * int(hidden) + 1  # int: a numpy width would wrap


def unflatten(weights, dtype=float) -> tuple[np.ndarray, ...]:
    """Split a flat parameter vector into (W1, b1, W2, b2) views of the given dtype, shaped
    (7, h), (h,), (h,) and (). The length fixes the hidden width h: it must be 9h + 1, h >= 1."""
    w = np.asarray(weights, dtype=dtype)
    h, rest = divmod(w.size - 1, INPUT_SIZE + 2)
    if w.ndim != 1 or rest or h < 1:
        raise ValueError(f"weight vector has shape {w.shape}, the network needs a 1-D length of "
                         f"{INPUT_SIZE + 2}h + 1 for a hidden width h >= 1")
    n = INPUT_SIZE
    return w[:n * h].reshape(n, h), w[n * h:(n + 1) * h], w[(n + 1) * h:-1], w[-1:].reshape(())


def init_weights(hidden: int, seed: int) -> np.ndarray:
    """Draw a flat parameter vector, i.i.d. uniform on [-WEIGHT_BOUND, WEIGHT_BOUND]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-WEIGHT_BOUND, WEIGHT_BOUND, parameter_count(hidden))


def _bind(params, X, Y=None):
    """The forward pass of a batch through unflatten's views (W1, b1, W2, b2), bound once to
    them and to its own (n, h) and (n,) buffers in X's dtype: forward() reads the views' values
    and returns the buffers, holding the tanh activations and the outputs. Bound with targets Y,
    it goes on to leave the squared errors over the outputs and returns their mean, summed in
    float64 as np.mean sums. A None b1 means W1 is [W1; b1] and X ends in a ones column."""
    W1, b1, W2, b2 = params
    hidden, out = np.empty((len(X), W2.size), X.dtype), np.empty(len(X), X.dtype)
    x_dot, hidden_dot, tanh, add, subtract, square = X.dot, hidden.dot, np.tanh, np.add, np.subtract, np.square

    def forward():
        x_dot(W1, out=hidden)
        if b1 is not None:
            add(hidden, b1, out=hidden)
        tanh(hidden, out=hidden)
        hidden_dot(W2, out=out)
        add(out, b2, out=out)
        if Y is None:
            return hidden, out
        subtract(out, Y, out=out)
        return float(add.reduce(square(out, out=out), dtype=float)) / out.size

    return forward


def forward_batch(params, X) -> np.ndarray:
    """Predictions for a batch of inputs through unflatten's (W1, b1, W2, b2) views, shape (n,)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params[0].shape[0]:
        raise ValueError(f"expected inputs of shape (n, {params[0].shape[0]}), got {X.shape}")
    return _bind(params, X)()[1]


def forward(params, x) -> float:
    """Prediction for a single feature vector, through unflatten's (W1, b1, W2, b2) views.

    It computes on 1-D vectors, which costs less per call than the batch kernel; the
    output is np.dot(hidden, W2.reshape(h, 1))[0] + b2[0], in Python floats."""
    x = np.asarray(x, dtype=float)
    W1, b1, W2, b2 = params
    if x.ndim != 1 or x.size != W1.shape[0]:
        raise ValueError(f"expected {W1.shape[0]} inputs, got shape {x.shape}")
    hidden = x.dot(W1)
    hidden += b1
    np.tanh(hidden, out=hidden)
    return float(hidden.dot(W2)) + float(b2)


def _check_batch(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != INPUT_SIZE:
        raise ValueError(f"expected inputs of shape (n, {INPUT_SIZE}), got {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("batch is empty")
    if y.shape != (len(X),):
        raise ValueError(f"targets have shape {y.shape}, expected ({len(X)},)")
    return X, y


def loss_mse(weights, X, y) -> float:
    """Mean squared error of the forward pass over a batch."""
    X, Y = _check_batch(X, y)
    return _bind(unflatten(weights), X, Y)()


def _bind_gradient(params, X, Y):
    """The batch MSE and its exact gradient, bound once on _bind's forward pass of a checked
    batch, with a gradient buffer, its unflatten views and scratch buffers: each backward() call
    returns the MSE, summed as a bound forward() sums it, and the gradient buffer, which it overwrites."""
    forward, n, h = _bind(params, X), len(X), params[1].size
    grad = np.empty(parameter_count(h))
    gW1, gb1, gW2, gb2 = unflatten(grad)
    squares, dtanh = np.empty(n), np.empty((n, h))

    def backward() -> tuple[float, np.ndarray]:
        hidden, delta = forward()
        np.subtract(delta, Y, out=delta)
        loss = float(np.add.reduce(np.square(delta, out=squares), dtype=float)) / n
        delta *= 2.0  # the output is linear: its derivative is 1
        delta /= n
        hidden.T.dot(delta, out=gW2)
        np.sum(delta, out=gb2)
        np.subtract(1.0, np.multiply(hidden, hidden, out=dtanh), out=dtanh)
        delta = np.multiply.outer(delta, params[2], out=hidden)
        delta *= dtanh
        X.T.dot(delta, out=gW1)
        np.sum(delta, axis=0, out=gb1)
        return loss, grad

    return backward


def gradient(weights, X, y) -> np.ndarray:
    """Exact gradient of the batch MSE with respect to the flat parameters."""
    X, Y = _check_batch(X, y)
    return _bind_gradient(unflatten(weights), X, Y)()[1]


def objective_from_dataset(hidden: int, X, y) -> Callable[[np.ndarray], float]:
    """The swarm fitness of a flat weight vector: the MSE on a fixed normalized training set.

    A fitness only ranks candidates, so the forward pass runs in float32: it is bound once, here,
    to the checked and cast training set and to the views of a float32 weight buffer; a call
    copies the position into that buffer and runs the bound pass, which sums the squared errors
    in float64. b1 follows W1 in the flat layout, so the first 8h weights are [W1; b1] as one
    view, and X gets a ones column: the first product adds the hidden bias. On OpenBLAS's
    SkylakeX kernels that kept every bit where the product goes to sgemm; a width of 1 or a
    1-row set goes to sgemv, which may round the sums differently. A call allocates no
    batch-sized array: it is deterministic and invariant to the order of the training rows, but
    not re-entrant across threads."""
    w = np.empty(parameter_count(hidden), np.float32)
    W2, b2 = unflatten(w, np.float32)[2:]
    n, h = INPUT_SIZE, W2.size
    X, Y = _check_batch(X, y)
    X, Y = np.hstack([X, np.ones((len(X), 1))]).astype(np.float32), Y.astype(np.float32)
    mse = _bind((w[:(n + 1) * h].reshape(n + 1, h), None, W2, b2), X, Y)  # views of w

    def objective(position: np.ndarray) -> float:
        if np.shape(position) != w.shape:  # copyto would broadcast a scalar
            raise ValueError(f"weight vector has length {np.size(position)}, the network of hidden "
                             f"width {h} needs {w.size}")
        np.copyto(w, position)
        return mse()

    return objective


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""


@dataclass
class BackpropConfig(ConfigBase):
    learning_rate: float = 0.05
    epochs: int = 900
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def train_backprop(hidden: int, X, y, config: BackpropConfig) -> tuple[np.ndarray, list[float]]:
    """Full-batch gradient descent on MSE.

    Returns the trained flat weights and the loss history; entry 0 is the
    loss at initialization, so epochs updates give epochs + 1 entries.
    Raises TrainingDivergedError with the offending epoch when the loss
    leaves the finite range.
    """
    w = init_weights(hidden, config.seed)
    X, Y = _check_batch(X, y)
    backward = _bind_gradient(unflatten(w), X, Y)  # views of w, which each epoch updates in place
    with np.errstate(over="ignore", invalid="ignore"):
        current, grad = backward()
        history = [current]
        for epoch in range(1, config.epochs + 1):
            w -= config.learning_rate * grad
            current, grad = backward()
            if not math.isfinite(current):
                raise TrainingDivergedError(f"training diverged at epoch {epoch}: loss={current}")
            history.append(current)
    return w, history


@dataclass(frozen=True, eq=False)  # identity equality and hash: the weights are an array
class TrainedModel:
    """A trained network bundled with its normalization and provenance.

    Its inputs are DEFAULT_FEATURES, in order, and its hidden width is
    params[1].size, read from the length of the weights. The model is
    self-contained: predictions in physical units need only the serialized
    file, not the training data. It is frozen because it binds once, for every
    single-record call, its weights' float64 views and its normalization bounds.
    """

    weights: np.ndarray
    normalization: NormalizationSpec
    provenance: dict = field(default_factory=dict)
    params: tuple = field(init=False, repr=False, compare=False)  # unflatten's views of weights
    inputs: tuple = field(init=False, repr=False, compare=False)  # (name, x_min, x_max) per input
    target: tuple = field(init=False, repr=False, compare=False)  # the target's (x_min, x_max - x_min)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        params = unflatten(weights)  # views of weights; checks the length
        if not np.all(np.isfinite(weights)):
            raise ValueError("weight vector contains non-finite entries")
        ranges = self.normalization.ranges
        missing = [f for f in (*DEFAULT_FEATURES, TARGET_FIELD) if f not in ranges]
        if missing:
            raise ValueError(f"normalization spec lacks field(s): {', '.join(missing)}")
        inputs = tuple((f, ranges[f].x_min, ranges[f].x_max) for f in DEFAULT_FEATURES)
        target = (ranges[TARGET_FIELD].x_min, ranges[TARGET_FIELD].x_max - ranges[TARGET_FIELD].x_min)
        for name, value in (("weights", weights), ("params", params), ("inputs", inputs), ("target", target)):
            object.__setattr__(self, name, value)

    def predict_records(self, records) -> np.ndarray:
        """Physical-unit predictions for a sequence of specimen records."""
        X = feature_matrix(records, self.normalization)
        return self.normalization.denormalize(TARGET_FIELD, forward_batch(self.params, X))

    def predict_values(self, values: Mapping[str, float]) -> tuple[float, list[str]]:
        """Physical-unit prediction from raw named inputs, one per DEFAULT_FEATURES.

        Returns the prediction and a list of extrapolation warnings for
        inputs outside the fitted normalization range.
        """
        try:
            raw = _inputs_of(values)
        except KeyError:
            missing = next(f for f in DEFAULT_FEATURES if f not in values)
            raise ValueError(f"missing feature: {missing}") from None
        x, warnings = normalize_row(self.inputs, raw)
        x_min, width = self.target  # denormalize's operations, on the bound pair
        return x_min + (forward(self.params, x) - LO) * width / (HI - LO), warnings


def _topology_dict(hidden: int) -> dict:
    """The topology object of a model file, in the format's first-version keys."""
    return {"hidden_activation": "tanh", "hidden_sizes": [hidden],
            "input_size": INPUT_SIZE, "output_activation": "linear", "output_size": 1}


def _typed(value):
    """A JSON value with the type of every scalar in it kept, so that 1.0 or true is not 1."""
    if isinstance(value, Mapping):
        return {key: _typed(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), value


def _json(value) -> str:
    """A value as a model file spells it (true, null, NaN, Infinity), cut at 80 characters."""
    return json.dumps(value, default=repr)[:80]


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "topology": _topology_dict(model.params[1].size),
        "features": list(DEFAULT_FEATURES),
        "target": TARGET_FIELD,
        "weights": [float(w) for w in model.weights],
        "normalization": model.normalization.to_dict(),
        "provenance": model.provenance,
    }


def model_from_dict(data: Mapping) -> TrainedModel:
    if not isinstance(data, Mapping):
        raise ValueError(f"a model document must be a JSON object, got {type(data).__name__}")
    if data.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a recognized model document (format={_json(data.get('format'))})")
    if _typed(data.get("version")) != _typed(MODEL_VERSION):
        raise ValueError(f"unsupported model version {_json(data.get('version'))}")
    missing = [key for key in ("topology", "weights", "normalization", "features") if key not in data]
    if missing:
        raise ValueError(f"model document lacks {', '.join(missing)}")
    features, weights = data["features"], np.asarray(data["weights"])
    target, provenance = data.get("target", TARGET_FIELD), data.get("provenance", {})
    for key, value, kind, ok in (
            ("features", features, _json(list(DEFAULT_FEATURES)), features == list(DEFAULT_FEATURES)),
            ("weights", data["weights"], "a list of numbers",
             weights.dtype.kind in "iuf" and (weights.ndim != 1 or bool not in map(type, data["weights"]))),
            ("target", target, _json(TARGET_FIELD), target == TARGET_FIELD),
            ("provenance", provenance, "a mapping", isinstance(provenance, Mapping))):
        if not ok:
            raise ValueError(f"model {key} must be {kind}, got {_json(value)}")
    for key, value in provenance.items():
        try:  # strict JSON, as save_model writes it
            json.dumps(value, allow_nan=False, default=repr)
        except ValueError:  # the first entry holding a NaN or an infinity
            raise ValueError(f"model provenance must be free of NaN and infinities, got {key}={_json(value)}") from None
    model = TrainedModel(
        weights=weights,
        normalization=NormalizationSpec.from_dict(data["normalization"]),
        provenance=dict(provenance),
    )
    hidden = model.params[1].size  # the width its weights give; the topology must agree
    if _typed(data["topology"]) != _typed(_topology_dict(hidden)):
        raise ValueError(f"model topology must be one tanh hidden layer of the {hidden} units its "
                         f"weights give and one linear output, got {_json(data['topology'])}")
    return model


def save_model(model: TrainedModel, path) -> None:
    write_text(path, json_text(model_to_dict(model)))


def load_model(path) -> TrainedModel:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return model_from_dict(data)
