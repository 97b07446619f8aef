"""The paper's network: one tanh hidden layer and one linear output.

All weights and biases live in one 1-D vector: the input weights
(row-major by input unit), the hidden biases, the output weights and the
output bias. That vector is the search space handed to the population
optimizers; a full-batch gradient-descent trainer provides the non-swarm
baseline. ``forward`` and ``gradient`` are pure; a weight vector is an
immutable value safe to share.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataset import (DEFAULT_FEATURES, TARGET_FIELD, ConfigBase, NormalizationSpec, feature_matrix,
                      json_text, write_text)

MODEL_FORMAT = "cfrpnet-model"
MODEL_VERSION = 1
# Half-width of the one weight box: init_weights draws from it and the
# swarm trainers search it, so every trainer explores the same space.
WEIGHT_BOUND = 0.5


@dataclass(frozen=True)
class NetworkTopology(ConfigBase):
    """input_size inputs, one tanh hidden layer of hidden_size units, one linear output."""

    input_size: int
    hidden_size: int = 50

    def __post_init__(self):
        super().__post_init__()
        if min(self.input_size, self.hidden_size) < 1:
            raise ValueError(f"layer sizes must be >= 1, got input_size={self.input_size}, "
                             f"hidden_size={self.hidden_size}")


def parameter_count(topology: NetworkTopology) -> int:
    """Total number of weights and biases: (n + 1) * h in, h + 1 out."""
    return (topology.input_size + 2) * topology.hidden_size + 1


def unflatten(topology: NetworkTopology, weights, dtype=float) -> tuple[np.ndarray, ...]:
    """Split a flat parameter vector into (W1, b1, W2, b2) views of the given dtype."""
    w = np.asarray(weights, dtype=dtype)
    if w.shape != (parameter_count(topology),):
        raise ValueError(f"weight vector has length {w.size}, topology needs {parameter_count(topology)}")
    n, h = topology.input_size, topology.hidden_size
    return w[:n * h].reshape(n, h), w[n * h:(n + 1) * h], w[(n + 1) * h:-1].reshape(h, 1), w[-1:]


def init_weights(topology: NetworkTopology, seed: int) -> np.ndarray:
    """Draw a flat parameter vector, i.i.d. uniform on [-WEIGHT_BOUND, WEIGHT_BOUND]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-WEIGHT_BOUND, WEIGHT_BOUND, parameter_count(topology))


def _workspace(topology: NetworkTopology, n: int, dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """The (n, hidden_size) and (n, 1) buffers of the activations of n rows."""
    return np.empty((n, topology.hidden_size), dtype), np.empty((n, 1), dtype)


def _forward(params, X, acts=None) -> np.ndarray:
    """Forward pass through the (W1, b1, W2, b2) views unflatten returns, in
    their dtype, writing the hidden and output activations into acts, or
    into fresh arrays when acts is None; returns the output's. A None b1
    means W1 is [W1; b1] and X ends in a ones column, so the matmul adds it."""
    W1, b1, W2, b2 = params
    hidden = np.matmul(X, W1, out=None if acts is None else acts[0])
    if b1 is not None:
        hidden += b1
    np.tanh(hidden, out=hidden)
    out = np.matmul(hidden, W2, out=None if acts is None else acts[1])
    out += b2
    return out


def forward_batch(params, X) -> np.ndarray:
    """Predictions for a batch of inputs through unflatten's (W1, b1, W2, b2) views, shape (n, 1)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params[0].shape[0]:
        raise ValueError(f"expected inputs of shape (n, {params[0].shape[0]}), got {X.shape}")
    return _forward(params, X)


def forward(params, x) -> float:
    """Prediction for a single feature vector, through unflatten's (W1, b1, W2, b2) views."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != params[0].shape[0]:
        raise ValueError(f"expected {params[0].shape[0]} inputs, got shape {x.shape}")
    return float(_forward(params, x[None, :])[0, 0])


def _check_batch(topology, X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != topology.input_size:
        raise ValueError(f"expected inputs of shape (n, {topology.input_size}), got {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("batch is empty")
    if y.ndim == 1:
        y = y[:, None]
    if y.shape != (X.shape[0], 1):
        raise ValueError(f"targets have shape {y.shape}, expected ({X.shape[0]}, 1)")
    return X, y


def _mse(params, X, Y, acts, out) -> float:
    """MSE of a batch checked by _check_batch, for unflatten's views: forward
    pass in acts, squared errors in out (acts[1] when the predictions are not
    needed afterwards)."""
    np.subtract(_forward(params, X, acts), Y, out=out)
    return float(np.square(out, out=out).sum(dtype=np.float64)) / out.size  # np.mean's, in float64


def loss_mse(topology: NetworkTopology, weights, X, y) -> float:
    """Mean squared error of the forward pass over a batch."""
    X, Y = _check_batch(topology, X, y)
    acts = _workspace(topology, X.shape[0])
    return _mse(unflatten(topology, weights), X, Y, acts, acts[1])


def _backward(topology, params, X, Y, acts, tmp) -> np.ndarray:
    """Gradient of the batch MSE from the activations _forward left in acts;
    overwrites acts and tmp[0], a buffer of the hidden layer's shape."""
    W2 = params[2]
    grad = np.empty(parameter_count(topology))
    gW1, gb1, gW2, gb2 = unflatten(topology, grad)
    hidden, delta = acts
    np.subtract(delta, Y, out=delta)  # the output is linear: its derivative is 1
    delta *= 2.0
    delta /= delta.size
    np.matmul(hidden.T, delta, out=gW2)
    np.sum(delta, axis=0, out=gb2)
    dtanh = np.subtract(1.0, np.multiply(hidden, hidden, out=tmp[0]), out=tmp[0])
    delta = np.matmul(delta, W2.T, out=hidden)
    delta *= dtanh
    np.matmul(X.T, delta, out=gW1)
    np.sum(delta, axis=0, out=gb1)
    return grad


def gradient(topology: NetworkTopology, weights, X, y) -> np.ndarray:
    """Exact gradient of the batch MSE with respect to the flat parameters."""
    X, Y = _check_batch(topology, X, y)
    acts, params = _workspace(topology, X.shape[0]), unflatten(topology, weights)
    _forward(params, X, acts)
    return _backward(topology, params, X, Y, acts, _workspace(topology, X.shape[0]))


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}: loss={loss}")
        self.epoch = epoch
        self.loss = loss


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


def train_backprop(
    topology: NetworkTopology, X, y, config: BackpropConfig | None = None
) -> tuple[np.ndarray, list[float]]:
    """Full-batch gradient descent on MSE.

    Returns the trained flat weights and the loss history; entry 0 is the
    loss at initialization, so epochs updates give epochs + 1 entries.
    Raises TrainingDivergedError with the offending epoch when the loss
    leaves the finite range.
    """
    cfg = config or BackpropConfig()
    X, Y = _check_batch(topology, X, y)
    acts, tmp = _workspace(topology, X.shape[0]), _workspace(topology, X.shape[0])
    w = init_weights(topology, cfg.seed)
    params = unflatten(topology, w)  # views of w, which each epoch updates in place
    with np.errstate(over="ignore", invalid="ignore"):
        # each loss leaves in acts the forward pass the next gradient starts from
        history = [_mse(params, X, Y, acts, tmp[1])]
        for epoch in range(1, cfg.epochs + 1):
            w -= cfg.learning_rate * _backward(topology, params, X, Y, acts, tmp)
            current = _mse(params, X, Y, acts, tmp[1])
            if not math.isfinite(current):
                raise TrainingDivergedError(epoch, current)
            history.append(current)
    return w, history


@dataclass(frozen=True, eq=False)  # identity equality and hash: the weights are an array
class TrainedModel:
    """A trained network bundled with its normalization and provenance.

    The model is self-contained: predictions in physical units need only
    the serialized file, not the training data. It is frozen because it
    binds its weights' float64 views once, for every single-record call.
    """

    topology: NetworkTopology
    weights: np.ndarray
    normalization: NormalizationSpec
    features: tuple[str, ...] = DEFAULT_FEATURES
    provenance: dict = field(default_factory=dict)
    params: tuple = field(init=False, repr=False, compare=False)  # unflatten's views of weights

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        expected = parameter_count(self.topology)
        if weights.shape != (expected,):
            raise ValueError(f"weight vector has length {weights.size}, topology needs {expected}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weight vector contains non-finite entries")
        features = tuple(self.features)
        if len(features) != self.topology.input_size:
            raise ValueError(f"{len(features)} features do not match input size {self.topology.input_size}")
        missing = [f for f in (*features, TARGET_FIELD) if f not in self.normalization.ranges]
        if missing:
            raise ValueError(f"normalization spec lacks field(s): {', '.join(missing)}")
        for name, value in (("weights", weights), ("features", features),
                            ("params", unflatten(self.topology, weights))):
            object.__setattr__(self, name, value)

    def predict_normalized(self, X) -> np.ndarray:
        return forward_batch(self.params, X)[:, 0]

    def predict_records(self, records) -> np.ndarray:
        """Physical-unit predictions for a sequence of specimen records."""
        X = feature_matrix(records, self.features, self.normalization)
        return self.normalization.denormalize(TARGET_FIELD, self.predict_normalized(X))

    def predict_values(self, values: Mapping[str, float]) -> tuple[float, list[str]]:
        """Physical-unit prediction from raw named inputs.

        Returns the prediction and a list of extrapolation warnings for
        inputs outside the fitted normalization range.
        """
        try:
            raw = [values[name] for name in self.features]
        except KeyError:
            missing = next(f for f in self.features if f not in values)
            raise ValueError(f"missing feature: {missing}") from None
        spec, warnings, x = self.normalization, [], np.empty(len(raw))
        for j, name in enumerate(self.features):
            v = float(raw[j])
            x[j], inside = spec.normalize_value(name, v)
            if not inside:
                r = spec.ranges[name]
                warnings.append(
                    f"{name}={v:g} outside training range [{r.x_min:g}, {r.x_max:g}]; extrapolating")
        z = forward(self.params, x)
        return spec.denormalize(TARGET_FIELD, z), warnings


def _topology_to_dict(topology: NetworkTopology) -> dict:
    """The topology object of a model file, in the format's first-version keys."""
    return {"hidden_activation": "tanh", "hidden_sizes": [topology.hidden_size],
            "input_size": topology.input_size, "output_activation": "linear", "output_size": 1}


def _topology_from_dict(data) -> NetworkTopology:
    """The topology a model file holds; anything but the paper's network raises ValueError."""
    hidden = data.get("hidden_sizes") if isinstance(data, Mapping) else None
    if isinstance(hidden, list) and len(hidden) == 1:
        topology = NetworkTopology(data.get("input_size"), hidden[0])
        typed = [{key: (type(value), value) for key, value in d.items()}  # so 1.0 or true is not 1
                 for d in (data, _topology_to_dict(topology))]
        if typed[0] == typed[1]:
            return topology
    raise ValueError("model topology must be one tanh hidden layer and one linear output, "
                     f"got {data!r:.80}")


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "topology": _topology_to_dict(model.topology),
        "features": list(model.features),
        "target": TARGET_FIELD,
        "weights": [float(w) for w in model.weights],
        "normalization": model.normalization.to_dict(),
        "provenance": model.provenance,
    }


def model_from_dict(data: Mapping) -> TrainedModel:
    if not isinstance(data, Mapping):
        raise ValueError(f"a model document must be a JSON object, got {type(data).__name__}")
    if data.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a recognized model document (format={data.get('format')!r})")
    if data.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {data.get('version')!r}")
    missing = [key for key in ("topology", "weights", "normalization", "features") if key not in data]
    if missing:
        raise ValueError(f"model document lacks {', '.join(missing)}")
    features, weights = data["features"], np.asarray(data["weights"])
    target, provenance = data.get("target", TARGET_FIELD), data.get("provenance", {})
    for key, value, kind, ok in (
            ("features", features, "a list of strings",
             isinstance(features, list) and all(isinstance(f, str) for f in features)),
            ("weights", data["weights"], "a list of numbers", weights.dtype.kind in "iuf"),
            ("target", target, repr(TARGET_FIELD), target == TARGET_FIELD),
            ("provenance", provenance, "a mapping", isinstance(provenance, Mapping))):
        if not ok:
            raise ValueError(f"model {key} must be {kind}, got {value!r:.80}")
    return TrainedModel(
        topology=_topology_from_dict(data["topology"]),
        weights=weights,
        normalization=NormalizationSpec.from_dict(data["normalization"]),
        features=tuple(features),
        provenance=dict(provenance),
    )


def save_model(model: TrainedModel, path) -> None:
    write_text(path, json_text(model_to_dict(model)))


def load_model(path) -> TrainedModel:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return model_from_dict(data)
