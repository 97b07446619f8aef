"""Flat-parameter feedforward network.

All weights and biases live in one 1-D vector, ordered layer by layer
with each layer's weight matrix (row-major by input unit) followed by its
biases. That vector is the search space handed to the population
optimizers; a full-batch gradient-descent trainer provides the non-swarm
baseline. ``forward`` and ``gradient`` are pure; a weight vector is an
immutable value safe to share.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
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


def _sigmoid(z):
    return np.divide(1.0, np.add(np.exp(np.negative(z, out=z), out=z), 1.0, out=z), out=z)


# name -> (activation of z in place, derivative written into out from a = act(z))
_ACTIVATIONS = {
    "sigmoid": (_sigmoid, lambda a, out: np.multiply(np.subtract(1.0, a, out=out), a, out=out)),
    "tanh": (lambda z: np.tanh(z, out=z),
             lambda a, out: np.subtract(1.0, np.multiply(a, a, out=out), out=out)),
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a, out: np.greater(a, 0.0, out=out)),
    "linear": (lambda z: z, lambda a, out: out.fill(1.0)),
}
HIDDEN_ACTIVATIONS = ("sigmoid", "relu", "tanh")
OUTPUT_ACTIVATIONS = ("linear", "sigmoid")


@dataclass(frozen=True)
class NetworkTopology(ConfigBase):
    """Layer sizes and activations of a fully connected feedforward net."""

    input_size: int
    hidden_sizes: tuple[int, ...] = (50,)
    output_size: int = 1
    hidden_activation: str = "tanh"
    output_activation: str = "linear"

    def __post_init__(self):
        super().__post_init__()
        if min(self.layer_sizes) < 1:
            raise ValueError(f"all layer sizes must be >= 1, got {self.layer_sizes}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of {HIDDEN_ACTIVATIONS}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"output_activation must be one of {OUTPUT_ACTIVATIONS}")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_size, *self.hidden_sizes, self.output_size)

    @functools.cached_property
    def _layout(self) -> tuple[int, tuple]:
        """Parameter count and each layer's (weight slice, weight shape, bias
        slice) in the flat vector; computed on first use, then read."""
        layers, pos = [], 0
        for m, k in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            layers.append((slice(pos, pos + m * k), (m, k), slice(pos + m * k, pos + m * k + k)))
            pos += m * k + k
        return pos, tuple(layers)

    def to_dict(self) -> dict:
        return asdict(self)


def parameter_count(topology: NetworkTopology) -> int:
    """Total number of weights and biases across all layers."""
    return topology._layout[0]


def unflatten(topology: NetworkTopology, weights, dtype=float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a flat parameter vector into per-layer (W, b) views of the given dtype."""
    w = np.asarray(weights, dtype=dtype)
    expected, layers = topology._layout
    if w.shape != (expected,):
        raise ValueError(f"weight vector has length {w.size}, topology needs {expected}")
    return [w[ws].reshape(shape) for ws, shape, _ in layers], [w[bs] for _, _, bs in layers]


def init_weights(topology: NetworkTopology, seed: int) -> np.ndarray:
    """Draw a flat parameter vector, i.i.d. uniform on [-WEIGHT_BOUND, WEIGHT_BOUND]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-WEIGHT_BOUND, WEIGHT_BOUND, parameter_count(topology))


def _workspace(topology: NetworkTopology, n: int, dtype=float) -> list[np.ndarray]:
    """One (n, size) buffer per non-input layer: the activations of n rows."""
    return [np.empty((n, k), dtype) for k in topology.layer_sizes[1:]]


def _forward(topology, params, X, acts=None) -> np.ndarray:
    """Forward pass through the (mats, biases) views unflatten returns, in
    their dtype, writing each layer's activations into acts, or into fresh
    arrays when acts is None; returns the output layer's."""
    mats, biases = params
    a, last = X, len(mats) - 1
    for i, (W, b) in enumerate(zip(mats, biases)):
        out = np.matmul(a, W, out=None if acts is None else acts[i])
        out += b
        a = _ACTIVATIONS[topology.output_activation if i == last else topology.hidden_activation][0](out)
    return a


def forward_batch(topology: NetworkTopology, weights, X) -> np.ndarray:
    """Predictions for a batch of inputs, shape (n, output_size)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != topology.input_size:
        raise ValueError(f"expected inputs of shape (n, {topology.input_size}), got {X.shape}")
    return _forward(topology, unflatten(topology, weights), X)


def forward(topology: NetworkTopology, weights, x):
    """Prediction for a single feature vector; a scalar when output_size is 1."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != topology.input_size:
        raise ValueError(f"expected {topology.input_size} inputs, got shape {x.shape}")
    out = _forward(topology, unflatten(topology, weights), x[None, :])[0]
    return float(out[0]) if topology.output_size == 1 else out


def _check_batch(topology, X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[1] != topology.input_size:
        raise ValueError(f"expected inputs of shape (n, {topology.input_size}), got {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("batch is empty")
    if y.ndim == 1:
        if topology.output_size != 1:
            raise ValueError("1-D targets require output_size 1")
        y = y[:, None]
    if y.shape != (X.shape[0], topology.output_size):
        raise ValueError(f"targets have shape {y.shape}, expected ({X.shape[0]}, {topology.output_size})")
    return X, y


def _mse(topology, params, X, Y, acts, out) -> float:
    """MSE of a batch checked by _check_batch, for unflatten's (mats, biases)
    views: forward pass in acts, squared errors in out (acts[-1] when the
    activations are not needed afterwards)."""
    np.subtract(_forward(topology, params, X, acts), Y, out=out)
    return float(np.square(out, out=out).sum(dtype=np.float64)) / out.size  # np.mean's, in float64


def loss_mse(topology: NetworkTopology, weights, X, y) -> float:
    """Mean squared error of the forward pass over a batch."""
    X, Y = _check_batch(topology, X, y)
    acts = _workspace(topology, X.shape[0])
    return _mse(topology, unflatten(topology, weights), X, Y, acts, acts[-1])


def _backward(topology, params, X, Y, acts, tmp) -> np.ndarray:
    """Gradient of the batch MSE from the activations _forward left in acts;
    overwrites acts and tmp, a second workspace of the same shapes."""
    mats, _ = params
    grad = np.empty(parameter_count(topology))
    grads_w, grads_b = unflatten(topology, grad)
    dact_h = _ACTIVATIONS[topology.hidden_activation][1]
    delta = acts[-1]
    _ACTIVATIONS[topology.output_activation][1](delta, tmp[-1])
    np.subtract(delta, Y, out=delta)
    delta *= 2.0
    delta /= delta.size
    delta *= tmp[-1]
    for layer in range(len(mats) - 1, -1, -1):
        inputs = acts[layer - 1] if layer > 0 else X
        np.matmul(inputs.T, delta, out=grads_w[layer])
        np.sum(delta, axis=0, out=grads_b[layer])
        if layer > 0:
            dact_h(inputs, tmp[layer - 1])
            delta = np.matmul(delta, mats[layer].T, out=inputs)
            delta *= tmp[layer - 1]
    return grad


def gradient(topology: NetworkTopology, weights, X, y) -> np.ndarray:
    """Exact gradient of the batch MSE with respect to the flat parameters."""
    X, Y = _check_batch(topology, X, y)
    acts, params = _workspace(topology, X.shape[0]), unflatten(topology, weights)
    _forward(topology, params, X, acts)
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
        history = [_mse(topology, params, X, Y, acts, tmp[-1])]
        for epoch in range(1, cfg.epochs + 1):
            w -= cfg.learning_rate * _backward(topology, params, X, Y, acts, tmp)
            current = _mse(topology, params, X, Y, acts, tmp[-1])
            if not math.isfinite(current):
                raise TrainingDivergedError(epoch, current)
            history.append(current)
    return w, history


@dataclass
class TrainedModel:
    """A trained network bundled with its normalization and provenance.

    The model is self-contained: predictions in physical units need only
    the serialized file, not the training data.
    """

    topology: NetworkTopology
    weights: np.ndarray
    normalization: NormalizationSpec
    features: tuple[str, ...] = DEFAULT_FEATURES
    target: str = TARGET_FIELD
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        expected = parameter_count(self.topology)
        if self.weights.shape != (expected,):
            raise ValueError(f"weight vector has length {self.weights.size}, topology needs {expected}")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weight vector contains non-finite entries")
        self.features = tuple(self.features)
        if len(self.features) != self.topology.input_size:
            raise ValueError(
                f"{len(self.features)} features do not match input size {self.topology.input_size}")
        missing = [f for f in (*self.features, self.target) if f not in self.normalization.ranges]
        if missing:
            raise ValueError(f"normalization spec lacks field(s): {', '.join(missing)}")

    def predict_normalized(self, X) -> np.ndarray:
        out = forward_batch(self.topology, self.weights, X)
        return out[:, 0] if self.topology.output_size == 1 else out

    def predict_records(self, records) -> np.ndarray:
        """Physical-unit predictions for a sequence of specimen records."""
        X = feature_matrix(records, self.features, self.normalization)
        return self.normalization.denormalize(self.target, self.predict_normalized(X))

    def predict_values(self, values: Mapping[str, float]) -> tuple[float, list[str]]:
        """Physical-unit prediction from raw named inputs.

        Returns the prediction and a list of extrapolation warnings for
        inputs outside the fitted normalization range.
        """
        missing = [f for f in self.features if f not in values]
        if missing:
            raise ValueError(f"missing feature: {missing[0]}")
        warnings = []
        x = np.empty(len(self.features))
        for j, name in enumerate(self.features):
            v = float(values[name])
            if not self.normalization.in_range(name, v):
                r = self.normalization.ranges[name]
                warnings.append(
                    f"{name}={v:g} outside training range [{r.x_min:g}, {r.x_max:g}]; extrapolating")
            x[j] = self.normalization.normalize(name, v)
        z = forward(self.topology, self.weights, x)
        return float(self.normalization.denormalize(self.target, z)), warnings


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "topology": model.topology.to_dict(),
        "features": list(model.features),
        "target": model.target,
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
            ("target", target, "a string", isinstance(target, str)),
            ("provenance", provenance, "a mapping", isinstance(provenance, Mapping))):
        if not ok:
            raise ValueError(f"model {key} must be {kind}, got {value!r:.80}")
    return TrainedModel(
        topology=NetworkTopology.from_dict(data["topology"]),
        weights=weights,
        normalization=NormalizationSpec.from_dict(data["normalization"]),
        features=tuple(features),
        target=target,
        provenance=dict(provenance),
    )


def save_model(model: TrainedModel, path) -> None:
    write_text(path, json_text(model_to_dict(model)))


def load_model(path) -> TrainedModel:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return model_from_dict(data)
