"""Feedforward network trained by online backpropagation.

One hidden layer, logistic sigmoid on hidden and output units, two output
units with one-hot targets (unit 0 healthy, unit 1 PD), squared-error loss,
per-record weight updates with momentum. Weights start uniform in [-0.5, 0.5)
and the record order is reshuffled every epoch, both driven by the stream
derived from (seed, "mlp"), so training is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PD, Dataset
from .errors import NonNormalizedInput, SingleClassTraining
from .rng import SplitMix64, derive_stream


@dataclass(frozen=True)
class MlpConfig:
    hidden_units: int = 8
    learning_rate: float = 0.4
    momentum: float = 0.2
    epochs: int = 500


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Trained network. w_hidden is (hidden, n_features + 1), w_output is
    (2, hidden + 1); the bias weight sits in the last column of each."""

    w_hidden: np.ndarray
    w_output: np.ndarray
    config: MlpConfig
    seed: int
    epoch_mse: tuple

    def to_json_dict(self) -> dict:
        return {
            "kind": "mlp",
            "hidden_units": self.config.hidden_units,
            "learning_rate": self.config.learning_rate,
            "momentum": self.config.momentum,
            "epochs": self.config.epochs,
            "seed": self.seed,
            "shape_hidden": list(self.w_hidden.shape),
            "shape_output": list(self.w_output.shape),
            "w_hidden": [float(v) for v in self.w_hidden.ravel()],
            "w_output": [float(v) for v in self.w_output.ravel()],
            "epoch_mse": list(self.epoch_mse),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MlpModel":
        w1 = np.array(obj["w_hidden"]).reshape(obj["shape_hidden"])
        w2 = np.array(obj["w_output"]).reshape(obj["shape_output"])
        cfg = MlpConfig(obj["hidden_units"], obj["learning_rate"],
                        obj["momentum"], obj["epochs"])
        return cls(w1, w2, cfg, obj["seed"], tuple(obj["epoch_mse"]))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _init_weights(stream: SplitMix64, rows: int, cols: int) -> np.ndarray:
    w = np.empty((rows, cols))
    for i in range(rows):
        for j in range(cols):
            w[i, j] = stream.uniform() - 0.5
    return w


def _backprop(w1, w2, xb, target):
    """(loss, grad w1, grad w2) for one record.

    Loss is 0.5 * sum of squared output errors; this is the single gradient
    implementation used by both training and the finite-difference check.
    """
    h = w1.shape[0]
    a1 = _sigmoid(w1 @ xb)
    a1b = np.append(a1, 1.0)
    out = _sigmoid(w2 @ a1b)
    err = out - target
    loss = 0.5 * float(err @ err)
    d2 = err * out * (1.0 - out)
    g2 = np.outer(d2, a1b)
    d1 = (w2[:, :h].T @ d2) * a1 * (1.0 - a1)
    g1 = np.outer(d1, xb)
    return loss, g1, g2


def _forward_batch(w1, w2, features):
    xb = np.hstack([features, np.ones((features.shape[0], 1))])
    a1 = _sigmoid(xb @ w1.T)
    a1b = np.hstack([a1, np.ones((a1.shape[0], 1))])
    return _sigmoid(a1b @ w2.T)


def mlp_train(train: Dataset, config: MlpConfig = MlpConfig(), seed: int = 42) -> MlpModel:
    """Online backpropagation over the training records.

    Requires min-max normalized inputs (every feature in [0, 1]) and both
    classes present. Records the mean squared error of each epoch, measured
    on the forward passes made during that epoch (before each update).
    """
    feats = train.features
    if feats.size and (not np.isfinite(feats).all() or feats.min() < 0.0 or feats.max() > 1.0):
        raise NonNormalizedInput("MLP input must be normalized into [0, 1]")
    counts = train.class_counts()
    if counts[0] == 0 or counts[1] == 0:
        raise SingleClassTraining("MLP training needs both classes")
    n, m = feats.shape
    stream = derive_stream(seed, "mlp")
    w1 = _init_weights(stream, config.hidden_units, m + 1)
    w2 = _init_weights(stream, 2, config.hidden_units + 1)
    xb = np.hstack([feats, np.ones((n, 1))])
    # one-hot targets: column 0 healthy, column 1 PD
    targets = np.zeros((n, 2))
    targets[np.arange(n), (train.labels == PD).astype(int)] = 1.0
    v1 = np.zeros_like(w1)
    v2 = np.zeros_like(w2)
    lr, mom = config.learning_rate, config.momentum
    epoch_mse = []
    order = list(range(n))
    for _ in range(config.epochs):
        stream.shuffle(order)
        sq_sum = 0.0
        for i in order:
            loss, g1, g2 = _backprop(w1, w2, xb[i], targets[i])
            sq_sum += 2.0 * loss
            v1 *= mom
            v1 -= lr * g1
            w1 += v1
            v2 *= mom
            v2 -= lr * g2
            w2 += v2
        epoch_mse.append(sq_sum / n)
    w1.setflags(write=False)
    w2.setflags(write=False)
    return MlpModel(w1, w2, config, seed, tuple(epoch_mse))


def mlp_score_batch(model: MlpModel, features) -> np.ndarray:
    """PD share of the output activations; inputs are clamped into [0, 1]."""
    x = np.clip(np.asarray(features, dtype=np.float64), 0.0, 1.0)
    out = _forward_batch(model.w_hidden, model.w_output, x)
    return out[:, 1] / out.sum(axis=1)


def mlp_gradient_check(model: MlpModel, features, target, step: float = 1e-5) -> float:
    """Worst relative disagreement between backprop and central differences.

    Perturbs every weight by +-step on the single-record loss and returns
    max |g_bp - g_fd| / max(1e-12, |g_bp| + |g_fd|).
    """
    xb = np.append(np.asarray(features, dtype=np.float64), 1.0)
    target = np.asarray(target, dtype=np.float64)
    _, g1, g2 = _backprop(model.w_hidden, model.w_output, xb, target)
    worst = 0.0
    for w, grad in ((model.w_hidden, g1), (model.w_output, g2)):
        for idx in np.ndindex(w.shape):
            w_plus = w.copy()
            w_minus = w.copy()
            w_plus[idx] += step
            w_minus[idx] -= step
            if w is model.w_hidden:
                lp, _, _ = _backprop(w_plus, model.w_output, xb, target)
                lm, _, _ = _backprop(w_minus, model.w_output, xb, target)
            else:
                lp, _, _ = _backprop(model.w_hidden, w_plus, xb, target)
                lm, _, _ = _backprop(model.w_hidden, w_minus, xb, target)
            fd = (lp - lm) / (2.0 * step)
            bp = grad[idx]
            rel = abs(bp - fd) / max(1e-12, abs(bp) + abs(fd))
            worst = max(worst, rel)
    return worst
