"""Feedforward network trained by online backpropagation.

One hidden layer, logistic sigmoid on hidden and output units, two output
units with one-hot targets (unit 0 healthy, unit 1 PD), squared-error loss,
per-record weight updates with momentum. Weights start uniform in [-0.5, 0.5)
and the record order is reshuffled every epoch, both driven by the stream
derived from (seed, "mlp"), so training is bit-reproducible.

A training step writes into preallocated buffers and allocates nothing. It
gives the same bits as the plain expressions it replaces (np.append,
np.outer, v -= lr * g), because it runs the same elementwise ops in the same
order and the same BLAS dgemv calls on the same operands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PD, Dataset
from .errors import ConfigError, NonNormalizedInput, SingleClassTraining
from .rng import derive_stream


@dataclass(frozen=True)
class MlpConfig:
    hidden_units: int = 8
    learning_rate: float = 0.4
    momentum: float = 0.2
    epochs: int = 500

    def __post_init__(self):
        # "not x >= bound" also rejects NaN
        if not self.hidden_units >= 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if not self.epochs >= 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")


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


class _Network:
    """One network's weights, velocity and gradient, each held in one flat
    buffer with a (hidden, m + 1) and a (2, hidden + 1) view, plus the scratch
    arrays a step writes into, so that a training step allocates nothing."""

    def __init__(self, hidden: int, m: int):
        n1 = hidden * (m + 1)
        size = n1 + 2 * (hidden + 1)
        self.w = np.empty(size)
        self.v = np.zeros(size)
        self.g = np.empty(size)
        self.w1 = self.w[:n1].reshape(hidden, m + 1)
        self.w2 = self.w[n1:].reshape(2, hidden + 1)
        self.g1 = self.g[:n1].reshape(hidden, m + 1)
        self.g2 = self.g[n1:].reshape(2, hidden + 1)
        self.w2h_t = self.w2[:, :hidden].T
        self.a1b = np.ones(hidden + 1)  # hidden activations, then the bias input 1.0
        self.a1 = self.a1b[:hidden]
        self.z1 = np.empty(hidden)
        self.d1 = np.empty(hidden)
        self.d1_col = self.d1[:, None]
        self.ones1 = np.ones(hidden)
        self.out = np.empty(2)
        self.z2 = np.empty(2)
        self.err = np.empty(2)
        self.d2 = np.empty(2)
        self.d2_col = self.d2[:, None]
        self.ones2 = np.ones(2)


def _sigmoid_into(z, ones, out):
    """out = 1.0 / (1.0 + exp(-z)), the ops of _sigmoid in its order; z is
    overwritten."""
    np.negative(z, z)
    np.exp(z, z)
    np.add(ones, z, z)
    np.divide(ones, z, out)


def _backprop(net: _Network, xb, target) -> float:
    """Loss of one record; writes its gradient into net.g (views g1, g2).

    Loss is 0.5 * sum of squared output errors; this is the single gradient
    implementation used by both training and the finite-difference check.
    Each numpy call writes into its last argument (a positional out costs
    less than out=).
    """
    a1, a1b, out, err, d1, d2 = net.a1, net.a1b, net.out, net.err, net.d1, net.d2
    z1, z2, ones1, ones2 = net.z1, net.z2, net.ones1, net.ones2
    np.matmul(net.w1, xb, z1)
    _sigmoid_into(z1, ones1, a1)
    np.matmul(net.w2, a1b, z2)
    _sigmoid_into(z2, ones2, out)
    np.subtract(out, target, err)
    loss = 0.5 * float(err @ err)
    # d2 = err * out * (1 - out); g2 = outer(d2, a1b)
    np.multiply(err, out, d2)
    np.subtract(ones2, out, z2)
    np.multiply(d2, z2, d2)
    np.multiply(net.d2_col, a1b, net.g2)
    # d1 = (w2[:, :h].T @ d2) * a1 * (1 - a1); g1 = outer(d1, xb)
    np.matmul(net.w2h_t, d2, d1)
    np.multiply(d1, a1, d1)
    np.subtract(ones1, a1, z1)
    np.multiply(d1, z1, d1)
    np.multiply(net.d1_col, xb, net.g1)
    return loss


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
    net = _Network(config.hidden_units, m)
    w, v, g = net.w, net.v, net.g
    # w_hidden row by row, then w_output row by row: the flat buffer's order
    for k in range(w.size):
        w[k] = stream.uniform() - 0.5
    xb = np.hstack([feats, np.ones((n, 1))])
    # one-hot targets: column 0 healthy, column 1 PD
    targets = np.zeros((n, 2))
    targets[np.arange(n), (train.labels == PD).astype(int)] = 1.0
    lr, mom = config.learning_rate, config.momentum
    epoch_mse = []
    order = list(range(n))
    rows, target_rows = list(xb), list(targets)
    for _ in range(config.epochs):
        stream.shuffle(order)
        sq_sum = 0.0
        for i in order:
            sq_sum += 2.0 * _backprop(net, rows[i], target_rows[i])
            # v = mom * v - lr * g; w += v
            v *= mom
            g *= lr
            v -= g
            w += v
        epoch_mse.append(sq_sum / n)
    net.w1.setflags(write=False)
    net.w2.setflags(write=False)
    return MlpModel(net.w1, net.w2, config, seed, tuple(epoch_mse))


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
    hidden, cols = model.w_hidden.shape
    net = _Network(hidden, cols - 1)
    net.w1[...] = model.w_hidden
    net.w2[...] = model.w_output
    xb = np.append(np.asarray(features, dtype=np.float64), 1.0)
    target = np.asarray(target, dtype=np.float64)
    _backprop(net, xb, target)
    grad = net.g.copy()  # the perturbed calls below overwrite net.g
    w = net.w
    worst = 0.0
    for k in range(w.size):
        weight = w[k]
        w[k] = weight + step
        lp = _backprop(net, xb, target)
        w[k] = weight - step
        lm = _backprop(net, xb, target)
        w[k] = weight
        fd = (lp - lm) / (2.0 * step)
        bp = grad[k]
        rel = abs(bp - fd) / max(1e-12, abs(bp) + abs(fd))
        worst = max(worst, rel)
    return worst
