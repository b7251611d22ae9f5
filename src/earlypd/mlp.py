"""Feedforward network trained by online backpropagation.

One hidden layer, logistic sigmoid on hidden and output units, two output
units with one-hot targets (unit 0 healthy, unit 1 PD), squared-error loss,
per-record weight updates with momentum. Weights start uniform in [-0.5, 0.5)
and the record order is reshuffled every epoch, both driven by the stream
derived from (seed, "mlp"), so training is bit-reproducible.

A training step is 21 numpy calls that write into preallocated buffers. It
carries signs: the input row arrives negated, the hidden and output
activations are stored negated, and the step leaves the negated error and
the negated gradient behind. So both forward products return -z, the
argument exp needs, and no call is spent on a negation. The bits are those
of the plain expressions (np.append, @, np.outer, v -= lr * g, the loss
taken per record), because negation is exact and round-to-nearest is
symmetric in sign: w @ (-x) == -(w @ x) for any summation order, with or
without fused multiply-add, and likewise 1 + (-a) == 1 - a,
(-1) / t == -(1 / t), (-a) * (-b) == a * b and a + (-b) == a - b. The
loss terms err @ err are taken once per epoch, from the negated errors of
all its steps, by one stacked matmul that runs the same dot product per row.

The five products are np.dot calls, cheaper than @ and a broadcast multiply,
each on the BLAS kernel and shape that @ runs: a gemv for w1 @ -x, one for
w2 @ [-a1, -1], and for w2[:, :h].T @ d2 the gemv on h rows that
np.dot(d2, w2[:, :h]) runs on its copy of the block (the step's one
allocation); uncopied or transposed, other rows fall in OpenBLAS's tail loop
and the bits differ at some h. An outer product's cell is the rounded
product added to +0, so a zero input cell gives +0 where multiply gives -0.
That zero meets a weight w only in v = mom * v + lr * g and w += v, and
w + 0 == w + -0, as w is never -0 (it starts as u - 0.5; x + -x is +0).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import PD, Dataset
from .errors import ConfigError, DataError
from .jsontext import json_array, json_typed, settings
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
            **asdict(self.config),
            "seed": self.seed,
            "w_hidden": [float(v) for v in self.w_hidden.ravel()],
            "w_output": [float(v) for v in self.w_output.ravel()],
            "epoch_mse": list(self.epoch_mse),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MlpModel":
        """Raises ValueError unless the weights and epoch_mse are finite numbers
        and the weights fill (hidden_units, 2 or more) and (2, hidden_units + 1)."""
        config = settings(MlpConfig, obj)
        w1 = json_array(obj["w_hidden"], "w_hidden", (config.hidden_units, -1))
        if w1.shape[1] < 2:  # a row holds a bias and at least one feature weight
            raise ValueError(f"w_hidden has {w1.size} values for {config.hidden_units} rows")
        w2 = json_array(obj["w_output"], "w_output", (2, config.hidden_units + 1))
        return cls(w1, w2, config, json_typed(int, obj["seed"], "seed"),
                   tuple(json_array(obj["epoch_mse"], "epoch_mse").tolist()))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class _Network:
    """One network's weights, velocity and negated gradient, each held in one
    flat buffer with a (hidden, m + 1) and a (2, hidden + 1) view, and its
    training step, built once as a closure over the scratch arrays it writes
    into, so that a step allocates only np.dot's copy of w2[:, :h]."""

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
        self.step = self._build_step(hidden)

    def _build_step(self, h: int):
        """step(nx, x, target, nerr): one record's negated gradient into g
        (views g1, g2) and its negated output error into nerr.

        nx is the input row with its bias 1.0, negated; x is the same row
        unnegated, shaped (1, m + 1); the loss is 0.5 * (nerr @ nerr). It is
        the one gradient implementation, for training and the gradient check.
        Each call writes into its last argument (positional out costs less
        than out=); the module docstring says why the np.dot calls keep bits.
        """
        dot, exp, add, multiply, divide = np.dot, np.exp, np.add, np.multiply, np.divide
        w1, w2, g1, g2 = self.w1, self.w2, self.g1, self.g2
        w2h = w2[:, :h]
        # act = [-a1 (h), -1.0 (the bias input), -out (2)]
        act = np.empty(h + 3)
        act[h] = -1.0
        na1, na1b, nout = act[:h], act[:h + 1], act[h + 1:]
        # onep = 1 - act's unnegated values: [1 - a1, 0, 1 - out]
        onep = np.empty(h + 3)
        onep1, onep2 = onep[:h], onep[h + 1:]
        ones, neg = np.ones(h + 3), np.full(h + 3, -1.0)
        ones1, ones2, neg1, neg2 = ones[:h], ones[:2], neg[:h], neg[:2]
        t1, t2 = np.empty(h), np.empty(2)
        d1, d2 = np.empty(h), np.empty(2)
        d1_col, d2_col, na1b_row = d1[:, None], d2[:, None], na1b[None, :]

        def step(nx, x, target, nerr):
            # -a1 = -1 / (1 + exp(-z1)), where w1 @ -x is -z1
            dot(w1, nx, t1)
            exp(t1, t1)
            add(ones1, t1, t1)
            divide(neg1, t1, na1)
            # -out likewise from w2 @ [-a1, -1] = -z2
            dot(w2, na1b, t2)
            exp(t2, t2)
            add(ones2, t2, t2)
            divide(neg2, t2, nout)
            add(ones, act, onep)
            # -err = -out + target
            add(nout, target, nerr)
            # d2 = (-err * -out) * (1 - out); -g2 = outer(d2, -a1b)
            multiply(nerr, nout, d2)
            multiply(d2, onep2, d2)
            dot(d2_col, na1b_row, g2)
            # -d1 = ((d2 @ w2[:, :h]) * -a1) * (1 - a1); -g1 = outer(-d1, x)
            dot(d2, w2h, d1)
            multiply(d1, na1, d1)
            multiply(d1, onep1, d1)
            dot(d1_col, x, g1)

        return step


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
        raise DataError("MLP input must be normalized into [0, 1]")
    counts = train.class_counts()
    if counts[0] == 0 or counts[1] == 0:
        raise DataError("MLP training needs both classes")
    n, m = feats.shape
    stream = derive_stream(seed, "mlp")
    net = _Network(config.hidden_units, m)
    w, v, g, step = net.w, net.v, net.g, net.step
    # w_hidden row by row, then w_output row by row: the flat buffer's order
    for k in range(w.size):
        w[k] = stream.uniform() - 0.5
    xb = np.hstack([feats, np.ones((n, 1))])
    # one-hot targets: column 0 healthy, column 1 PD
    targets = np.zeros((n, 2))
    targets[np.arange(n), (train.labels == PD).astype(int)] = 1.0
    rows, neg_rows, target_rows = list(xb[:, None, :]), list(-xb), list(targets)
    # row k holds the negated output error of an epoch's k-th step
    errs = np.empty((n, 2))
    err_rows = list(errs)
    sq = np.empty((n, 1, 1))
    lr, mom = config.learning_rate, config.momentum
    multiply, add = np.multiply, np.add
    epoch_mse = []
    order = list(range(n))
    for _ in range(config.epochs):
        stream.shuffle(order)
        for i, nerr in zip(order, err_rows):
            step(neg_rows[i], rows[i], target_rows[i], nerr)
            # v = mom * v + lr * -g; w += v
            multiply(v, mom, v)
            multiply(g, lr, g)
            add(v, g, v)
            add(w, v, w)
        # err @ err per step, each row the same dot product a 1-D err @ err runs
        np.matmul(errs[:, None, :], errs[:, :, None], sq)
        # the steps' 2 * (0.5 * err @ err) summed one after another, in step order
        epoch_mse.append(float(np.cumsum(2.0 * (0.5 * sq.ravel()))[-1]) / n)
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
    neg_xb, xb_row = -xb, xb[None, :]
    target = np.asarray(target, dtype=np.float64)
    nerr = np.empty(2)

    def loss() -> float:
        net.step(neg_xb, xb_row, target, nerr)
        return 0.5 * float(nerr @ nerr)

    loss()
    grad = -net.g  # a copy: the perturbed calls below overwrite net.g
    w = net.w
    worst = 0.0
    for k in range(w.size):
        weight = w[k]
        w[k] = weight + step
        lp = loss()
        w[k] = weight - step
        lm = loss()
        w[k] = weight
        fd = (lp - lm) / (2.0 * step)
        bp = grad[k]
        rel = abs(bp - fd) / max(1e-12, abs(bp) + abs(fd))
        worst = max(worst, rel)
    return worst
