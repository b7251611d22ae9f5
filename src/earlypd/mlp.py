"""Feedforward network trained by online backpropagation.

One hidden layer, logistic sigmoid on hidden and output units, two output
units with one-hot targets (unit 0 healthy, unit 1 PD), squared-error loss,
per-record weight updates with momentum. Weights start uniform in [-0.5, 0.5)
and the record order is reshuffled every epoch, both driven by the stream
derived from (seed, "mlp"), so training is bit-reproducible.

A training step is 15 numpy calls that write into preallocated buffers, 12
in the network's step and 3 for the weight update. It carries signs: the
input row arrives negated, the hidden and output activations are negated,
and the step leaves the negated error and the negated gradient behind. So
both forward products return -z, the argument exp needs, and no call is
spent on a negation. The bits are those of the plain expressions
(np.append, @, np.outer, v -= lr * g, the loss taken per record), because
negation is exact and round-to-nearest is symmetric in sign:
w @ (-x) == -(w @ x) for any summation order, with or without fused
multiply-add, and likewise 1 + (-a) == 1 - a, (-1) / t == -(1 / t),
(-a) * (-b) == a * b and a + (-b) == a - b. The loss terms err @ err are
taken once per epoch, from the negated errors of all its steps, by one
stacked matmul that runs the same dot product per row.

The five products are np.dot calls, cheaper than @ and a broadcast multiply,
each on the BLAS kernel and shape that @ runs: a gemv for w1 @ -x, one for
w2 @ [-a1, -1], and for w2[:, :h].T @ d2 the gemv on h rows that
np.dot(d2, w2[:, :h]) runs on its copy of the block (the step's one
allocation); uncopied or transposed, other rows fall in OpenBLAS's tail loop
and the bits differ at some h. An outer product's cell is the rounded
product added to +0, so a zero input cell gives +0 where multiply gives -0.
That zero meets a weight w only in v = mom * v + lr * g and w += v, and
w + 0 == w + -0, as w is never -0 (it starts as u - 0.5; x + -x is +0).

The velocity v and the negated gradient g are the halves of one buffer, so
mom * v and lr * g are one multiply by [mom, ..., lr, ...]. Each cell is the
same correctly rounded product as with a scalar factor, which numpy would
convert from a Python float on every call.

The two output units go on in Python floats once np.exp has returned
exp(-z2): -out, -err and d2 are six operations a unit, each far cheaper as
a float operation than as a numpy call on two elements. Python floats and
numpy's add, multiply and divide are the same correctly rounded binary64
operations, taken in the same order, so the bits hold. 1 + exp(-z2) is at
least 1 or NaN, so no division raises, and inf and NaN flow through without
a warning; the targets arrive as Python floats, so no numpy scalar enters.
np.exp stays a numpy call, as math.exp differs from it on some inputs; it
and the five BLAS products are all that tie the step's bits to the host.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import BLOCK_ROWS, N_FEATURES, PD, Dataset
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
        and the weights fill (hidden_units, N_FEATURES + 1) and (2, hidden_units + 1)."""
        config = settings(MlpConfig, obj)
        w1 = json_array(obj["w_hidden"], "w_hidden", (config.hidden_units, N_FEATURES + 1))
        w2 = json_array(obj["w_output"], "w_output", (2, config.hidden_units + 1))
        return cls(w1, w2, config, json_typed(int, obj["seed"], "seed"),
                   tuple(json_array(obj["epoch_mse"], "epoch_mse").tolist()))


class _Network:
    """One network's weights w, and its velocity and negated gradient in
    vg = [v | g]; w and g have a (hidden, m + 1) and a (2, hidden + 1) view.
    Its training step is built once as a closure over the scratch arrays it
    writes into, so that a step allocates only np.dot's copy of w2[:, :h]."""

    def __init__(self, hidden: int, m: int):
        n1 = hidden * (m + 1)
        size = n1 + 2 * (hidden + 1)
        try:
            self.w = np.empty(size)
            self.vg = np.zeros(2 * size)
        except (ValueError, MemoryError) as err:
            raise ConfigError(f"hidden_units {hidden} is too large to allocate the "
                              f"network: {err}") from None
        self.v, self.g = self.vg[:size], self.vg[size:]
        self.w1 = self.w[:n1].reshape(hidden, m + 1)
        self.w2 = self.w[n1:].reshape(2, hidden + 1)
        self.g1 = self.g[:n1].reshape(hidden, m + 1)
        self.g2 = self.g[n1:].reshape(2, hidden + 1)
        self.step = self._build_step(hidden)

    def _build_step(self, h: int):
        """step(nx, x, target, nerr): one record's negated gradient into g
        (views g1, g2) and its negated output error into nerr.

        nx is the input row with its bias 1.0, negated; x is the same row
        unnegated, shaped (1, m + 1); target is the one-hot pair as Python
        floats; the loss is 0.5 * (nerr @ nerr). It is the one gradient
        implementation, for training and the gradient check. Each numpy call
        writes into its last argument (positional out costs less than out=);
        the hidden layer is numpy calls on h values, the output layer float
        arithmetic on two. The module docstring says why both keep the bits.
        """
        dot, exp, add, multiply, divide = np.dot, np.exp, np.add, np.multiply, np.divide
        w1, w2, g1, g2 = self.w1, self.w2, self.g1, self.g2
        w2h = w2[:, :h]
        # na1b = [-a1 (h), -1.0 (the bias input)]
        na1b = np.empty(h + 1)
        na1b[h] = -1.0
        na1 = na1b[:h]
        ones, neg = np.ones(h), np.full(h, -1.0)
        onep1, t1, t2 = np.empty(h), np.empty(h), np.empty(2)
        d1, d2 = np.empty(h), np.empty(2)
        d1_col, d2_col, na1b_row = d1[:, None], d2[:, None], na1b[None, :]

        def step(nx, x, target, nerr):
            # -a1 = -1 / (1 + exp(-z1)), where w1 @ -x is -z1
            dot(w1, nx, t1)
            exp(t1, t1)
            add(ones, t1, t1)
            divide(neg, t1, na1)
            add(ones, na1, onep1)  # 1 - a1
            # exp(-z2), where w2 @ [-a1, -1] is -z2; the two units go on in floats
            dot(w2, na1b, t2)
            exp(t2, t2)
            e0, e1 = t2.tolist()
            y0, y1 = target
            # -out = -1 / (1 + exp(-z2)); -err = -out + target
            o0, o1 = -1.0 / (1.0 + e0), -1.0 / (1.0 + e1)
            r0, r1 = o0 + y0, o1 + y1
            nerr[0], nerr[1] = r0, r1
            # d2 = (-err * -out) * (1 - out); -g2 = outer(d2, -a1b)
            d2[0], d2[1] = (r0 * o0) * (1.0 + o0), (r1 * o1) * (1.0 + o1)
            dot(d2_col, na1b_row, g2)
            # -d1 = ((d2 @ w2[:, :h]) * -a1) * (1 - a1); -g1 = outer(-d1, x)
            dot(d2, w2h, d1)
            multiply(d1, na1, d1)
            multiply(d1, onep1, d1)
            dot(d1_col, x, g1)

        return step


def mlp_train(train: Dataset, config: MlpConfig = MlpConfig(), seed: int = 42) -> MlpModel:
    """Online backpropagation over the training records.

    Requires min-max normalized inputs (every feature in [0, 1]) and both
    classes present. Records the mean squared error of each epoch, measured
    on the forward passes made during that epoch (before each update).
    Raises DataError when the weights diverge to a non-finite value.
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
    w, v, g, vg, step = net.w, net.v, net.g, net.vg, net.step
    # w_hidden row by row, then w_output row by row: the flat buffer's order
    for k in range(w.size):
        w[k] = stream.uniform() - 0.5
    xb = np.hstack([feats, np.ones((n, 1))])
    # one-hot targets: column 0 healthy, column 1 PD
    targets = np.zeros((n, 2))
    targets[np.arange(n), (train.labels == PD).astype(int)] = 1.0
    # each target a pair of Python floats, as the step's float part takes it
    rows, neg_rows, target_rows = list(xb[:, None, :]), list(-xb), targets.tolist()
    # row k holds the negated output error of an epoch's k-th step
    errs = np.empty((n, 2))
    err_rows = list(errs)
    sq = np.empty((n, 1, 1))
    scale = np.repeat([config.momentum, config.learning_rate], w.size)
    multiply, add = np.multiply, np.add
    epoch_mse = []
    order = list(range(n))
    # a saturated unit overflows exp harmlessly; a diverged fit is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            stream.shuffle(order)
            for i, nerr in zip(order, err_rows):
                step(neg_rows[i], rows[i], target_rows[i], nerr)
                # v = mom * v + lr * -g; w += v
                multiply(vg, scale, vg)
                add(v, g, v)
                add(w, v, w)
            # err @ err per step, each row the same dot product a 1-D err @ err runs
            np.matmul(errs[:, None, :], errs[:, :, None], sq)
            # the steps' 2 * (0.5 * err @ err) summed one after another, in step order
            epoch_mse.append(float(np.cumsum(2.0 * (0.5 * sq.ravel()))[-1]) / n)
    if not np.isfinite(w).all():
        raise DataError(f"MLP training diverged to non-finite weights; lower learning_rate "
                        f"({config.learning_rate}) or momentum ({config.momentum})")
    net.w1.setflags(write=False)
    net.w2.setflags(write=False)
    return MlpModel(net.w1, net.w2, config, seed, tuple(epoch_mse))


def mlp_score_batch(model: MlpModel, features) -> np.ndarray:
    """PD share of the output activations; inputs are clamped into [0, 1].

    Both layers run over blocks of BLOCK_ROWS rows from row 0, a one-row
    remainder joining the block before it, so no batch of two or more rows
    reaches the one-row product, whose bits differ. Up to 30 hidden units a
    block's rows get the bits of one product over the whole batch; from 31,
    OpenBLAS picks the output layer's kernel by the number of rows, so they
    get those of the block scored alone. At 8 hidden units a block's first
    product is about 115,000 multiply-adds, under the 262,144 above which
    OpenBLAS splits it across its pool, whose thread would keep a work
    buffer and spin on while the caller goes on in Python.
    """
    a = np.asarray(features, dtype=np.float64)
    n = len(a)
    starts = range(0, max(n - 1, 1), BLOCK_ROWS)
    shares = []
    with np.errstate(over="ignore"):  # a matmul or exp may overflow; 1 / (1 + inf) = 0
        for start, stop in zip(starts, [*starts[1:], n]):
            b = a[start:stop]
            for w in (model.w_hidden, model.w_output):
                # the layer's input and its bias 1.0 in one buffer, clamped in
                # place (into the strided columns numpy would take a buffer),
                # and dropped once its product exists
                x = np.empty((len(b), b.shape[1] + 1))
                x[:, :-1] = b
                x[:, -1] = 1.0
                np.clip(x, 0.0, 1.0, out=x)
                b = x @ w.T
                del x
                # 1 / (1 + exp(-z)) in place, on the contiguous product: the same bits
                np.negative(b, out=b)
                np.exp(b, out=b)
                np.add(1.0, b, out=b)
                np.divide(1.0, b, out=b)
            shares.append(b[:, 1] / b.sum(axis=1))
    return np.concatenate(shares)


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
    target = np.asarray(target, dtype=np.float64).tolist()
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
