"""Random forest of fully grown binary decision trees.

Each tree trains on a bootstrap resample (same size as the training set,
drawn from the stream for (seed, "tree/<index>")) and considers a fresh
random draw of k features without replacement at every node. Candidate
thresholds lie between consecutive distinct sorted values; the split
maximizing information gain (entropy in bits) wins, with ties going to the
earliest drawn feature and then the lowest threshold. The threshold is the
midpoint of the two values lo < hi, or hi where the midpoint rounds to lo
(adjacent doubles), so records at lo and below go left and the rest right.

A node scores its drawn features together: one sort of their values, one
running PD count, one entropy call over both sides of every candidate of
every feature and the node itself, and one argmax over the candidates,
listed in draw order, so the tie rules are those of scoring the features
one at a time. The order of equal values within the sort reaches no
candidate's counts. A node's PD count comes down from its parent's running
count, so a leaf costs no array work. Nodes stop at purity, fewer than two
records, or no positive gain. Leaves keep their class counts, and a leaf
votes PD where its PD count exceeds its healthy count.

Scoring sends the records down each tree node by node. A split node takes
its feature's values of the records it holds from a feature-major copy of
the matrix, made once per call, compares them with its threshold and hands
each child its share. The share of a healthy leaf is never built. The
shares that reach PD leaves are joined once per tree and add one vote per
record to the call's single vote array. A forest's score is the fraction
of trees voting PD.

A tree is saved as its node arrays, each one flat JSON list: feature,
threshold, left, right, and the counts, two per node, row by row.

Training and scoring split the trees into contiguous shares, one per usable
CPU: the first share runs in the calling process, each other one in a
forked child. The split keeps every bit. Tree t draws only from its own
stream (seed, "tree/<t>"), so it is the same tree in whichever process grows
it, and the trees are joined in index order. Each share counts its trees'
PD votes in its own vote array, and the arrays are summed: the votes are
whole numbers far below 2**53, so the sum is exact in any order.

A child runs only its share (tree_grow or add_pd_votes, neither of which
calls BLAS), pickles the result, or the exception it raised, into its own
unlinked file in TMPDIR and ends with os._exit, so it never returns into its
caller's frames. A file never fills, so no child waits on the parent, which
runs its own share, reaps every child, even when its own share raises, and
only then reads the files. It re-raises a child's exception, and raises
ChildProcessError for a child that ends with no result. One usable CPU, or
no os.fork, means no child at all; more need a writable TMPDIR.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .data import PD, Dataset
from .errors import ConfigError, DataError
from .jsontext import json_array, json_typed, settings
from .rng import SplitMix64, derive_stream


def _entropy(pd_count, n):
    """Binary entropy in bits of 1-d float64 count arrays, every n > 0.
    0 log 0 is 0. p and q = 1 - p share one buffer and one log2 call."""
    size = len(n)
    pq = np.empty(2 * size)
    np.divide(pd_count, n, out=pq[:size])
    np.subtract(1.0, pq[:size], out=pq[size:])
    positive = pq > 0
    terms = np.where(positive, -pq * np.log2(np.where(positive, pq, 1.0)), 0.0)
    return terms[:size] + terms[size:]


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Flat preorder node arrays. feature[i] == -1 marks a leaf; internal
    nodes route records with value < threshold to the left child."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # (n_nodes, 2) healthy / pd record counts

    def add_pd_votes(self, columns, votes) -> None:
        """Add 1.0 to votes[r] for every record r that reaches a PD leaf,
        where columns[f][r] is feature f of record r. A record reaches one
        leaf, so the tree's PD records are distinct and the votes stay whole
        numbers."""
        feature = self.feature.tolist()
        pd_leaf = (self.counts[:, 1] > self.counts[:, 0]).tolist()
        if feature[0] < 0:
            if pd_leaf[0]:
                votes += 1.0
            return
        threshold = self.threshold.tolist()
        left = self.left.tolist()
        right = self.right.tolist()
        reached = []  # each PD leaf's records, n of them at most in all
        stack = [(0, np.arange(len(votes)))]
        while stack:
            node, rows = stack.pop()
            go_left = columns[feature[node]].take(rows) < threshold[node]
            for child, side in ((left[node], go_left), (right[node], ~go_left)):
                if feature[child] >= 0:
                    stack.append((child, rows.compress(side)))
                elif pd_leaf[child]:
                    reached.append(rows.compress(side))
        if reached:
            votes[np.concatenate(reached)] += 1.0

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "counts": self.counts.ravel().tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict, n_features: int) -> "DecisionTree":
        """Node arrays from a saved tree's columns. Raises ValueError unless
        the columns are lists of n > 0 nodes, counts holding each node's
        healthy and PD counts in turn; the counts are non-negative integers;
        a leaf has feature -1 and children -1; and a split node's feature is
        an integer below n_features and its children integers after it and
        within the tree, so that every walk from the root reaches a leaf."""
        feature = json_array(obj["feature"], "the tree's feature column", dtype=np.int64)
        n = feature.size
        if n == 0:
            raise ValueError("a tree needs at least one node")
        threshold = json_array(obj["threshold"], "the tree's threshold column", (n,))
        left, right = (json_array(obj[key], f"the tree's {key} column", (n,), np.int64)
                       for key in ("left", "right"))
        counts = json_array(obj["counts"], "the tree's counts column", (n, 2), np.int64)
        if (counts < 0).any():
            raise ValueError("every node's counts must be non-negative")
        node = np.arange(n)
        leaf = (feature == -1) & (left == -1) & (right == -1)
        split = ((feature >= 0) & (feature < n_features)
                 & (node < left) & (left < n) & (node < right) & (right < n))
        bad = ~(leaf | split)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"node {i} has feature {feature[i]} and children {left[i]} and {right[i]}; "
                f"a leaf has feature and children -1, a split node a feature below "
                f"{n_features} and children between {i + 1} and {n - 1}")
        return cls(feature, threshold, left, right, counts)


def _draw_features(stream: SplitMix64, m: int, k: int) -> list:
    """k distinct feature indices via a partial Fisher-Yates draw."""
    pool = list(range(m))
    drawn = []
    for _ in range(min(k, m)):
        j = stream.below(len(pool))
        drawn.append(pool.pop(j))
    return drawn


def tree_grow(X, y, k: int, stream: SplitMix64) -> DecisionTree:
    """Grow one unpruned tree on (X, y) with k-feature draws per node."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    m = X.shape[1]
    # feature-major, so a node gathers its drawn features as contiguous rows
    XT = np.ascontiguousarray(X.T)
    is_pd = (y == PD).astype(np.int64)
    feature, threshold, left, right, counts = [], [], [], [], []

    # explicit stack, nodes appended when visited: pushing the right work item
    # first makes the whole left subtree build before the right, so the flat
    # arrays come out in preorder. Each item carries its PD count.
    stack = [(np.arange(len(y)), int(is_pd.sum()), -1, False)]
    while stack:
        idx, pd_count, parent, is_right = stack.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if parent >= 0:
            (right if is_right else left)[parent] = node
        n = len(idx)
        counts.append((n - pd_count, pd_count))
        if not 0 < pd_count < n:  # pure, which a node of one record is
            continue
        drawn = _draw_features(stream, m, k)
        # one (k, n) block: row r holds drawn feature r's values, sorted, with
        # the running PD count; candidate splits sit where a sorted value
        # changes, so the order of equal values does not matter
        block = XT.take(drawn, axis=0).take(idx, axis=1)
        order = np.argsort(block, axis=1)
        sv = block.ravel()[order + np.arange(0, block.size, n)[:, None]]
        cum_pd = np.cumsum(is_pd.take(idx).take(order), axis=1)
        c, j = np.nonzero(sv[:, 1:] != sv[:, :-1])
        nc = j.size
        if nc == 0:
            continue
        # one entropy call scores [left sides, right sides, parent]
        pd_side = np.empty(2 * nc + 1)
        n_side = np.empty(2 * nc + 1)
        pd_side[:nc] = cum_pd[c, j]
        np.subtract(pd_count, pd_side[:nc], out=pd_side[nc:-1])
        pd_side[-1] = pd_count
        np.add(j, 1, out=n_side[:nc])
        np.subtract(n, n_side[:nc], out=n_side[nc:-1])
        n_side[-1] = n
        ent = _entropy(pd_side, n_side)
        # every gain is formed elementwise exactly as for a single feature, so
        # the bits do not depend on how many features share the array
        gains = (ent[-1]
                 - (n_side[:nc] / n) * ent[:nc]
                 - (n_side[nc:-1] / n) * ent[nc:-1])
        # candidates run feature-major in draw order, thresholds ascending:
        # the first maximum is the earliest drawn feature's lowest threshold
        b = int(np.argmax(gains))
        if not gains[b] > 0.0:
            continue
        row, left_n = c[b], j[b] + 1
        lo, hi = float(sv[row, left_n - 1]), float(sv[row, left_n])
        thr = 0.5 * (lo + hi)
        if not lo < thr <= hi:  # the midpoint of adjacent doubles can round to lo
            thr = hi
        feature[node] = drawn[row]
        threshold[node] = thr
        # value < thr holds for exactly the first left_n records in sorted order
        ranked = idx.take(order[row])
        left_pd = int(cum_pd[row, left_n - 1])
        stack.append((ranked[left_n:], pd_count - left_pd, node, True))
        stack.append((ranked[:left_n], left_pd, node, False))
    return DecisionTree(
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(counts, dtype=np.int64),
    )


def default_feature_subset(m: int) -> int:
    return int(math.floor(math.log2(m) + 1))


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    # features drawn per node; None means floor(log2(m) + 1), and a value
    # above the feature count m draws every feature
    feature_subset: int | None = None
    bootstrap: bool = True

    def __post_init__(self):
        if self.trees < 1:
            raise ConfigError(f"a forest needs at least one tree, got {self.trees}")
        if self.feature_subset is not None and not self.feature_subset >= 1:
            raise ConfigError(
                f"feature_subset must be at least 1 or null, got {self.feature_subset}")


@dataclass(frozen=True, eq=False)
class ForestModel:
    trees: tuple
    config: ForestConfig
    seed: int
    n_features: int

    def to_json_dict(self) -> dict:
        return {
            "kind": "forest",
            **asdict(self.config),
            "trees": [t.to_json_dict() for t in self.trees],  # in place of their count
            "seed": self.seed,
            "n_features": self.n_features,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ForestModel":
        n_features = json_typed(int, obj["n_features"], "n_features")
        trees = tuple(DecisionTree.from_json_dict(t, n_features) for t in obj["trees"])
        return cls(trees, settings(ForestConfig, obj, trees=len(trees)),
                   json_typed(int, obj["seed"], "seed"), n_features)


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 where os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_work(fn, count: int) -> list:
    """[fn(share) for share in shares], where the shares cut range(count)
    into contiguous ranges, one per usable CPU and at most count. The first
    share runs here, each other one in a forked child."""
    workers = max(1, min(usable_cpus(), count))
    shares = [range(count * i // workers, count * (i + 1) // workers)
              for i in range(workers)]
    children = []  # (pid, the file its outcome goes to)
    with contextlib.ExitStack() as files:
        try:
            for share in shares[1:]:
                file = files.enter_context(tempfile.TemporaryFile())
                if (pid := os.fork()) == 0:
                    _run_child(fn, share, file)
                children.append((pid, file))
            results = [fn(shares[0])]
        finally:
            statuses = [os.waitpid(pid, 0)[1] for pid, _file in children]
        for (pid, file), status in zip(children, statuses):
            if status != 0:
                raise ChildProcessError(f"forest worker {pid} ended with status "
                                        f"{os.waitstatus_to_exitcode(status)} and no result")
            file.seek(0)
            ok, value = pickle.load(file)
            if not ok:
                raise value
            results.append(value)
    return results


def _run_child(fn, share, file) -> None:
    """In a forked child: pickle (True, fn(share)), or (False, its exception),
    into file, and end with status 0 only once all of it is written."""
    status = 1
    try:
        try:
            outcome = (True, fn(share))
        except BaseException as err:  # noqa: BLE001 - the parent re-raises it
            outcome = (False, err)
        pickle.dump(outcome, file, pickle.HIGHEST_PROTOCOL)
        file.flush()
        status = 0
    finally:
        os._exit(status)


def forest_train(train: Dataset, config: ForestConfig = ForestConfig(),
                 seed: int = 42) -> ForestModel:
    counts = train.class_counts()
    if counts[0] == 0 or counts[1] == 0:
        raise DataError("forest training needs both classes")
    X = train.features
    y = train.labels
    n, m = X.shape
    k = config.feature_subset if config.feature_subset is not None else default_feature_subset(m)

    def grow_trees(share):
        trees = []
        for t in share:
            stream = derive_stream(seed, f"tree/{t}")
            rows = stream.below_array(n, n) if config.bootstrap else slice(None)
            trees.append(tree_grow(X[rows], y[rows], k, stream))
        return trees

    shares = _split_work(grow_trees, config.trees)
    return ForestModel(tuple(tree for share in shares for tree in share), config, seed, m)


def forest_score_batch(model: ForestModel, features) -> np.ndarray:
    """Fraction of trees voting PD. A 0.5 tie is resolved to healthy by the
    caller's strict > 0.5 decision rule."""
    X = np.asarray(features, dtype=np.float64)
    columns = list(np.ascontiguousarray(X.T))

    def count_votes(share):
        votes = np.zeros(X.shape[0])
        for t in share:
            model.trees[t].add_pd_votes(columns, votes)
        return votes

    return sum(_split_work(count_votes, len(model.trees))) / len(model.trees)
