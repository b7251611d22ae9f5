"""Random forest of fully grown binary decision trees.

Each tree trains on a bootstrap resample (same size as the training set,
drawn from the stream for (seed, "tree/<index>")) and considers a fresh
random draw of k features without replacement at every node. Candidate
thresholds lie between consecutive distinct sorted values; the split
maximizing information gain (entropy in bits) wins, with ties going to the
earliest drawn feature and then the lowest threshold. The threshold is the
midpoint of the two values lo < hi, or hi where the midpoint rounds to lo
(adjacent doubles), so records at lo and below go left and the rest right.

Split scores come from one table T[c] = c * log2(c), T[0] = 0, through
n * H(p / n) = T[n] - T[p] - T[n - p] for a side of n records, p of them
PD. A candidate's gain times the node's size is the node's own term, the
same for every candidate and left out, plus its score
T[pl] + T[nl - pl] + T[pr] + T[nr - pr] - T[nl] - T[nr], added left to
right, for nl and nr records with pl and pr PD on the left and right.
The table is built with math.log2, not numpy's log2, whose bits depend
on numpy's SIMD level; it has one entry per count up to the tree's record
count, and every tree of a forest has the same count, so a process builds
it once per forest.

A node scores its drawn features together: one sort of their values, one
running PD count, one score per candidate of every feature, and one argmax
over the candidates, listed in draw order, so the tie rules are those of
scoring the features one at a time. The order of equal values within the
sort reaches no candidate's counts. A node's PD count comes down from its
parent's running count, so a leaf costs no array work. Nodes stop at
purity, fewer than two records, or a winning split of zero gain. Entropy
is strictly concave, so the gain is zero exactly when the left side's PD
share is the node's, pl * n == p * nl, which is tested in integers: a float
gain can round above zero there. Leaves keep their class counts, and a
leaf votes PD where its PD count exceeds its healthy count.

Scoring sends the records down each tree node by node. A split node takes
its feature's values of the records it holds from a feature-major copy of
the matrix, made once per call, compares them with its threshold and hands
each child its share. The share of a healthy leaf is never built. The
shares that reach PD leaves are joined once per tree and add one vote per
record to the call's single vote array. A forest's score is the fraction
of trees voting PD.

A tree is saved as its node arrays in preorder, each one flat JSON list:
feature, threshold and the counts, two per node, row by row. Its children
are not saved: DecisionTree derives them from feature in one walk, which
refuses a column that is not one whole tree in preorder.

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
import functools
import math
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import N_FEATURES, PD, Dataset
from .errors import ConfigError, DataError
from .jsontext import json_array, json_typed, settings
from .rng import SplitMix64, derive_stream


@functools.lru_cache(maxsize=1)
def xlog2x_table(size: int) -> np.ndarray:
    """T[c] = c * log2(c) for c = 0, ..., size, with T[0] = 0, read-only."""
    table = np.array([0.0] + [c * math.log2(c) for c in range(1, size + 1)])
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """Flat preorder node arrays. feature[i] == -1 marks a leaf; split node i
    sends records with value < threshold to its left child, node i + 1, and
    the rest to its right child right[i], the node after its left subtree."""

    feature: np.ndarray
    threshold: np.ndarray
    counts: np.ndarray  # (n_nodes, 2) healthy / pd record counts
    right: np.ndarray = field(init=False)

    def __post_init__(self):
        """Derive right from feature in one preorder walk: each split node
        waits on a stack, and the node after a leaf is the right child of
        the split popped from it. Raises ValueError unless the walk ends
        exactly at the last node."""
        right = np.full(self.feature.size, -1, dtype=np.int64)
        waiting = []
        for node, f in enumerate(self.feature.tolist()):
            if f >= 0:
                waiting.append(node)
            elif waiting:
                right[waiting.pop()] = node + 1
            elif node == self.feature.size - 1:
                break
            else:
                raise ValueError(f"node {node + 1} comes after the tree's last leaf")
        else:
            raise ValueError(f"the tree's {self.feature.size} nodes end before its last leaf")
        object.__setattr__(self, "right", right)

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
        right = self.right.tolist()
        reached = []  # each PD leaf's records, n of them at most in all
        stack = [(0, np.arange(len(votes)))]
        while stack:
            node, rows = stack.pop()
            go_left = columns[feature[node]].take(rows) < threshold[node]
            for child, side in ((node + 1, go_left), (right[node], ~go_left)):
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
            "counts": self.counts.ravel().tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict, n_features: int) -> "DecisionTree":
        """Node arrays from a saved tree's columns. Raises ValueError unless
        the columns are lists of n nodes, counts holding each node's healthy
        and PD counts in turn; the counts are non-negative integers; each
        feature is -1 at a leaf or an integer below n_features at a split
        node; and feature is one whole tree of n > 0 nodes in preorder."""
        feature = json_array(obj["feature"], "the tree's feature column", dtype=np.int64)
        n = feature.size
        threshold = json_array(obj["threshold"], "the tree's threshold column", (n,))
        counts = json_array(obj["counts"], "the tree's counts column", (n, 2), np.int64)
        if (counts < 0).any():
            raise ValueError("every node's counts must be non-negative")
        bad = (feature < -1) | (feature >= n_features)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"node {i} has feature {feature[i]}; a leaf has feature -1, "
                             f"a split node a feature below {n_features}")
        return cls(feature, threshold, counts)


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
    T = xlog2x_table(len(y))
    feature, threshold, counts = [], [], []

    # explicit stack, nodes appended when visited: pushing the right work item
    # first makes the whole left subtree build before the right, so the flat
    # arrays come out in preorder. Each item carries its PD count.
    stack = [(np.arange(len(y)), int(is_pd.sum()))]
    while stack:
        idx, pd_count = stack.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
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
        if j.size == 0:
            continue
        pl = cum_pd[c, j]
        nl = j + 1
        pr = pd_count - pl
        nr = n - nl
        score = (T.take(pl) + T.take(nl - pl) + T.take(pr) + T.take(nr - pr)
                 - T.take(nl) - T.take(nr))
        # candidates run feature-major in draw order, thresholds ascending:
        # the first maximum is the earliest drawn feature's lowest threshold
        b = int(np.argmax(score))
        row, left_n, left_pd = c[b], int(nl[b]), int(pl[b])
        if left_pd * n == pd_count * left_n:  # zero gain
            continue
        lo, hi = float(sv[row, left_n - 1]), float(sv[row, left_n])
        thr = 0.5 * (lo + hi)
        if not lo < thr <= hi:  # the midpoint of adjacent doubles can round to lo
            thr = hi
        feature[node] = drawn[row]
        threshold[node] = thr
        # value < thr holds for exactly the first left_n records in sorted order
        ranked = idx.take(order[row])
        stack.append((ranked[left_n:], pd_count - left_pd))
        stack.append((ranked[:left_n], left_pd))
    return DecisionTree(np.array(feature, dtype=np.int64), np.array(threshold),
                        np.array(counts, dtype=np.int64))


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
        if n_features != N_FEATURES:
            raise ValueError(f"the forest reads {n_features} features, the CSV has {N_FEATURES}")
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
