"""Discrete Bayes net classifier: K2 structure search plus smoothed CPTs.

Node 0 is the class, followed by the 13 features in schema order, which fixes
the K2 topological ordering. The search starts from a naive-Bayes structure
(class as parent of every feature, when max_parents allows one) and greedily
adds the predecessor giving the largest score improvement until nothing
improves or max_parents is reached. Families are scored with the
Cooper-Herskovits log marginal likelihood, evaluated through log-gamma.

CPT cells use Laplace-style smoothing: P = (N_jk + alpha) / (N_j + alpha * r)
with alpha = 0.5 by default, so every probability is strictly positive and
unseen parent configurations fall back to the uniform prior.

Features enter as bins: per-feature cut points fitted on the training records
by discretize_fit and kept in the model file.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import FEATURE_NAMES, N_FEATURES, PD, Dataset
from .errors import ConfigError, DataError
from .jsontext import json_array, settings

CLASS_NODE = 0


@dataclass(frozen=True)
class DiscretizationMap:
    """Per-feature ascending cut points. Empty tuple means a single bin.

    A value lands in bin ``searchsorted(cuts, value, side="right")``, i.e.
    values below the first cut go to bin 0 and a value equal to a cut goes to
    the upper bin. Values beyond the training range therefore clamp to the
    first or last bin on their own.
    """

    cuts: tuple

    def arities(self) -> tuple:
        return tuple(len(c) + 1 for c in self.cuts)

    def node_matrix(self, features: np.ndarray, classes=0) -> np.ndarray:
        """(n, 1 + features) int matrix of the net's node values: classes in
        column 0, then each feature's bin, searched straight into its column."""
        out = np.empty((features.shape[0], len(self.cuts) + 1), dtype=np.int64)
        out[:, CLASS_NODE] = classes
        for j, cuts in enumerate(self.cuts):
            out[:, j + 1] = np.searchsorted(np.asarray(cuts), features[:, j], side="right")
        return out

    def to_json_dict(self) -> dict:
        return {name: {"cuts": [float(v) for v in c]} for name, c in zip(FEATURE_NAMES, self.cuts)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DiscretizationMap":
        """Raises ValueError unless obj holds the cuts of exactly the
        FEATURE_NAMES, each list finite numbers in strictly ascending order."""
        if len(obj) != N_FEATURES:
            raise ValueError(f"the discretization has {len(obj)} features, the CSV {N_FEATURES}")
        cuts = tuple(json_array(obj[n]["cuts"], f"the cuts of {n}").tolist()
                     for n in FEATURE_NAMES)
        for name, c in zip(FEATURE_NAMES, cuts):
            if not all(a < b for a, b in zip(c, c[1:])):
                raise ValueError(f"the cuts of {name} must ascend strictly, got {c}")
        return cls(tuple(map(tuple, cuts)))


def discretize_fit(ds: Dataset, config: BayesNetConfig) -> DiscretizationMap:
    """Fit per-feature cut points of config.bins bins on the given records.

    Cuts sit at the empirical quantiles k / bins (linear interpolation).
    Duplicate cuts and cuts outside the open value range are dropped, so the
    effective bin count can shrink; a constant column keeps no cuts at all.
    """
    if len(ds) == 0:
        raise DataError("cannot fit discretization on zero records")
    try:
        steps = np.arange(1, config.bins)
    except (ValueError, MemoryError) as err:
        raise ConfigError(f"bins {config.bins} is too large to allocate the cuts: {err}") from None
    all_cuts = []
    for j in range(ds.features.shape[1]):
        col = ds.features[:, j]
        lo, hi = float(col.min()), float(col.max())
        kept = []
        for c in map(float, np.quantile(col, steps / config.bins)):
            if lo < c < hi and (not kept or c > kept[-1]):
                kept.append(c)
        all_cuts.append(tuple(kept))
    return DiscretizationMap(tuple(all_cuts))


def _config_codes(data: np.ndarray, parents, arities) -> np.ndarray:
    """Mixed-radix code of each row's parent configuration.

    Parents are taken in the given order; the last parent varies fastest.
    """
    codes = np.zeros(data.shape[0], dtype=np.int64)
    for p in parents:
        codes = codes * arities[p] + data[:, p]
    return codes


def _n_configs(parents, arities) -> int:
    return math.prod(arities[p] for p in parents)


def family_counts(data: np.ndarray, node: int, parents, arities) -> np.ndarray:
    """(n_parent_configs, node_arity) table of joint counts."""
    r = arities[node]
    rows = _n_configs(parents, arities)
    codes = _config_codes(data, parents, arities) * r + data[:, node]
    return np.bincount(codes, minlength=rows * r).reshape(rows, r)


def family_log_score(data: np.ndarray, node: int, parents, arities) -> float:
    """Cooper-Herskovits log marginal likelihood of one family.

    For each parent configuration j with row total N_j and per-value counts
    N_jk: log[(r-1)! / (N_j + r - 1)!] + sum_k log(N_jk!), summed over j.
    Configurations absent from the data contribute zero; an empty dataset
    scores zero.
    """
    counts = family_counts(data, node, parents, arities)
    r = arities[node]
    score = 0.0
    for row in counts:
        n_j = int(row.sum())
        if n_j == 0:
            continue
        score += math.lgamma(r) - math.lgamma(n_j + r)
        for n_jk in row:
            if n_jk:
                score += math.lgamma(n_jk + 1)
    return score


def k2_search(data: np.ndarray, arities, max_parents: int,
              naive_start: bool = True) -> tuple:
    """Greedy parent selection per node in ordering index order.

    Returns a tuple of sorted parent tuples. Feature nodes start with the
    class as a fixed parent when naive_start is set and max_parents >= 1;
    candidate additions are all earlier nodes, ties broken toward the lowest
    node index, and only strictly positive score gains are accepted.
    """
    n_nodes = len(arities)
    all_parents = []
    for node in range(n_nodes):
        if node == CLASS_NODE:
            all_parents.append(())
            continue
        parents = [CLASS_NODE] if (naive_start and max_parents >= 1) else []
        score = family_log_score(data, node, parents, arities)
        while len(parents) < max_parents:
            best_gain, best_candidate, best_score = 0.0, None, None
            for candidate in range(node):
                if candidate in parents:
                    continue
                trial = sorted(parents + [candidate])
                trial_score = family_log_score(data, node, trial, arities)
                gain = trial_score - score
                if gain > best_gain:
                    best_gain, best_candidate, best_score = gain, candidate, trial_score
            if best_candidate is None:
                break
            parents = sorted(parents + [best_candidate])
            score = best_score
        all_parents.append(tuple(parents))
    return tuple(all_parents)


def cpt_estimate(data: np.ndarray, node: int, parents, arities, alpha: float) -> np.ndarray:
    """Smoothed conditional probability table, one row per parent config.

    alpha must be > 0, which BayesNetConfig enforces."""
    counts = family_counts(data, node, parents, arities).astype(np.float64)
    totals = counts.sum(axis=1, keepdims=True)
    return (counts + alpha) / (totals + alpha * arities[node])


@dataclass(frozen=True, eq=False)
class DiscreteNet:
    """Structure plus CPTs over nodes 0..n-1 (node 0 is the query node)."""

    arities: tuple
    parents: tuple
    cpts: tuple

    def posterior(self, values) -> np.ndarray:
        """P(node 0 | all other nodes) from the factored joint.

        values is one row of node values or an (n, nodes) matrix; column 0 is
        ignored and the input is not modified. Returns (arity,) or
        (n, arity) to match, normalized over node 0's arity. A row whose
        every branch has zero probability gets the uniform posterior.
        """
        values = np.array(values, dtype=np.int64)  # a copy: column 0 is overwritten
        post = self.posterior_in_place(np.atleast_2d(values))
        return post[0] if values.ndim == 1 else post

    def posterior_in_place(self, values: np.ndarray) -> np.ndarray:
        """The posterior of an (n, nodes) int64 matrix that the caller hands over:
        its column 0 is overwritten, so no copy is made."""
        logs = np.zeros((values.shape[0], self.arities[CLASS_NODE]))
        for c in range(self.arities[CLASS_NODE]):
            values[:, CLASS_NODE] = c
            for node, cpt in enumerate(self.cpts):
                rows = _config_codes(values, self.parents[node], self.arities)
                with np.errstate(divide="ignore"):
                    logs[:, c] += np.log(cpt[rows, values[:, node]])
        peak = logs.max(axis=1, keepdims=True)
        all_zero = np.isneginf(peak[:, 0])
        with np.errstate(invalid="ignore"):
            weights = np.exp(logs - np.where(all_zero[:, None], 0.0, peak))
        weights[all_zero] = 1.0
        return weights / weights.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class BayesNetConfig:
    bins: int = 10
    max_parents: int = 2
    alpha: float = 0.5

    def __post_init__(self):
        # "not x >= bound" also rejects NaN
        if not self.bins >= 2:
            raise ConfigError(f"bins must be >= 2, got {self.bins}")
        if not self.max_parents >= 0:
            raise ConfigError(f"max_parents must be >= 0, got {self.max_parents}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class BayesNetModel:
    net: DiscreteNet
    dmap: DiscretizationMap
    config: BayesNetConfig

    def to_json_dict(self) -> dict:
        return {
            "kind": "bayesnet",
            **asdict(self.config),
            "parents": [list(p) for p in self.net.parents],
            "cpts": [[float(v) for v in cpt.ravel()] for cpt in self.net.cpts],
            "schema": list(FEATURE_NAMES),
            "discretization": self.dmap.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BayesNetModel":
        """Raises ValueError unless each node's parents are distinct earlier
        nodes in ascending order and its CPT holds a row of probabilities per
        parent configuration, of the arities the class and the cuts give, and
        unless its schema lists the 13 CSV features in order."""
        if obj["schema"] != list(FEATURE_NAMES):
            raise ValueError(f"the schema {obj['schema']} is not the CSV's features in order")
        dmap = DiscretizationMap.from_json_dict(obj["discretization"])
        arities = (2,) + dmap.arities()
        parents = tuple(tuple(p) for p in obj["parents"])
        if len(parents) != len(arities) or len(obj["cpts"]) != len(arities):
            raise ValueError(f"a net of {len(arities)} nodes needs {len(arities)} parent "
                             f"lists and CPTs, got {len(parents)} and {len(obj['cpts'])}")
        cpts = []
        for node, (pa, flat) in enumerate(zip(parents, obj["cpts"])):
            if not (all(type(p) is int for p in pa)
                    and list(pa) == [p for p in range(node) if p in pa]):
                raise ValueError(f"node {node} has parents {list(pa)}; they must be "
                                 f"distinct earlier nodes in ascending order")
            cpt = json_array(flat, f"node {node}'s CPT", (_n_configs(pa, arities), arities[node]))
            if not ((cpt >= 0) & (cpt <= 1)).all():
                raise ValueError(f"node {node}'s CPT must hold probabilities in [0, 1]")
            cpts.append(cpt)
        return cls(DiscreteNet(arities, parents, tuple(cpts)), dmap,
                   settings(BayesNetConfig, obj))


def bn_train(train: Dataset, config: BayesNetConfig = BayesNetConfig()) -> BayesNetModel:
    counts = train.class_counts()
    if counts[0] == 0 or counts[1] == 0:
        raise DataError("Bayes net training needs both classes")
    dmap = discretize_fit(train, config)
    data = dmap.node_matrix(train.features, train.labels == PD)
    arities = (2,) + dmap.arities()
    parents = k2_search(data, arities, config.max_parents)
    cpts = tuple(cpt_estimate(data, node, parents[node], arities, config.alpha)
                 for node in range(len(arities)))
    return BayesNetModel(DiscreteNet(arities, parents, cpts), dmap, config)


def bn_score_batch(model: BayesNetModel, features) -> np.ndarray:
    """Posterior probability of PD for each record, given all its feature bins.

    Out-of-range values clamp to the first or last bin through the
    discretization map's searchsorted rule.
    """
    values = model.dmap.node_matrix(np.asarray(features, dtype=np.float64))
    return model.net.posterior_in_place(values)[:, 1]
