"""Discrete Bayes net: discretization, counting tables, family scores against
a factorial oracle, K2 structure search, posterior inference against
brute-force enumeration, and the end-to-end classifier."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from earlypd.bayesnet import (
    BayesNetConfig,
    DiscreteNet,
    DiscretizationMap,
    bn_score_batch,
    bn_train,
    cpt_estimate,
    discretize_fit,
    family_counts,
    family_log_score,
    k2_search,
)
from earlypd.data import FEATURE_NAMES
from earlypd.errors import ConfigError, DataError
from earlypd.metrics import roc

from conftest import make_dataset
from reference import joint_oracle


def _tally(data, node, parents, arities):
    """Independent per-config count table built with plain dict bookkeeping."""
    table = {}
    for row in data:
        key = tuple(int(row[p]) for p in parents)
        bucket = table.setdefault(key, [0] * arities[node])
        bucket[int(row[node])] += 1
    return table


def _score_oracle(table, arity):
    """Exact family score from factorials, returned as a float log."""
    product = Fraction(1)
    for counts in table.values():
        n_j = sum(counts)
        product *= Fraction(math.factorial(arity - 1),
                            math.factorial(n_j + arity - 1))
        for c in counts:
            product *= math.factorial(c)
    return math.log(product)


def test_discretize_equal_frequency_hand_example():
    values = np.array([[v] for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])
    ds = make_dataset(values, [0, 1] * 4)
    dmap = discretize_fit(ds, BayesNetConfig(bins=4))
    cuts = dmap.cuts[0]
    assert len(cuts) == 3
    assert list(dmap.node_matrix(ds.features)[:, 1]) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_discretize_unseen_values_clamp_to_edge_bins():
    ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
    dmap = discretize_fit(ds, BayesNetConfig(bins=2))
    lo, hi = dmap.node_matrix(np.array([[-100.0], [100.0]]))[:, 1]
    assert lo == 0
    assert hi == dmap.arities()[0] - 1


def test_discretize_constant_feature_single_bin():
    ds = make_dataset([[5.0], [5.0], [5.0]], [0, 1, 0])
    dmap = discretize_fit(ds, BayesNetConfig(bins=4))
    assert dmap.arities()[0] == 1
    assert dmap.node_matrix(np.array([[5.0]]))[0, 1] == 0


def test_discretize_zero_records():
    with pytest.raises(DataError, match="cannot fit discretization on zero records"):
        discretize_fit(make_dataset(np.empty((0, 1)), []), BayesNetConfig())


def test_discretization_map_json_round_trip():
    dmap = DiscretizationMap(((0.25, 0.5),) + ((),) * 11 + ((3.0,),))
    again = DiscretizationMap.from_json_dict(dmap.to_json_dict())
    assert again.cuts == dmap.cuts
    assert list(dmap.to_json_dict()) == list(FEATURE_NAMES)


def test_family_counts_hand_example():
    # arities (2, 2, 3); node 2 with parents (0, 1); the last parent varies
    # fastest, so config rows are ordered 00, 01, 10, 11
    data = np.array([
        [0, 0, 0],
        [0, 0, 2],
        [0, 1, 1],
        [1, 0, 1],
        [1, 1, 2],
        [1, 1, 2],
    ])
    counts = family_counts(data, 2, (0, 1), (2, 2, 3))
    expected = np.array([
        [1, 0, 1],  # parents (0, 0)
        [0, 1, 0],  # parents (0, 1)
        [0, 1, 0],  # parents (1, 0)
        [0, 0, 2],  # parents (1, 1)
    ])
    assert np.array_equal(counts, expected)
    # reversing the parent order permutes the rows to 00, 10, 01, 11
    swapped = family_counts(data, 2, (1, 0), (2, 2, 3))
    assert np.array_equal(swapped, expected[[0, 2, 1, 3]])


def test_family_counts_empty_data():
    counts = family_counts(np.zeros((0, 2), dtype=np.int64), 1, (0,), (2, 3))
    assert counts.shape == (2, 3)
    assert counts.sum() == 0
    assert family_log_score(np.zeros((0, 2), dtype=np.int64), 1, (0,), (2, 3)) == 0.0


def test_family_score_hand_value():
    # binary node, no parents, counts (2, 2): score = log(2! * 2! / 5!)
    data = np.array([[0], [0], [1], [1]])
    score = family_log_score(data, 0, (), (2,))
    assert score == pytest.approx(math.log(4 / 120), abs=1e-12)


def test_family_score_matches_factorial_oracle():
    rng = np.random.default_rng(551)
    for _ in range(20):
        arities = tuple(int(a) for a in rng.integers(2, 4, size=4))
        n = int(rng.integers(5, 60))
        data = np.column_stack([rng.integers(0, a, size=n) for a in arities])
        node = int(rng.integers(0, 4))
        others = [i for i in range(4) if i != node]
        k = int(rng.integers(0, 3))
        parents = tuple(sorted(rng.choice(others, size=k, replace=False)))
        table = _tally(data, node, parents, arities)
        expected = _score_oracle(table, arities[node])
        assert family_log_score(data, node, parents, arities) == pytest.approx(
            expected, abs=1e-10)


def test_cpt_hand_example():
    # counts (1, 3) with alpha = 0.5: (1.5/5, 3.5/5)
    data = np.array([[0], [1], [1], [1]])
    cpt = cpt_estimate(data, 0, (), (2,), alpha=0.5)
    assert cpt == pytest.approx(np.array([[0.3, 0.7]]), abs=1e-15)


def test_cpt_unseen_config_falls_back_to_uniform():
    # parent value 1 never appears; its row must be the prior
    data = np.array([[0, 0], [0, 1], [0, 1]])
    smoothed = cpt_estimate(data, 1, (0,), (2, 2), alpha=0.5)
    assert smoothed[1] == pytest.approx([0.5, 0.5], abs=1e-15)
    assert smoothed[0] == pytest.approx([1.5 / 4, 2.5 / 4], abs=1e-15)
    counts = family_counts(data, 1, (0,), (2, 2))
    assert counts[0] / counts[0].sum() == pytest.approx([1 / 3, 2 / 3], abs=1e-15)
    assert counts[1].sum() == 0
    # every row of a table is a distribution
    assert cpt_estimate(data, 1, (0,), (2, 2), 0.5).sum(axis=1) == pytest.approx([1, 1])


def test_k2_naive_start_keeps_class_parent():
    rng = np.random.default_rng(12)
    data = np.column_stack([rng.integers(0, 2, size=50) for _ in range(4)])
    parents = k2_search(data, (2, 2, 2, 2), max_parents=1, naive_start=True)
    assert parents[0] == ()
    assert all(p == (0,) for p in parents[1:])


def test_k2_finds_class_links_without_seeding():
    # features depend on the class and on nothing else; the search should
    # recover exactly the class edge for every feature on its own
    rng = np.random.default_rng(88)
    n = 2000
    cls = rng.integers(0, 2, size=n)
    cols = [cls]
    for flip in (0.15, 0.2, 0.25):
        noise = rng.random(n) < flip
        cols.append(np.where(noise, 1 - cls, cls))
    data = np.column_stack(cols)
    parents = k2_search(data, (2, 2, 2, 2), max_parents=2, naive_start=False)
    assert parents == ((), (0,), (0,), (0,))


def test_k2_adds_feature_parent_when_needed():
    # node 2 copies node 1 almost exactly, far beyond what the class explains
    rng = np.random.default_rng(99)
    n = 1500
    cls = rng.integers(0, 2, size=n)
    f1 = np.where(rng.random(n) < 0.3, 1 - cls, cls)
    f2 = np.where(rng.random(n) < 0.02, 1 - f1, f1)
    data = np.column_stack([cls, f1, f2])
    parents = k2_search(data, (2, 2, 2), max_parents=2, naive_start=True)
    assert 1 in parents[2]


def test_k2_independent_noise_stays_sparse():
    rng = np.random.default_rng(4)
    data = np.column_stack([rng.integers(0, 2, size=800) for _ in range(4)])
    parents = k2_search(data, (2, 2, 2, 2), max_parents=2, naive_start=False)
    assert parents == ((), (), (), ())


def test_posterior_hand_example():
    # P(C=1) = 0.6, P(X=1 | C=0) = 0.2, P(X=1 | C=1) = 0.9; observing X=1
    # gives P(C=1 | X=1) = 0.54 / (0.54 + 0.08) = 27/31
    net = DiscreteNet(
        arities=(2, 2),
        parents=((), (0,)),
        cpts=(np.array([[0.4, 0.6]]), np.array([[0.8, 0.2], [0.1, 0.9]])),
    )
    post = net.posterior([0, 1])
    assert post.shape == (2,)
    assert post[1] == pytest.approx(27 / 31, abs=1e-12)
    assert post.sum() == pytest.approx(1.0, abs=1e-12)
    # a matrix gives one posterior per row, and its class column is not written
    values = np.array([[1, 1], [0, 0]])
    both = net.posterior(values)
    assert both.shape == (2, 2)
    assert both[0] == pytest.approx(post, abs=1e-15)
    assert both[1, 1] == pytest.approx(0.06 / (0.06 + 0.32), abs=1e-12)
    assert values.tolist() == [[1, 1], [0, 0]]


def test_posterior_zero_everywhere_is_uniform():
    # the observed value has probability zero under both classes
    net = DiscreteNet(
        arities=(2, 2),
        parents=((), (0,)),
        cpts=(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0], [1.0, 0.0]])),
    )
    assert net.posterior([0, 1]) == pytest.approx([0.5, 0.5], abs=1e-15)


def _random_net(rng, arities, parents):
    cpts = []
    for node, a in enumerate(arities):
        rows = 1
        for p in parents[node]:
            rows *= arities[p]
        table = rng.random((rows, a)) + 0.05
        cpts.append(table / table.sum(axis=1, keepdims=True))
    return DiscreteNet(tuple(arities), tuple(parents), tuple(cpts))


def _subsets(items):
    out = []
    for k in range(len(items) + 1):
        out.extend(itertools.combinations(items, k))
    return out


def test_posterior_matches_enumeration_on_all_small_structures():
    rng = np.random.default_rng(2024)
    checked = 0
    for n_nodes, draws in ((3, 5), (4, 2)):
        arities = (2,) * n_nodes
        parent_choices = [_subsets(range(node)) for node in range(1, n_nodes)]
        for rest in itertools.product(*parent_choices):
            parents = ((),) + rest
            for _ in range(draws):
                net = _random_net(rng, arities, parents)
                for observed in itertools.product(*(range(2) for _ in range(n_nodes - 1))):
                    values = [0, *observed]
                    raw = np.array([joint_oracle(net, [c, *observed])
                                    for c in range(2)])
                    expected = raw / raw.sum()
                    assert net.posterior(values) == pytest.approx(expected, abs=1e-12)
                    checked += 1
    assert checked >= 500


def test_train_rejects_single_class():
    X = np.random.default_rng(3).random((8, 2))
    with pytest.raises(DataError, match="Bayes net training needs both classes"):
        bn_train(make_dataset(X, [1] * 8))


def test_trained_model_separates_cohort(small_split):
    train, test = small_split
    model = bn_train(train, BayesNetConfig(bins=6))
    scores = bn_score_batch(model, test.features)
    assert scores.shape == (len(test),)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert roc(test.labels, scores).auc > 0.85
    assert model.net.arities[0] == 2
    assert all(2 <= a <= 6 for a in model.net.arities[1:])


def test_batch_scores_match_scalar(small_split):
    # the trained 14-node net, each record's posterior enumerated from the
    # joint probability of both class values
    train, test = small_split
    model = bn_train(train, BayesNetConfig(bins=5))
    batch = bn_score_batch(model, test.features)
    expected = []
    for values in model.dmap.node_matrix(test.features).tolist():
        raw = [joint_oracle(model.net, [c, *values[1:]]) for c in (0, 1)]
        expected.append(raw[1] / sum(raw))
    assert len(model.net.arities) == 14
    assert batch == pytest.approx(expected, abs=1e-12)


def test_out_of_range_values_clamp(small_split):
    train, _ = small_split
    model = bn_train(train, BayesNetConfig(bins=5))
    low = np.full(train.features.shape[1], -1e9)
    high = np.full(train.features.shape[1], 1e9)
    scores = bn_score_batch(model, np.array([low, high, high * 1000]))
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert scores[1] == scores[2]


def test_config_rejects_a_single_bin():
    with pytest.raises(ConfigError, match="bins must be >= 2, got 1"):
        BayesNetConfig(bins=1)
