"""Split-score math, tree induction, forest ensemble behavior, and the split of
the trees over processes."""

import hashlib
import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import earlypd.forest
from earlypd.cli import main
from earlypd.data import HEALTHY, PD
from earlypd.errors import DataError
from earlypd.forest import (
    DecisionTree,
    ForestConfig,
    ForestModel,
    _split_work,
    default_feature_subset,
    forest_score_batch,
    forest_train,
    tree_grow,
    xlog2x_table,
)
from earlypd.jsontext import json_text
from earlypd.pipeline import save_model_file, train_models
from earlypd.rng import SplitMix64

from conftest import make_dataset
from test_golden import GOLDEN
from reference import (
    entropy,
    info_gain,
    levelwise_predict_batch,
    reference_tree_grow,
    tree_predict,
    tree_predict_batch,
    xlog2x,
)

# 1.0 and the next three doubles above it: the midpoint of two neighbours
# rounds to the lower one or to the upper one, alternately
ONE_AND_NEIGHBOURS = [1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51, 1.0 + 3 * 2.0 ** -52]


def test_info_gain_hand_values():
    # parent (2,2): entropy 1 bit; perfect split removes all of it
    assert info_gain((2, 2), (2, 0), (0, 2)) == pytest.approx(1.0)
    # parent (3,1): H = 0.811278...; children (2,0) pure and (1,1) at 1 bit
    h31 = -(3 / 4) * math.log2(3 / 4) - (1 / 4) * math.log2(1 / 4)
    want = h31 - 0.5 * 0.0 - 0.5 * 1.0
    assert info_gain((3, 1), (2, 0), (1, 1)) == pytest.approx(want)
    assert h31 == pytest.approx(0.8112781244591328)


def test_info_gain_no_split_is_zero():
    assert info_gain((3, 5), (3, 5), (0, 0)) == pytest.approx(0.0)


def test_info_gain_inconsistent_counts():
    with pytest.raises(ValueError, match="do not sum"):
        info_gain((1, 1), (2, 0), (0, 2))


def test_xlog2x_table_gives_every_side_entropy():
    # every (pd, n) a node or candidate side can have in a tree of up to
    # 2,100 records: T is c * log2(c) bit for bit, and (T[n] - T[pd] -
    # T[n - pd]) / n is the side's entropy
    T = xlog2x_table(2100)
    assert not T.flags.writeable
    assert np.array_equal(T.view(np.uint64), np.array(xlog2x(2100)).view(np.uint64))
    n = np.repeat(np.arange(1, 2101), np.arange(2, 2102))
    pd = np.concatenate([np.arange(size + 1) for size in range(1, 2101)])
    assert np.abs((T[n] - T[pd] - T[n - pd]) / n - entropy(pd, n)).max() <= 1e-12


def test_tree_grow_one_dimensional_midpoint():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    tree = tree_grow(X, y, k=1, stream=SplitMix64(1))
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5  # midpoint between the two values
    assert list(tree_predict_batch(tree, [[0.2], [0.8]])) == [0, 1]


def test_root_split_has_the_largest_info_gain():
    # with every feature drawn (k = m), the root's split must reach the best
    # gain over every feature and every midpoint between distinct values
    rng = np.random.default_rng(31)
    for case in range(20):
        n = int(rng.integers(6, 40))
        m = int(rng.integers(1, 5))
        X = rng.integers(0, 6, size=(n, m)).astype(np.float64)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        parent = (int(np.sum(y == 0)), int(np.sum(y == 1)))

        def gain(f, thr):
            go_left = X[:, f] < thr
            left = (int(np.sum(y[go_left] == 0)), int(np.sum(y[go_left] == 1)))
            return info_gain(parent, left, (parent[0] - left[0], parent[1] - left[1]))

        best = 0.0
        for f in range(m):
            values = np.unique(X[:, f])
            for thr in (values[1:] + values[:-1]) / 2:
                best = max(best, gain(f, thr))
        tree = tree_grow(X, y, k=m, stream=SplitMix64(case))
        if tree.feature[0] < 0:
            assert best <= 0.0
        else:
            assert gain(tree.feature[0], tree.threshold[0]) == pytest.approx(best, abs=1e-12)


def _ties_everywhere(rng):
    # integer features with 2-4 distinct values: most sorted neighbours are
    # equal, and a repeated column ties with its copy at every threshold
    n = 120
    X = np.column_stack([rng.integers(0, v, n) for v in (2, 3, 4, 2, 3, 4)])
    X = np.column_stack([X, X[:, 1], X[:, 2]])
    return X.astype(np.float64), rng.integers(0, 2, n), 4


def _constant_column(rng):
    X = rng.random((60, 4))
    X[:, 1] = 0.25
    return X, rng.integers(0, 2, 60), 2


def _mixed_leaves(rng):
    # each row appears three times, labelled healthy, PD and at random, so no
    # leaf can be pure while the PD share still differs between rows
    X = rng.integers(0, 4, size=(40, 3)).astype(np.float64)
    y = np.concatenate([np.zeros(40, dtype=np.int64), np.ones(40, dtype=np.int64),
                        rng.integers(0, 2, 40)])
    return np.vstack([X, X, X]), y, 2


def _adjacent_doubles(rng):
    X = rng.choice(ONE_AND_NEIGHBOURS + [0.5, 2.0], size=(60, 3))
    return X, rng.integers(0, 2, 60), 2


TREE_CASES = {
    "k=1": lambda rng: (rng.random((80, 5)), rng.integers(0, 2, 80), 1),
    "k=default": lambda rng: (rng.random((150, 13)), rng.integers(0, 2, 150),
                              default_feature_subset(13)),
    "k=m": lambda rng: (rng.random((80, 5)), rng.integers(0, 2, 80), 5),
    "k>m": lambda rng: (rng.random((80, 5)), rng.integers(0, 2, 80), 9),
    "ties": _ties_everywhere,
    "constant column": _constant_column,
    "n=2": lambda rng: (rng.random((2, 3)), np.array([0, 1]), 3),
    "pure leaves": lambda rng: (rng.random((200, 6)), rng.integers(0, 2, 200), 3),
    "mixed leaves": _mixed_leaves,
    "adjacent doubles": _adjacent_doubles,
}


def _assert_grows_reference_tree(X, y, k, seed):
    """tree_grow and reference_tree_grow give the same tree bit for bit, and
    leave the stream in the same state; returns the tree. The reference's
    recorded children show the preorder the saved trees rely on: each split
    node's left child is the next node, and the right child the tree derives
    from its feature column is the one recorded."""
    got_stream, want_stream = SplitMix64(seed), SplitMix64(seed)
    got = tree_grow(X, y, k, got_stream)
    want, left, right = reference_tree_grow(X, y, k, want_stream)
    assert np.array_equal(got.feature, want.feature)
    assert np.array_equal(got.threshold.view(np.uint64), want.threshold.view(np.uint64))
    assert all(left[i] == i + 1 for i in np.flatnonzero(want.feature >= 0))
    assert got.right.tolist() == right
    assert np.array_equal(got.counts, want.counts)
    assert got_stream._state == want_stream._state
    return got


@pytest.mark.parametrize("case", TREE_CASES)
def test_tree_grow_matches_reference(case):
    # the one-pass split search must grow the per-feature search's tree bit
    # for bit, and leave the stream where it leaves it
    for seed in range(4):
        X, y, k = TREE_CASES[case](np.random.default_rng(seed))
        got = _assert_grows_reference_tree(X, y, k, seed)
        assert len(got.feature) > 1
        leaf_minority = got.counts[got.feature < 0].min(axis=1)
        if case == "pure leaves":
            assert (leaf_minority == 0).all()
        if case == "mixed leaves":
            assert (leaf_minority > 0).all()


@st.composite
def _small_trees(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    # few distinct values, so ties and repeats are common; -0.0 equals 0.0
    pool = st.sampled_from(ONE_AND_NEIGHBOURS + [-1.0, -0.0, 0.0, 0.25])
    X = draw(arrays(np.float64, (n, m), elements=pool))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return X, y, draw(st.integers(1, m + 2)), draw(st.integers(0, 2 ** 32))


@given(_small_trees())
@settings(max_examples=200, deadline=None)
def test_tree_grow_matches_reference_on_small_matrices(case):
    _assert_grows_reference_tree(*case)


# (left PD, left size, right PD, right size): both sides keep the node's PD
# share, so the split has zero gain, though a float gain (the first) or a
# table score compared with 0 (all three) rounds above it
ZERO_GAIN_SPLITS = {
    "6: 1/2 | 2/4": (1, 2, 2, 4),
    "9: 1/3 | 2/6": (1, 3, 2, 6),
    "10: 2/5 | 2/5": (2, 5, 2, 5),
}


@pytest.mark.parametrize("case", ZERO_GAIN_SPLITS)
def test_zero_gain_split_leaves_a_leaf(case):
    pl, nl, pr, nr = ZERO_GAIN_SPLITS[case]
    X = np.array([[0.0]] * nl + [[1.0]] * nr)
    y = np.array([PD] * pl + [HEALTHY] * (nl - pl) + [PD] * pr + [HEALTHY] * (nr - pr))
    tree = _assert_grows_reference_tree(X, y, 1, 0)
    assert tree.counts.tolist() == [[nl - pl + nr - pr, pl + pr]]


def test_tree_grow_splits_adjacent_doubles():
    # the midpoint of 1.0 and the next double is 1.0 itself; as a threshold
    # it would send every record right and grow the same node forever
    hi = np.nextafter(1.0, 2.0)
    assert 0.5 * (1.0 + hi) == 1.0
    tree = tree_grow(np.array([[1.0], [1.0], [hi], [hi]]), np.array([0, 0, 1, 1]),
                     k=1, stream=SplitMix64(0))
    assert len(tree.feature) == 3
    assert tree.counts.tolist() == [[2, 2], [2, 0], [0, 2]]
    assert tree.threshold[0] == hi


def test_tree_fits_training_data_exactly():
    rng = np.random.default_rng(0)
    X = rng.random((60, 5))
    y = rng.integers(0, 2, 60)
    tree = tree_grow(X, y, k=5, stream=SplitMix64(3))
    assert list(tree_predict_batch(tree, X)) == list(y)


def test_tree_leaf_tie_predicts_healthy():
    leaf = DecisionTree(feature=np.array([-1]), threshold=np.zeros(1),
                        counts=np.array([[3, 3]]))
    assert list(tree_predict_batch(leaf, [[0.0], [1.0]])) == [0, 0]


def test_tree_serialization_round_trip():
    rng = np.random.default_rng(5)
    X = rng.random((40, 4))
    y = rng.integers(0, 2, 40)
    tree = tree_grow(X, y, k=4, stream=SplitMix64(9))
    again = DecisionTree.from_json_dict(json.loads(json_text(tree.to_json_dict())), 4)
    for key in ("feature", "threshold", "right", "counts"):
        before, after = getattr(tree, key), getattr(again, key)
        assert (after.dtype, after.shape, after.tobytes()) == \
            (before.dtype, before.shape, before.tobytes()), key


# feature column -> the right children a tree derives from it, or None for a
# column that is not one whole tree in preorder
PREORDER_SHAPES = {
    "one leaf": ([-1], [-1]),
    "left-leaning": ([0, 1, -1, -1, -1], [4, 3, -1, -1, -1]),
    "right-leaning": ([0, -1, 1, -1, -1], [2, -1, 4, -1, -1]),
    "no nodes": ([], None),
    "split without a right child": ([0, -1], None),
    "split as the last node": ([0, -1, 1], None),
    "leaf after the last leaf": ([0, -1, -1, -1], None),
}


def test_tree_arrays_are_preorder():
    for shape, (feature, right) in PREORDER_SHAPES.items():
        arrays = (np.array(feature, dtype=np.int64), np.zeros(len(feature)),
                  np.zeros((len(feature), 2), dtype=np.int64))
        if right is None:
            with pytest.raises(ValueError, match="last leaf"):
                DecisionTree(*arrays)
        else:
            assert DecisionTree(*arrays).right.tolist() == right, shape


def test_predict_batch_matches_scalar():
    rng = np.random.default_rng(7)
    X = rng.random((30, 4))
    y = rng.integers(0, 2, 30)
    tree = tree_grow(X, y, k=4, stream=SplitMix64(11))
    probe = rng.random((100, 4))
    assert list(tree_predict_batch(tree, probe)) == [tree_predict(tree, row) for row in probe]


def _levelwise_forest_score(trees, X):
    votes = np.zeros(np.shape(X)[0])
    for tree in trees:
        votes += levelwise_predict_batch(tree, X) == PD
    return votes / len(trees)


@st.composite
def _forests_and_probes(draw):
    m = draw(st.integers(1, 4))
    # the pool's neighbouring doubles make thresholds equal to pool values,
    # so probes fall exactly on them
    pool = st.sampled_from(ONE_AND_NEIGHBOURS + [-0.0, 0.0, 0.25])
    trees = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 30))
        X = draw(arrays(np.float64, (n, m), elements=pool))
        y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
        stream = SplitMix64(draw(st.integers(0, 2 ** 32)))
        trees.append(tree_grow(X, y, draw(st.integers(1, m)), stream))
    probes = draw(arrays(np.float64, (draw(st.integers(0, 40)), m), elements=pool))
    return trees, probes


@given(_forests_and_probes())
@settings(max_examples=200, deadline=None)
def test_forest_scores_match_levelwise_reference(case):
    trees, probes = case
    for tree in trees:
        assert np.array_equal(tree_predict_batch(tree, probes),
                              levelwise_predict_batch(tree, probes))
    model = ForestModel(tuple(trees), ForestConfig(len(trees)), 0, probes.shape[1])
    got = forest_score_batch(model, probes)
    assert np.array_equal(got.view(np.uint64),
                          _levelwise_forest_score(trees, probes).view(np.uint64))


def test_root_leaf_trees_vote_their_majority():
    def leaf(counts):
        return DecisionTree(np.array([-1]), np.zeros(1), np.array([counts]))

    trees = (leaf([1, 3]), leaf([2, 0]), leaf([1, 3]))
    model = ForestModel(trees, ForestConfig(3), 0, 2)
    probes = np.array([[0.0, 1.0], [5.0, -1.0]])
    assert forest_score_batch(model, probes).tolist() == [2 / 3, 2 / 3]
    assert np.array_equal(forest_score_batch(model, probes),
                          _levelwise_forest_score(trees, probes))
    assert forest_score_batch(model, np.empty((0, 2))).shape == (0,)


def test_default_feature_subset_formula():
    assert default_feature_subset(13) == 4  # floor(log2(13) + 1)
    assert default_feature_subset(1) == 1
    assert default_feature_subset(32) == 6


def test_forest_without_bootstrap_single_tree_equals_plain_tree():
    rng = np.random.default_rng(8)
    X = rng.random((50, 6))
    y = rng.integers(0, 2, 50)
    ds = make_dataset(X, y)
    cfg = ForestConfig(trees=1, feature_subset=6, bootstrap=False)
    model = forest_train(ds, cfg, seed=21)
    from earlypd.rng import derive_stream
    plain = tree_grow(X, y, k=6, stream=derive_stream(21, "tree/0"))
    probe = rng.random((200, 6))
    assert np.array_equal(tree_predict_batch(model.trees[0], probe),
                          tree_predict_batch(plain, probe))


def test_forest_training_is_deterministic(small_split):
    train, _ = small_split
    cfg = ForestConfig(trees=5)
    a = forest_train(train, cfg, seed=3)
    b = forest_train(train, cfg, seed=3)
    assert a.to_json_dict() == b.to_json_dict()
    c = forest_train(train, cfg, seed=4)
    assert a.to_json_dict() != c.to_json_dict()


def test_forest_score_is_vote_fraction(small_split):
    train, test = small_split
    model = forest_train(train, ForestConfig(trees=9), seed=2)
    x = test.features[0]
    votes = sum(tree_predict(tree, x) for tree in model.trees)
    batch = forest_score_batch(model, test.features)
    assert batch[0] == pytest.approx(votes / 9)
    assert np.all((batch >= 0) & (batch <= 1))


def test_forest_beats_chance(small_split):
    train, test = small_split
    model = forest_train(train, ForestConfig(trees=25), seed=6)
    scores = forest_score_batch(model, test.features)
    acc = np.mean((scores > 0.5).astype(int) == test.labels)
    assert acc >= 0.85


def test_forest_single_class_raises():
    ds = make_dataset([[0.1], [0.6]], [1, 1])
    with pytest.raises(DataError, match="forest training needs both classes"):
        forest_train(ds, ForestConfig(trees=1))



# --- the trees split over processes -------------------------------------------
# conftest's autouse no_child_left fixture checks after each of these tests
# that every forked worker was reaped.


def _set_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(earlypd.forest, "usable_cpus", lambda: n)


def test_split_work_shares_are_contiguous_and_in_order(monkeypatch):
    _set_cpus(monkeypatch, 3)
    assert _split_work(list, 7) == [[0, 1], [2, 3], [4, 5, 6]]
    assert _split_work(list, 2) == [[0], [1]]  # no more workers than items
    assert _split_work(list, 0) == [[]]


def test_split_work_reads_results_larger_than_a_pipe_buffer(monkeypatch):
    _set_cpus(monkeypatch, 2)
    first, second = _split_work(lambda share: np.full(50_000, float(share.start)), 4)
    assert (first == 0.0).all() and (second == 2.0).all()


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_saved_forest_is_the_same_for_any_cpu_count(cpus, default_run, tmp_path,
                                                    monkeypatch):
    _set_cpus(monkeypatch, cpus)
    config = replace(default_run.config, models=("forest",))
    path = tmp_path / "forest.json"
    save_model_file(train_models(config, default_run.train)["forest"], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN["models/forest.json"]


def test_one_tree_forest_on_two_cpus_is_the_serial_one(small_split, monkeypatch):
    train, _test = small_split
    saved = []
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        saved.append(json_text(forest_train(train, ForestConfig(trees=1), seed=7)
                               .to_json_dict()))
    assert saved[0] == saved[1]


@pytest.mark.parametrize("records", [0, 1, 300])
def test_forest_scores_keep_their_bits_for_any_cpu_count(records, default_run,
                                                         monkeypatch):
    model = default_run.models["forest"]
    features = default_run.dataset.features[:records]
    scores = []
    for cpus in (1, 2, 3):
        _set_cpus(monkeypatch, cpus)
        scores.append(forest_score_batch(model, features).view(np.uint64))
    assert scores[0].shape == (records,)
    assert np.array_equal(scores[0], scores[1]) and np.array_equal(scores[0], scores[2])


def test_error_in_a_child_share_reaches_the_caller(monkeypatch):
    _set_cpus(monkeypatch, 3)
    parent = os.getpid()

    def fail_in_the_last_share(share):
        if share.stop == 6:
            assert os.getpid() != parent
            raise DataError("bad tree", row=4)
        return list(share)

    with pytest.raises(DataError, match="^bad tree$") as caught:
        _split_work(fail_in_the_last_share, 6)
    assert type(caught.value) is DataError and caught.value.row == 4


def test_error_in_the_callers_share_still_reaps_every_child(monkeypatch):
    _set_cpus(monkeypatch, 3)
    fds_before = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

    def fail_in_the_first_share(share):
        if share.start == 0:
            raise DataError("bad first share")
        return np.zeros(50_000)  # a result the size of a share's votes

    with pytest.raises(DataError, match="bad first share"):
        _split_work(fail_in_the_first_share, 3)
    if fds_before is not None:
        assert len(os.listdir("/proc/self/fd")) == fds_before


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_split_work_leaves_no_descriptor_or_temporary_file(tmp_path, monkeypatch):
    _set_cpus(monkeypatch, 3)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    fds_before = _open_fds()

    def fail_in_a_child(share):
        if share.start > 0:
            raise DataError("bad tree")
        return np.zeros(50_000)

    assert _split_work(list, 6) == [[0, 1], [2, 3], [4, 5]]
    assert _open_fds() == fds_before and os.listdir(tmp_path) == []
    with pytest.raises(DataError, match="bad tree"):
        _split_work(fail_in_a_child, 6)
    assert _open_fds() == fds_before and os.listdir(tmp_path) == []


def test_child_that_ends_without_a_result(monkeypatch):
    _set_cpus(monkeypatch, 2)

    def exit_in_the_child(share):
        if share.start > 0:
            os._exit(3)
        return list(share)

    with pytest.raises(ChildProcessError, match=r"forest worker \d+ ended with status 3"):
        _split_work(exit_in_the_child, 2)


def test_train_reports_a_lost_worker_as_one_json_line(tmp_path, monkeypatch, capsys):
    _set_cpus(monkeypatch, 2)
    parent = os.getpid()
    grow = earlypd.forest.tree_grow

    def grow_or_die(*args):
        if os.getpid() != parent:
            os._exit(3)
        return grow(*args)

    monkeypatch.setattr(earlypd.forest, "tree_grow", grow_or_die)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 9, "models": ["forest"], "forest": {"trees": 4},
                                  "generate": {"n_healthy": 24, "n_pd": 40}}))
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines  # one JSON line, no traceback
    err = json.loads(lines[0])
    assert err["error"] == "io" and "forest worker" in err["message"]
    assert not (tmp_path / "out").exists()


def test_train_without_a_usable_tmpdir_writes_no_run(tmp_path, monkeypatch, capsys):
    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 9, "models": ["forest"], "forest": {"trees": 4},
                                  "generate": {"n_healthy": 24, "n_pd": 40}}))
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines  # one JSON line, no traceback
    assert json.loads(lines[0])["error"] == "io"
    assert not (tmp_path / "out").exists()
