"""Normalization, stratified splitting and the normalization sidecar."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from earlypd.bayesnet import BayesNetConfig, discretize_fit
from earlypd.data import FEATURE_NAMES
from earlypd.errors import ConfigError, DataError
from earlypd.preprocess import (
    NormalizationStats,
    load_sidecar,
    normalize_apply,
    normalize_fit_transform,
    save_sidecar,
    stratified_split,
)
from earlypd.synth import GenerateConfig, generate

from conftest import OTHER_VERSIONS, datasets_equal, make_dataset
from test_pipeline import _swap_two_names


def test_normalize_hand_example():
    ds = make_dataset([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]], [0, 1, 0])
    scaled, stats = normalize_fit_transform(ds)
    assert np.allclose(scaled.features, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    assert stats.pairs == ((0.0, 10.0), (10.0, 30.0))


def test_normalize_constant_feature_maps_to_zero():
    ds = make_dataset([[7.0, 1.0], [7.0, 2.0]], [0, 1])
    scaled, _ = normalize_fit_transform(ds)
    assert np.all(scaled.features[:, 0] == 0.0)


def test_normalize_empty_dataset_raises():
    ds = make_dataset(np.empty((0, 2)), [])
    with pytest.raises(DataError, match="cannot fit normalization on zero records"):
        normalize_fit_transform(ds)


def test_normalize_apply_clamps_unseen_values():
    train = make_dataset([[0.0], [10.0]], [0, 1])
    _, stats = normalize_fit_transform(train)
    other = make_dataset([[-5.0], [15.0], [5.0]], [0, 1, 0])
    scaled = normalize_apply(other, stats)
    assert list(scaled.features[:, 0]) == [0.0, 1.0, 0.5]


def test_normalize_apply_schema_mismatch():
    train = make_dataset([[0.0], [10.0]], [0, 1])
    _, stats = normalize_fit_transform(train)
    other = make_dataset([[1.0, 2.0]], [0])
    with pytest.raises(DataError, match="stats of 1 features for 2 columns"):
        normalize_apply(other, stats)


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_normalization_is_idempotent(n, seed):
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng.normal(size=(n, 3)) * 10 + 5, rng.integers(0, 2, n))
    scaled, _ = normalize_fit_transform(ds)
    again, _ = normalize_fit_transform(scaled)
    assert np.allclose(scaled.features, again.features, atol=1e-12)
    assert scaled.features.min() >= 0.0 and scaled.features.max() <= 1.0


def test_split_spec_validation():
    ds = _labeled_dataset(5, 5)
    for fraction in (0.0, 1.0, float("nan")):
        with pytest.raises(ConfigError):
            stratified_split(ds, fraction, 1)


def _labeled_dataset(n_h, n_pd, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n_h + n_pd, 4))
    y = np.array([0] * n_h + [1] * n_pd)
    return make_dataset(X, y)


def test_split_pinned_default_cohort_counts():
    ds = _labeled_dataset(184, 402)
    train, test = stratified_split(ds, 0.7, 42)
    assert train.class_counts() == (129, 281)
    assert test.class_counts() == (55, 121)


def test_split_round_half_up_float_semantics():
    # 0.7 * 5 evaluates to exactly 3.5 in doubles; half-up takes it to 4.
    ds = _labeled_dataset(5, 8)
    train, _test = stratified_split(ds, 0.7, 1)
    h, p = train.class_counts()
    assert h == 4
    assert p == 6  # 0.7 * 8 = 5.6 -> 6


def test_split_half_up_is_not_bankers_rounding():
    # 0.5 * 5 = 2.5: half-up gives 3 where round-to-even would give 2.
    ds = _labeled_dataset(5, 6)
    train, _test = stratified_split(ds, 0.5, 1)
    assert train.class_counts() == (3, 3)


def test_split_partition_properties():
    ds = _labeled_dataset(37, 53, seed=3)
    train, test = stratified_split(ds, 0.6, 11)
    ids = sorted(train.subject_ids + test.subject_ids)
    assert ids == sorted(ds.subject_ids)
    assert set(train.subject_ids).isdisjoint(test.subject_ids)
    # outputs preserve the original record order
    original = {sid: i for i, sid in enumerate(ds.subject_ids)}
    for part in (train, test):
        order = [original[s] for s in part.subject_ids]
        assert order == sorted(order)


def test_split_is_seed_deterministic():
    ds = _labeled_dataset(30, 40, seed=8)
    a1, b1 = stratified_split(ds, 0.7, 9)
    a2, b2 = stratified_split(ds, 0.7, 9)
    assert datasets_equal(a1, a2) and datasets_equal(b1, b2)
    a3, _ = stratified_split(ds, 0.7, 10)
    assert not datasets_equal(a1, a3)


def test_split_class_too_small():
    ds = _labeled_dataset(1, 10)
    with pytest.raises(DataError, match="class 0 has 1 records, need at least 2"):
        stratified_split(ds, 0.7, 0)


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=2, max_value=60),
       st.sampled_from([0.5, 0.6, 0.7, 0.8, 0.9]), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_split_counts_within_one_of_fraction(n_h, n_pd, fraction, seed):
    ds = _labeled_dataset(n_h, n_pd, seed=1)
    train, test = stratified_split(ds, fraction, seed)
    h, p = train.class_counts()
    assert abs(h - fraction * n_h) <= 0.5 + 1e-9
    assert abs(p - fraction * n_pd) <= 0.5 + 1e-9
    assert len(train) + len(test) == n_h + n_pd


def test_sidecar_round_trip(tmp_path):
    cohort = generate(GenerateConfig(n_healthy=10, n_pd=14), 2)
    _scaled, stats = normalize_fit_transform(cohort)
    path = tmp_path / "preprocess.json"
    save_sidecar(path, stats)
    assert json.loads(path.read_text())["schema"] == list(FEATURE_NAMES)
    assert load_sidecar(path) == stats


def test_sidecar_without_discretization(tmp_path):
    # the Bayes net keeps its cuts in its own model file; the sidecar holds
    # the normalization alone
    _, stats = normalize_fit_transform(generate(GenerateConfig(n_healthy=10, n_pd=14), 2))
    path = tmp_path / "preprocess.json"
    save_sidecar(path, stats)
    assert sorted(json.loads(path.read_text())) == ["normalization", "schema", "version"]
    assert load_sidecar(path).pairs == stats.pairs


def test_sidecar_with_a_discretization_key_loads_the_same_stats(tmp_path):
    # a sidecar written when it also held the Bayes net's cuts
    cohort = generate(GenerateConfig(n_healthy=10, n_pd=14), 2)
    scaled, stats = normalize_fit_transform(cohort)
    path = tmp_path / "preprocess.json"
    save_sidecar(path, stats)
    payload = json.loads(path.read_text())
    payload["discretization"] = discretize_fit(scaled, BayesNetConfig(bins=5)).to_json_dict()
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert load_sidecar(old) == load_sidecar(path) == stats


@pytest.mark.parametrize("version", OTHER_VERSIONS, ids=repr)
def test_sidecar_of_another_version_is_rejected(version, tmp_path):
    _, stats = normalize_fit_transform(generate(GenerateConfig(n_healthy=10, n_pd=14), 2))
    path = tmp_path / "preprocess.json"
    save_sidecar(path, stats)
    payload = json.loads(path.read_text())
    assert payload["version"] == 1
    if version is None:
        del payload["version"]
    else:
        payload["version"] = version
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="is not a preprocess sidecar .*version"):
        load_sidecar(path)


def _drop_last_feature(payload):
    del payload["normalization"][payload["schema"].pop()]


@pytest.mark.parametrize("change", [_swap_two_names, _drop_last_feature],
                         ids=["two names swapped", "12 names"])
def test_sidecar_not_naming_the_csv_features_is_rejected(change, tmp_path):
    _, stats = normalize_fit_transform(generate(GenerateConfig(n_healthy=10, n_pd=14), 2))
    path = tmp_path / "preprocess.json"
    save_sidecar(path, stats)
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))} is not a preprocess "
                                          f"sidecar .*not the CSV's features in order"):
        load_sidecar(path)


def test_normalization_stats_json_round_trip():
    stats = NormalizationStats(tuple((float(i), 2.0 * i + 1) for i in range(len(FEATURE_NAMES))))
    again = NormalizationStats.from_json_dict(stats.to_json_dict())
    assert again == stats
    assert list(stats.to_json_dict()) == list(FEATURE_NAMES)
