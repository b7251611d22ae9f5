"""Boosted ridge logistic regression: fit correctness, boosting arithmetic,
vote combination, and serialization."""

import math

import numpy as np
import pytest

from earlypd.boostlr import (
    BoostConfig,
    BoostedModel,
    BoostRound,
    LogisticModel,
    adaboost_train,
    boost_alpha,
    boosted_score_batch,
    logistic_gradient,
    logistic_objective,
    logistic_score_batch,
    logistic_train,
    reweight,
)
from earlypd.errors import DataError

from conftest import make_dataset
from reference import boosted_score, logistic_score


def _model(coef, intercept):
    return LogisticModel(np.asarray(coef, dtype=np.float64), float(intercept),
                         True, ())


def test_score_at_log3_margin():
    # sigmoid(ln 3) = 3/4
    model = _model([math.log(3.0)], 0.0)
    scores = logistic_score_batch(model, [[1.0], [0.0], [-1.0]])
    assert scores == pytest.approx([0.75, 0.5, 0.25], abs=1e-15)


def test_objective_hand_value():
    # one record at the origin with label 1: p = 1/2, so the weighted
    # negative log-likelihood is exactly log 2
    X = np.zeros((1, 1))
    y = np.array([1.0])
    w = np.array([1.0])
    obj = logistic_objective(np.zeros(1), 0.0, X, y, w, 0.0)
    assert obj == pytest.approx(math.log(2.0), abs=1e-15)
    # the ridge term adds (r/2) * c^2 and ignores the intercept
    obj_pen = logistic_objective(np.array([2.0]), 5.0, X, y, w, 0.5)
    base = logistic_objective(np.array([2.0]), 5.0, X, y, w, 0.0)
    assert obj_pen - base == pytest.approx(0.25 * 4.0, rel=1e-12)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(913)
    h = 1e-6
    for _ in range(10):
        n, m = 6, 3
        X = rng.normal(size=(n, m))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w = rng.random(n) + 0.1
        w = w / w.sum()
        ridge = 0.3
        coef = rng.normal(size=m)
        intercept = float(rng.normal())
        analytic = logistic_gradient(coef, intercept, X, y, w, ridge)
        numeric = np.empty(m + 1)
        for j in range(m):
            up = coef.copy()
            dn = coef.copy()
            up[j] += h
            dn[j] -= h
            numeric[j] = (logistic_objective(up, intercept, X, y, w, ridge)
                          - logistic_objective(dn, intercept, X, y, w, ridge)) / (2 * h)
        numeric[m] = (logistic_objective(coef, intercept + h, X, y, w, ridge)
                      - logistic_objective(coef, intercept - h, X, y, w, ridge)) / (2 * h)
        assert np.abs(analytic - numeric).max() < 1e-6


def test_objective_path_non_increasing(small_split):
    train, _ = small_split
    model = logistic_train(train, ridge=1e-4)
    path = np.array(model.objective_path)
    assert len(path) >= 2
    assert np.all(np.diff(path) <= 0.0)


def test_converges_on_overlapping_classes():
    rng = np.random.default_rng(44)
    X = np.concatenate([rng.normal(-0.5, 1.0, size=40),
                        rng.normal(0.5, 1.0, size=40)]).reshape(-1, 1)
    y = np.array([0] * 40 + [1] * 40)
    model = logistic_train(make_dataset(X, y), ridge=1e-3)
    assert model.converged
    grad = logistic_gradient(model.coef, model.intercept, X,
                             y.astype(np.float64), np.full(80, 1.0 / 80), 1e-3)
    assert np.abs(grad).max() <= 1e-8


def test_intercept_only_fit_reaches_log_odds():
    # with every feature at zero the coefficients stay pinned at zero and
    # the intercept must solve sigmoid(b) = 3/4, i.e. b = ln 3
    X = np.zeros((4, 2))
    y = np.array([1, 1, 1, 0])
    model = logistic_train(make_dataset(X, y), ridge=1e-2)
    assert np.all(model.coef == 0.0)
    assert model.intercept == pytest.approx(math.log(3.0), abs=1e-6)


def test_weights_equivalent_to_duplication():
    X = np.array([[0.2], [0.9], [0.4], [0.7]])
    y = np.array([0, 1, 0, 1])
    doubled = make_dataset(np.vstack([X, X[:1]]), np.append(y, y[0]))
    weighted = make_dataset(X, y)
    w = np.array([2.0, 1.0, 1.0, 1.0]) / 5.0
    m_dup = logistic_train(doubled, ridge=1e-3)
    m_w = logistic_train(weighted, w, ridge=1e-3)
    assert m_w.coef == pytest.approx(m_dup.coef, abs=1e-8)
    assert m_w.intercept == pytest.approx(m_dup.intercept, abs=1e-8)


def test_ridge_shrinks_coefficients():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
    data = make_dataset(X, y)
    loose = logistic_train(data, ridge=1e-6)
    tight = logistic_train(data, ridge=10.0)
    assert np.linalg.norm(tight.coef) < np.linalg.norm(loose.coef)


def test_boost_alpha_quarter_error():
    assert abs(boost_alpha(0.25, 100) - math.log(3.0)) <= 1e-15


def test_boost_alpha_perfect_round_capped():
    # error 0 is clamped to 1/(2n) so the round weight stays finite
    assert boost_alpha(0.0, 10) == pytest.approx(math.log(19.0), rel=1e-12)
    assert math.isfinite(boost_alpha(0.0, 10 ** 6))


def test_reweight_hand_example():
    weights = np.full(4, 0.25)
    mis = np.array([True, False, False, False])
    out = reweight(weights, mis, 0.25)
    assert out == pytest.approx([0.5, 1 / 6, 1 / 6, 1 / 6], abs=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert out[mis].sum() == pytest.approx(0.5, abs=1e-12)


def test_reweight_random_mass_properties():
    rng = np.random.default_rng(321)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        w = rng.random(n) + 1e-3
        w = w / w.sum()
        mask = np.zeros(n, dtype=bool)
        k = int(rng.integers(1, n))
        mask[rng.choice(n, size=k, replace=False)] = True
        error = float(w[mask].sum())
        if not 0.0 < error < 0.5:
            continue
        out = reweight(w, mask, error)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert out[mask].sum() == pytest.approx(0.5, abs=1e-9)


def test_adaboost_unlearnable_data_keeps_no_rounds(xor_dataset):
    # the base learner lands exactly on the chance boundary, so the first
    # round is discarded; a model of no rounds could never score a record
    with pytest.raises(DataError, match="no boosting round beats chance"):
        adaboost_train(xor_dataset, max_rounds=5)


def test_adaboost_separable_data_stops_after_one_round():
    X = np.array([[-2.0], [-1.5], [-1.0], [-0.5], [0.5], [1.0], [1.5], [2.0]])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model = adaboost_train(make_dataset(X, y), max_rounds=6)
    assert len(model.rounds) == 1
    only = model.rounds[0]
    assert only.error == 0.0
    assert only.alpha == pytest.approx(boost_alpha(0.0, 8), rel=1e-12)
    assert only.misclassified_mass_after == 0.0
    scores = boosted_score_batch(model, X)
    assert np.array_equal(scores, y.astype(np.float64))


def test_adaboost_round_invariants(small_split):
    train, _ = small_split
    model = adaboost_train(train, max_rounds=3)
    assert 1 <= len(model.rounds) <= 3
    n = len(train)
    for r in model.rounds:
        assert 0.0 <= r.error < 0.5
        assert r.alpha == pytest.approx(boost_alpha(r.error, n), rel=1e-12)
        assert r.weight_sum_after == pytest.approx(1.0, abs=1e-9)
        if r.error > 0.0:
            assert r.misclassified_mass_after == pytest.approx(0.5, abs=1e-9)
        else:
            assert r.misclassified_mass_after == 0.0


def test_boosted_score_weights_votes_by_alpha():
    votes_pd = _model([4.0], -2.0)   # votes PD at x=1, healthy at x=0
    votes_hd = _model([-4.0], 2.0)   # the mirror image
    rounds = (
        BoostRound(votes_pd, 2.0, 0.1, 1.0, 0.5),
        BoostRound(votes_hd, 1.0, 0.2, 1.0, 0.5),
    )
    model = BoostedModel(rounds, BoostConfig(2, 0.0))
    scores = boosted_score_batch(model, [[1.0], [0.0]])
    assert scores == pytest.approx([2 / 3, 1 / 3], abs=1e-15)


def test_batch_scores_match_scalar(small_split):
    train, test = small_split
    model = adaboost_train(train, max_rounds=3)
    batch = boosted_score_batch(model, test.features)
    single = np.array([boosted_score(model, row) for row in test.features])
    assert np.array_equal(batch, single)
    assert logistic_score_batch(model.rounds[0].model, test.features) == pytest.approx(
        [logistic_score(model.rounds[0].model, row) for row in test.features],
        abs=1e-15,
    )


def test_single_class_rejected():
    X = np.array([[0.1], [0.2], [0.3]])
    with pytest.raises(DataError, match="both classes need positive total weight"):
        logistic_train(make_dataset(X, [1, 1, 1]))
    # both labels present but one side carries zero weight
    with pytest.raises(DataError, match="both classes need positive total weight"):
        logistic_train(make_dataset(X, [0, 1, 1]), np.array([0.0, 0.5, 0.5]))


def test_boosting_needs_both_classes():
    # zero records would divide the first weights by zero
    for X, labels in ((np.empty((0, 13)), []), ([[0.1], [0.2]], [1, 1])):
        with pytest.raises(DataError, match="boosted LR training needs both classes"):
            adaboost_train(make_dataset(X, labels))


def test_non_finite_features_rejected():
    X = np.array([[0.1], [np.nan], [0.3]])
    with pytest.raises(DataError, match="feature matrix contains non-finite values"):
        logistic_train(make_dataset(X, [0, 1, 1]))

