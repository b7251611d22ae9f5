"""Acceptance criteria for the pipeline, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Each test states its thresholds inline; fixtures are sized so the
whole file stays well under a minute.
"""

import itertools
import json
import math

import numpy as np

from earlypd.bayesnet import DiscreteNet, k2_search
from earlypd.boostlr import (
    adaboost_train,
    boost_alpha,
    logistic_gradient,
    logistic_objective,
    logistic_train,
)
from earlypd.cli import main
from earlypd.forest import ForestConfig, forest_score_batch, forest_train, tree_grow
from earlypd.metrics import MEASURES, roc
from earlypd.mlp import MlpConfig, MlpModel, mlp_gradient_check
from earlypd.pipeline import (
    MODEL_ORDER,
    BoostConfig,
    GenerateConfig,
    PipelineConfig,
    run_experiment,
)
from earlypd.preprocess import normalize_fit_transform, stratified_split
from earlypd.rng import derive_stream
from earlypd.synth import generate

from conftest import make_dataset
from reference import tree_predict_batch


def test_criterion_01_default_cohort_performance(default_run):
    # every classifier: test accuracy >= 0.90 and test AUC >= 0.95;
    # random forest training accuracy >= 0.99; full run < 60 s
    assert default_run.elapsed_seconds < 60.0
    for model in MODEL_ORDER:
        testing = default_run.evaluations[model]["testing"]
        assert testing.metrics.accuracy >= 0.90, model
        assert testing.roc.auc >= 0.95, model
    training = default_run.evaluations["forest"]["training"]
    assert training.metrics.accuracy >= 0.99


def test_criterion_02_report_shape_and_recall_identity(default_run):
    # exactly 5 measures x 2 splits x 4 models, and weighted recall equals
    # accuracy in every cell pair (exact float equality)
    lines = default_run.report_csv.strip().splitlines()
    assert lines[0] == "measure,model,split,value"
    cells = [tuple(line.split(",")[:3]) for line in lines[1:]]
    expected = {(measure, model, split)
                for measure in MEASURES
                for model in MODEL_ORDER
                for split in ("training", "testing")}
    assert len(cells) == 40
    assert set(cells) == expected
    assert set(MEASURES) == {"accuracy", "recall", "precision", "f_measure", "auc"}
    for model in MODEL_ORDER:
        for split in ("training", "testing"):
            report = default_run.evaluations[model][split]
            assert report.metrics.recall == report.metrics.accuracy


def test_criterion_03_mlp_gradient_matches_finite_differences():
    # backprop vs central differences at step 1e-5: max relative error
    # <= 1e-4 over 50 random networks and records
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 14))
        hidden = int(rng.integers(2, 9))
        w1 = rng.normal(scale=0.8, size=(hidden, m + 1))
        w2 = rng.normal(scale=0.8, size=(2, hidden + 1))
        model = MlpModel(w1, w2, MlpConfig(hidden_units=hidden), 0, ())
        features = rng.random(m)
        target = np.zeros(2)
        target[int(rng.integers(0, 2))] = 1.0
        worst = max(worst, mlp_gradient_check(model, features, target, step=1e-5))
    assert worst <= 1e-4


def test_criterion_04_logistic_gradient_and_descent():
    # analytic gradient vs central differences: relative error <= 1e-6 over
    # 50 random cases; fitted objective paths never increase (exact)
    rng = np.random.default_rng(404)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        n, m = 8, 4
        X = rng.normal(size=(n, m))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w = rng.random(n) + 0.1
        w = w / w.sum()
        ridge = float(rng.random() + 0.01)
        coef = rng.normal(size=m)
        intercept = float(rng.normal())
        analytic = logistic_gradient(coef, intercept, X, y, w, ridge)
        numeric = np.empty(m + 1)
        for j in range(m):
            up, dn = coef.copy(), coef.copy()
            up[j] += h
            dn[j] -= h
            numeric[j] = (logistic_objective(up, intercept, X, y, w, ridge)
                          - logistic_objective(dn, intercept, X, y, w, ridge)) / (2 * h)
        numeric[m] = (logistic_objective(coef, intercept + h, X, y, w, ridge)
                      - logistic_objective(coef, intercept - h, X, y, w, ridge)) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-6
    for seed in (1, 2, 3):
        cohort, _ = normalize_fit_transform(generate(GenerateConfig(30, 40, 0.6), seed))
        model = logistic_train(cohort, ridge=1e-4)
        path = np.array(model.objective_path)
        assert np.all(np.diff(path) <= 0.0)


def _pair_count_auc(labels, scores):
    """Tie-corrected pair counting: P(pos > neg) + 0.5 P(pos == neg)."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    greater = np.sum(pos[:, None] > neg[None, :])
    equal = np.sum(pos[:, None] == neg[None, :])
    return (greater + 0.5 * equal) / (len(pos) * len(neg))


def test_criterion_05_auc_equals_pair_counting():
    # trapezoidal AUC == tie-corrected pair counting to 1e-12 on 200 score
    # sets, at least 20% of which contain tied scores
    rng = np.random.default_rng(515)
    sets_with_ties = 0
    for case in range(200):
        n_pos = int(rng.integers(5, 31))
        n_neg = int(rng.integers(5, 31))
        labels = np.array([1] * n_pos + [0] * n_neg)
        scores = rng.random(n_pos + n_neg)
        if case % 2 == 0:
            scores = np.round(scores, 1)  # 11 possible values: heavy ties
        if len(np.unique(scores)) < len(scores):
            sets_with_ties += 1
        curve = roc(labels, scores)
        assert abs(curve.auc - _pair_count_auc(labels, scores)) <= 1e-12
    assert sets_with_ties >= 40  # 20% of 200


def _all_structures(n_nodes):
    """Every DAG consistent with the fixed ordering 0 < 1 < ... < n-1."""
    choices = []
    for node in range(1, n_nodes):
        subsets = []
        for k in range(node + 1):
            subsets.extend(itertools.combinations(range(node), k))
        choices.append(subsets)
    return [((),) + rest for rest in itertools.product(*choices)]


def _random_net(rng, arities, parents):
    cpts = []
    for node, arity in enumerate(arities):
        rows = 1
        for p in parents[node]:
            rows *= arities[p]
        table = rng.random((rows, arity)) + 0.05
        cpts.append(table / table.sum(axis=1, keepdims=True))
    return DiscreteNet(tuple(arities), tuple(parents), tuple(cpts))


def _joint_brute_force(net, assignment):
    prob = 1.0
    for node, cpt in enumerate(net.cpts):
        pa = net.parents[node]
        if pa:
            idx = np.ravel_multi_index(tuple(assignment[q] for q in pa),
                                       tuple(net.arities[q] for q in pa))
        else:
            idx = 0
        prob *= float(cpt[int(idx), assignment[node]])
    return prob


def test_criterion_06_bayes_net_inference_and_k2_recovery():
    # factored posterior vs brute-force enumeration on every structure with
    # <= 4 binary nodes, >= 100 CPT draws, tolerance 1e-10
    rng = np.random.default_rng(606)
    draws = 0
    for n_nodes in (1, 2, 3, 4):
        arities = (2,) * n_nodes
        for parents in _all_structures(n_nodes):
            for _ in range(2):
                net = _random_net(rng, arities, parents)
                draws += 1
                for observed in itertools.product((0, 1), repeat=n_nodes - 1):
                    raw = np.array([_joint_brute_force(net, [c, *observed])
                                    for c in (0, 1)])
                    expected = raw / raw.sum()
                    got = net.posterior([0, *observed])
                    assert np.abs(got - expected).max() <= 1e-10
    assert draws >= 100

    # K2 recovers the generating naive-Bayes structure on N=5000 samples in
    # at least 19 of 20 seeds, searching from an empty structure
    n, n_features = 5000, 4
    target = ((),) + ((0,),) * n_features
    recovered = 0
    for seed in range(20):
        gen = np.random.default_rng(seed)
        cls = gen.integers(0, 2, size=n)
        flips = gen.uniform(0.1, 0.3, size=n_features)
        columns = [cls]
        for flip in flips:
            noise = gen.random(n) < flip
            columns.append(np.where(noise, 1 - cls, cls))
        data = np.column_stack(columns)
        parents = k2_search(data, (2,) * (n_features + 1), max_parents=2,
                            naive_start=False)
        if parents == target:
            recovered += 1
    assert recovered >= 19


def test_criterion_07_adaboost_invariants():
    # after every round: weights sum to 1 (1e-9) and misclassified mass is
    # one half (1e-9); a round error of 0.25 gives alpha = ln 3 to 1e-12
    cohort, _ = normalize_fit_transform(generate(GenerateConfig(80, 120, 0.4), 7))
    model = adaboost_train(cohort, max_rounds=10)
    imperfect = [r for r in model.rounds if r.error > 0.0]
    assert len(imperfect) >= 3  # the invariant is exercised repeatedly
    for r in model.rounds:
        assert abs(r.weight_sum_after - 1.0) <= 1e-9
        if r.error > 0.0:
            assert abs(r.misclassified_mass_after - 0.5) <= 1e-9
        else:
            assert r.misclassified_mass_after == 0.0
    assert abs(boost_alpha(0.25, len(cohort)) - math.log(3.0)) <= 1e-12


def test_criterion_08_forest_degenerates_to_plain_tree():
    # one tree, full feature subset, bootstrap off: identical predictions to
    # the plain decision tree on 20 random datasets
    rng = np.random.default_rng(808)
    for case in range(20):
        n = int(rng.integers(24, 61))
        m = int(rng.integers(3, 14))
        X = rng.normal(size=(n, m))
        y = (X[:, 0] > np.median(X[:, 0])).astype(np.int64)
        flip = rng.random(n) < 0.15
        y = np.where(flip, 1 - y, y)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        ds = make_dataset(X, y)
        seed = 100 + case
        forest = forest_train(
            ds, ForestConfig(trees=1, feature_subset=m, bootstrap=False), seed)
        tree = tree_grow(X, y, k=m, stream=derive_stream(seed, "tree/0"))
        probes = rng.normal(size=(40, m))
        for batch in (X, probes):
            assert np.array_equal(forest_score_batch(forest, batch),
                                  tree_predict_batch(tree, batch).astype(np.float64))


def test_criterion_09_split_contract(default_run):
    # per-class train counts within 1 of fraction * class size for fractions
    # {0.5, 0.7, 0.9} x 20 seeds; partitions disjoint, exhaustive, and
    # seed-deterministic; the default 184/402 at 0.7 pins (129, 281)
    cohort = generate(GenerateConfig(37, 53), 11)
    class_sizes = cohort.class_counts()
    for fraction in (0.5, 0.7, 0.9):
        for seed in range(20):
            train, test = stratified_split(cohort, fraction, seed)
            for cls in (0, 1):
                got = train.class_counts()[cls]
                assert abs(got - fraction * class_sizes[cls]) <= 1.0
            train_ids = set(train.subject_ids)
            test_ids = set(test.subject_ids)
            assert not train_ids & test_ids
            assert train_ids | test_ids == set(cohort.subject_ids)
            assert len(train) + len(test) == len(cohort)
            again_train, again_test = stratified_split(cohort, fraction, seed)
            assert again_train.subject_ids == train.subject_ids
            assert again_test.subject_ids == test.subject_ids
    assert default_run.train.class_counts() == (129, 281)


def test_criterion_10_experiment_runs_are_byte_identical(tmp_path):
    # two CLI experiment runs with the same config: report.csv and every
    # model file match byte for byte
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 13,
        "generate": {"n_healthy": 40, "n_pd": 70},
        "mlp": {"hidden_units": 6, "epochs": 80},
        "forest": {"trees": 25},
    }))
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out in (first, second):
        assert main(["experiment", "--config", str(config_path),
                     "--out", str(out)]) == 0
    assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()
    model_files = sorted(p.name for p in (first / "models").iterdir())
    assert model_files == sorted(f"{m}.json" for m in MODEL_ORDER)
    for name in model_files:
        assert (first / "models" / name).read_bytes() == \
            (second / "models" / name).read_bytes(), name


def test_criterion_11_no_signal_control():
    # separation 0 removes the class signal entirely: every model's test AUC
    # stays in [0.40, 0.60] across 10 seeds
    observed = {}
    for seed in range(10):
        config = PipelineConfig(
            seed=seed,
            generate=GenerateConfig(n_healthy=800, n_pd=1600, separation=0.0),
            mlp=MlpConfig(hidden_units=6, epochs=25),
            forest=ForestConfig(trees=20),
            boostlr=BoostConfig(max_rounds=5),
        )
        result = run_experiment(config)
        for model in MODEL_ORDER:
            observed[(model, seed)] = result.evaluations[model]["testing"].roc.auc
    for key, auc in observed.items():
        assert 0.40 <= auc <= 0.60, (key, auc)
