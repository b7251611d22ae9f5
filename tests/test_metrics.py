"""Confusion counting, weighted summary measures, ROC/AUC, and renderers."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from earlypd.data import HEALTHY, PD
from earlypd.errors import DataError
from earlypd.metrics import (
    MEASURES,
    SPLITS,
    ConfusionMatrix,
    confusion,
    evaluate_scores,
    render_report_csv,
    render_report_text,
    roc,
    roc_csv,
    roc_svg,
    summary_metrics,
)

from reference import loop_roc, reference_thin


def test_confusion_hand_counts():
    labels = [1, 1, 0, 0, 1, 0]
    preds = [1, 0, 0, 1, 1, 0]
    cm = confusion(labels, preds)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)


def test_confusion_errors():
    with pytest.raises(DataError, match=r"labels \(\(2,\)\) and predictions \(\(1,\)\) differ"):
        confusion([1, 0], [1])
    with pytest.raises(DataError, match="cannot build a confusion matrix from zero records"):
        confusion([], [])


def test_summary_metrics_exact_fixture():
    # tp=118 fn=3 tn=53 fp=2: accuracy = 171/176, and the support-weighted
    # recall is the same rational number by construction.
    cm = ConfusionMatrix(tp=118, fp=2, tn=53, fn=3)
    m = summary_metrics(cm)
    assert m.accuracy == 171 / 176
    assert m.recall == m.accuracy  # weighted recall is exactly accuracy
    # weighted precision from first principles:
    # PD precision 118/120, healthy precision 53/56, weights 121/176, 55/176
    want_precision = Fraction(121, 176) * Fraction(118, 120) + \
        Fraction(55, 176) * Fraction(53, 56)
    assert m.precision == float(want_precision)
    assert 0.0 <= m.f_measure <= 1.0


def test_summary_metrics_zero_division_convention():
    # no predicted positives: PD precision contributes 0 instead of NaN
    cm = ConfusionMatrix(tp=0, fp=0, tn=5, fn=5)
    m = summary_metrics(cm)
    assert m.accuracy == 0.5
    assert math.isfinite(m.precision) and math.isfinite(m.f_measure)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                min_size=1, max_size=300))
def test_weighted_recall_equals_accuracy_exactly(pairs):
    labels = [a for a, _ in pairs]
    preds = [b for _, b in pairs]
    cm = confusion(labels, preds)
    m = summary_metrics(cm)
    assert m.recall == m.accuracy  # bit-exact identity, no tolerance


def test_roc_hand_fixture():
    # labels P,H,P,H with descending scores: AUC = 3 of 4 pairs correct.
    labels = [1, 0, 1, 0]
    scores = [0.9, 0.8, 0.4, 0.2]
    curve = roc(labels, scores)
    assert curve.auc == 0.75
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert curve.thresholds[0] == math.inf


def test_roc_with_ties_makes_diagonal_segment():
    labels = [1, 0, 1, 0]
    scores = [0.5, 0.5, 0.5, 0.5]
    curve = roc(labels, scores)
    # one tie block: curve jumps straight from (0,0) to (1,1)
    assert len(curve.fpr) == 2
    assert curve.auc == 0.5


def test_roc_perfect_and_inverted():
    labels = [0, 0, 1, 1]
    assert roc(labels, [0.1, 0.2, 0.8, 0.9]).auc == 1.0
    assert roc(labels, [0.9, 0.8, 0.2, 0.1]).auc == 0.0


def test_roc_single_class_raises():
    with pytest.raises(DataError, match="ROC needs both classes present"):
        roc([1, 1, 1], [0.5, 0.6, 0.7])


def test_roc_rejects_non_finite_scores():
    # NaN equals no other score, not even itself, so it would make a block
    # of its own, and +inf would repeat the origin's threshold
    for scores in ([math.nan, 0.2], [0.8, math.inf]):
        with pytest.raises(DataError, match="ROC scores must be finite"):
            roc([0, 1], scores)


def _pair_count_auc(labels, scores):
    """Brute-force AUC: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_trapezoid_auc_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    # quantized scores force plenty of ties
    scores = rng.integers(0, 5, n) / 4.0
    curve = roc(list(labels), list(scores))
    assert abs(curve.auc - _pair_count_auc(labels, scores)) <= 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_auc_complement_under_score_flip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    labels = rng.integers(0, 2, n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.random(n)  # continuous, ties have probability zero
    a = roc(list(labels), list(scores)).auc
    b = roc(list(labels), list(1.0 - scores)).auc
    assert abs(a + b - 1.0) <= 1e-12


# scores that tie, including -0.0 with 0.0, and sums that round
ROC_SCORE_POOL = [0.0, -0.0, 0.25, 0.5, 1 / 3, 0.1 + 0.2, 1.0]


@st.composite
def _roc_inputs(draw):
    n = draw(st.integers(2, 300))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    labels[0] = 1 - labels[-1]  # both classes present
    pooled = st.sampled_from(ROC_SCORE_POOL)
    anywhere = st.floats(allow_nan=False, allow_infinity=False)
    scores = draw(arrays(np.float64, n, elements=draw(st.sampled_from([pooled, anywhere]))))
    return labels, scores


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@given(_roc_inputs())
@settings(max_examples=200, deadline=None)
def test_roc_matches_loop_reference_bit_for_bit(case):
    labels, scores = case
    got, want = roc(labels, scores), reference_thin(loop_roc(labels, scores), labels)
    for field in ("thresholds", "fpr", "tpr", "auc"):
        assert np.array_equal(_bits(getattr(got, field)), _bits(getattr(want, field))), field


@st.composite
def _tied_roc_inputs(draw):
    n = draw(st.integers(2, 200))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    labels[0] = 1 - labels[-1]  # both classes present
    scores = draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    return labels, np.round(scores, draw(st.integers(0, 2)))


@given(_tied_roc_inputs())
@settings(max_examples=200, deadline=None)
def test_roc_keeps_exactly_the_corners(case):
    labels, scores = case
    full, curve = loop_roc(labels, scores), roc(labels, scores)
    # each point's counts, from the records scored at or above its threshold
    counts = [(int(np.sum((scores >= t) & (labels == HEALTHY))),
               int(np.sum((scores >= t) & (labels == PD)))) for t in full.thresholds]
    kept = [full.thresholds.index(t) for t in curve.thresholds]
    assert kept[0] == 0 and kept[-1] == len(full.thresholds) - 1
    assert curve.fpr == tuple(full.fpr[i] for i in kept)
    assert curve.tpr == tuple(full.tpr[i] for i in kept)
    assert _bits(curve.auc) == _bits(full.auc)

    def cross(a, b, c):
        return ((counts[b][0] - counts[a][0]) * (counts[c][1] - counts[b][1])
                - (counts[b][1] - counts[a][1]) * (counts[c][0] - counts[b][0]))
    for i in kept[1:-1]:  # a kept inner point is a corner of the full curve
        assert cross(i - 1, i, i + 1) != 0
    for a, b in zip(kept, kept[1:]):  # a dropped point lies on the segment
        for j in range(a + 1, b):
            assert cross(a, j, b) == 0
            assert all(counts[a][k] <= counts[j][k] <= counts[b][k] for k in (0, 1))


def test_roc_curve_is_monotone(small_split):
    from earlypd.boostlr import adaboost_train, boosted_score_batch
    train, test = small_split
    model = adaboost_train(train, max_rounds=3)
    curve = roc(test.labels, boosted_score_batch(model, test.features)).fpr
    assert all(b >= a for a, b in zip(curve, curve[1:]))


def test_evaluate_scores_threshold_convention():
    labels = [0, 1, 0, 1]
    report = evaluate_scores(labels, [0.2, 0.9, 0.5, 0.5])
    # score exactly 0.5 predicts healthy (strictly-greater rule)
    assert report.confusion.fp == 0
    assert report.confusion.fn == 1


def _tiny_reports():
    labels = [0, 1, 0, 1, 1]
    # forest before mlp, against the canonical order: renderers follow the dict
    fake = {
        "forest": {
            "training": evaluate_scores(labels, [0.0, 1.0, 0.0, 1.0, 1.0]),
            "testing": evaluate_scores(labels, [0.2, 0.4, 0.6, 0.8, 0.6]),
        },
        "mlp": {
            "training": evaluate_scores(labels, [0.1, 0.9, 0.2, 0.8, 0.7]),
            "testing": evaluate_scores(labels, [0.3, 0.6, 0.4, 0.2, 0.9]),
        },
    }
    return fake


def test_render_report_csv_layout():
    text = render_report_csv(_tiny_reports())
    lines = text.strip().split("\n")
    assert lines[0] == "measure,model,split,value"
    assert len(lines) == 1 + len(MEASURES) * 2 * len(SPLITS)
    # measure-major, then model in the dict's order, then split
    assert [line.rsplit(",", 1)[0] for line in lines[1:5]] == [
        "accuracy,forest,training", "accuracy,forest,testing",
        "accuracy,mlp,training", "accuracy,mlp,testing"]
    # values are full-precision reprs that parse back
    for line in lines[1:]:
        float(line.rsplit(",", 1)[1])


def test_render_report_text_layout():
    text = render_report_text(_tiny_reports(),
                              {"mlp": "Multilayer Perceptron", "forest": "Random Forest"})
    lines = text.split("\n")
    # columns in the dict's order: the forest's left of the MLP's
    assert 0 < lines[0].index("Random Forest") < lines[0].index("Multilayer Perceptron")
    assert lines[1].count("Train") == 2 and lines[1].count("Test") == 2
    assert lines[3].startswith("Accuracy (%)")
    assert all(len(line) <= len(lines[2]) for line in lines[3:] if line)
    # accuracy row shows percentages, the forest's test cell before the MLP's
    assert "100.0000" in lines[3]
    assert lines[3].index("60.0000") < lines[3].index("80.0000")


def test_report_json_round_trip():
    # evaluate's payload: strict JSON, with the origin's threshold as "inf"
    rep = _tiny_reports()["mlp"]["testing"]
    blob = json.dumps(rep.to_json_dict(), allow_nan=False)
    again = json.loads(blob)
    assert again == rep.to_json_dict()
    assert again["roc"]["thresholds"] == ["inf", *rep.roc.thresholds[1:]]
    assert again["auc"] == rep.roc.auc


def test_roc_csv_renders_every_point():
    curve = roc([1, 0, 1, 0], [0.9, 0.8, 0.4, 0.2])
    text = roc_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == 1 + len(curve.fpr)
    assert lines[1].startswith("inf,")


def test_roc_svg_is_self_contained():
    curve = roc([1, 0, 1, 0], [0.9, 0.8, 0.4, 0.2])
    svg = roc_svg(curve, "ROC (demo)")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "polyline" in svg
    assert "ROC (demo)" in svg
    assert f"AUC = {curve.auc:.3f}" in svg
