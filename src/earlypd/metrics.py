"""Confusion counts, weighted summary metrics, ROC curves and report rendering.

PD is the positive class everywhere. Summary metrics are computed in exact
rational arithmetic and converted to float at the end, so the algebraic
identity weighted recall == accuracy holds bit-for-bit in every emitted
report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .data import HEALTHY, PD
from .errors import DataError

MEASURES = ("accuracy", "recall", "precision", "f_measure", "auc")
MEASURE_TITLES = {
    "accuracy": "Accuracy (%)",
    "recall": "Recall",
    "precision": "Precision",
    "f_measure": "F-Measure",
    "auc": "AUC",
}


@dataclass(frozen=True)
class ConfusionMatrix:
    """PD is positive: tp = true PD, tn = true healthy."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(labels, predictions) -> ConfusionMatrix:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise DataError(f"labels ({labels.shape}) and predictions ({predictions.shape}) differ")
    if labels.size == 0:
        raise DataError("cannot build a confusion matrix from zero records")
    tp = int(np.count_nonzero((labels == PD) & (predictions == PD)))
    fp = int(np.count_nonzero((labels == HEALTHY) & (predictions == PD)))
    tn = int(np.count_nonzero((labels == HEALTHY) & (predictions == HEALTHY)))
    fn = int(np.count_nonzero((labels == PD) & (predictions == HEALTHY)))
    return ConfusionMatrix(tp, fp, tn, fn)


@dataclass(frozen=True)
class SummaryMetrics:
    accuracy: float
    recall: float
    precision: float
    f_measure: float


def _prf(tp: int, fp: int, fn: int):
    """Per-class precision, recall, F1 as Fractions. Zero denominators give 0."""
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    if precision + recall:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = Fraction(0)
    return precision, recall, f1


def summary_metrics(cm: ConfusionMatrix) -> SummaryMetrics:
    """Accuracy plus support-weighted precision / recall / F-measure.

    Each class takes a turn as the positive one; per-class values are
    weighted by true class support. A class nobody predicted contributes
    precision 0.
    """
    total = cm.total
    if total == 0:
        raise DataError("confusion matrix is empty")
    support_pd = cm.tp + cm.fn
    support_h = cm.tn + cm.fp
    p_pd, r_pd, f_pd = _prf(cm.tp, cm.fp, cm.fn)
    p_h, r_h, f_h = _prf(cm.tn, cm.fn, cm.fp)
    w_pd = Fraction(support_pd, total)
    w_h = Fraction(support_h, total)
    return SummaryMetrics(
        accuracy=float(Fraction(cm.tp + cm.tn, total)),
        recall=float(r_pd * w_pd + r_h * w_h),
        precision=float(p_pd * w_pd + p_h * w_h),
        f_measure=float(f_pd * w_pd + f_h * w_h),
    )


@dataclass(frozen=True)
class RocCurve:
    """Points run from (0, 0) to (1, 1); thresholds[i] is the score at which
    point i is reached (the origin carries +inf). Tied scores advance as one
    block, producing a diagonal segment. roc keeps only the corners."""

    thresholds: tuple
    fpr: tuple
    tpr: tuple
    auc: float


def roc(labels, scores) -> RocCurve:
    """ROC curve over descending score thresholds with trapezoidal AUC.

    The records are sorted by descending score, stably, and cut into blocks
    of equal scores (-0.0 equals 0.0); each block is one point, reached at
    its first score. A point's rates are the running true and false positive
    counts at its block's end over the class sizes. The AUC adds the
    trapezoids of every point in order, from the origin on. The curve then
    keeps the origin, the last point and each point where it turns: one
    whose steps from the point before and to the point after are not
    parallel, tested exactly on the counts (Fawcett 2006). A point dropped
    lies on the segment between the points kept around it."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise DataError("labels and scores differ in length")
    if not np.isfinite(scores).all():
        # NaN never equals itself, so it would make a block of its own
        raise DataError("ROC scores must be finite")
    n_pos = int(np.count_nonzero(labels == PD))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.append(0, np.cumsum(labels[order] == PD)[ends])
    fp = np.append(0, ends + 1) - tp
    # below 2**53 an int64 converts exactly, so each quotient has the bits of
    # Python's int / int
    fpr = fp / n_neg
    tpr = tp / n_pos
    # cumsum adds in order, as a running total does; np.sum would pair terms
    # up and change the last bits
    auc = np.cumsum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0)[-1]
    # the cross products stay exact in int64 below about 3e9 records
    dfp, dtp = np.diff(fp), np.diff(tp)
    corner = np.ones(fp.size, dtype=bool)
    corner[1:-1] = dfp[:-1] * dtp[1:] != dtp[:-1] * dfp[1:]
    thresholds = np.append(math.inf, ranked[np.append(0, ends[:-1] + 1)])
    return RocCurve(*(tuple(points[corner].tolist()) for points in (thresholds, fpr, tpr)),
                    float(auc))


@dataclass(frozen=True)
class EvaluationReport:
    """One model on one split: confusion, summary metrics, ROC."""

    confusion: ConfusionMatrix
    metrics: SummaryMetrics
    roc: RocCurve

    def to_json_dict(self) -> dict:
        return {
            "confusion": asdict(self.confusion),
            **asdict(self.metrics),
            "auc": self.roc.auc,
            # The origin threshold is +inf; JSON has no literal for it, so
            # non-finite thresholds are stored as strings.
            "roc": {"thresholds": [t if math.isfinite(t) else repr(t)
                                   for t in self.roc.thresholds],
                    "fpr": list(self.roc.fpr), "tpr": list(self.roc.tpr)},
        }

    def value(self, measure: str) -> float:
        if measure == "auc":
            return self.roc.auc
        return getattr(self.metrics, measure)


def evaluate_scores(labels, scores) -> EvaluationReport:
    """Score vector -> full report. Predicted class is PD iff score > 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    predictions = np.where(scores > 0.5, PD, HEALTHY)
    cm = confusion(labels, predictions)
    return EvaluationReport(cm, summary_metrics(cm), roc(labels, scores))


SPLITS = ("training", "testing")


def render_report_csv(reports: dict) -> str:
    """Long-format CSV: measure, model, split, value (full precision), models in dict order."""
    lines = ["measure,model,split,value"]
    for measure in MEASURES:
        for model, by_split in reports.items():
            for split in SPLITS:
                value = by_split[split].value(measure)
                lines.append(f"{measure},{model},{split},{value!r}")
    return "\n".join(lines) + "\n"


def render_report_text(reports: dict, display_names) -> str:
    """Aligned text grid, one column per (model, split), models in dict order."""
    cell_w = 11
    label_w = max(len(t) for t in MEASURE_TITLES.values()) + 2
    inner = {m: max(len(display_names[m]), 2 * cell_w + 1) for m in reports}
    header1 = " " * label_w
    header2 = " " * label_w
    for model in reports:
        header1 += "| " + display_names[model].ljust(inner[model]) + " "
        pair = "Train".ljust(cell_w) + " " + "Test"
        header2 += "| " + pair.ljust(inner[model]) + " "
    rule = "-" * len(header1)
    lines = [header1.rstrip(), header2.rstrip(), rule]
    for measure in MEASURES:
        row = MEASURE_TITLES[measure].ljust(label_w)
        for model, by_split in reports.items():
            cells = []
            for split in SPLITS:
                value = by_split[split].value(measure)
                if measure == "accuracy":
                    cells.append(f"{100.0 * value:.4f}")
                else:
                    cells.append(f"{value:.3f}")
            pair = cells[0].ljust(cell_w) + " " + cells[1]
            row += "| " + pair.ljust(inner[model]) + " "
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def roc_csv(curve: RocCurve) -> str:
    lines = ["threshold,fpr,tpr"]
    for t, x, y in zip(curve.thresholds, curve.fpr, curve.tpr):
        lines.append(f"{t!r},{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def roc_svg(curve: RocCurve, title: str) -> str:
    """Standalone SVG line plot on a fixed 600x600 canvas, axes 0..1."""
    size = 600
    margin = 60
    span = size - 2 * margin

    def sx(x: float) -> str:
        return f"{margin + x * span:.2f}"

    def sy(y: float) -> str:
        return f"{size - margin - y * span:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{size / 2:.0f}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    for i in range(5):
        v = i / 4
        parts.append(
            f'<line x1="{sx(v)}" y1="{sy(0)}" x2="{sx(v)}" y2="{sy(1)}" '
            'stroke="#dddddd" stroke-width="1"/>')
        parts.append(
            f'<line x1="{sx(0)}" y1="{sy(v)}" x2="{sx(1)}" y2="{sy(v)}" '
            'stroke="#dddddd" stroke-width="1"/>')
        parts.append(
            f'<text x="{sx(v)}" y="{size - margin + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{v:.2f}</text>')
        parts.append(
            f'<text x="{margin - 10}" y="{sy(v)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{v:.2f}</text>')
    parts.append(
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
        'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="6,4"/>')
    parts.append(
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(0)}" '
        'stroke="black" stroke-width="1.5"/>')
    parts.append(
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(0)}" y2="{sy(1)}" '
        'stroke="black" stroke-width="1.5"/>')
    points = " ".join(f"{sx(x)},{sy(y)}" for x, y in zip(curve.fpr, curve.tpr))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#c0392b" stroke-width="2"/>')
    parts.append(
        f'<text x="{size / 2:.0f}" y="{size - 15}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">False positive rate</text>')
    parts.append(
        f'<text x="18" y="{size / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {size / 2:.0f})">True positive rate</text>')
    parts.append(
        f'<text x="{size - margin}" y="{size - margin - 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="13">AUC = {curve.auc:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
