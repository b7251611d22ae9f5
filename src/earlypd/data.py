"""The fixed 13-feature schema, the Dataset column store, and CSV ingest / export.

Schema order is the contract: it fixes the CSV column layout, the feature
matrix columns and the node ordering used by the Bayes net. The features are
smell identification total (UPSIT), REM sleep questionnaire total (RBDSQ),
four CSF concentrations, three CSF ratios derived from them, and four striatal
binding ratios from DaT imaging.

CSV layout: UTF-8 (a leading byte-order mark is skipped), header row,
exactly 15 columns, subject_id first, the 13 features in schema order, then
label (0 healthy, 1 PD). Floats are written with 9 significant digits, which
round-trips exactly for any file this package itself writes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DivisionByZeroDenominator,
    MissingColumn,
    NonNumericCell,
    RangeViolation,
    UnreadableCsv,
)

HEALTHY = 0
PD = 1

FEATURE_NAMES = (
    "upsit_total",
    "rbdsq_total",
    "csf_abeta42",
    "csf_alpha_syn",
    "csf_ptau181",
    "csf_ttau",
    "ratio_ttau_abeta",
    "ratio_ptau_abeta",
    "ratio_ptau_ttau",
    "sbr_caudate_left",
    "sbr_caudate_right",
    "sbr_putamen_left",
    "sbr_putamen_right",
)
N_FEATURES = len(FEATURE_NAMES)
CSV_COLUMNS = ("subject_id",) + FEATURE_NAMES + ("label",)

# integer-scored questionnaires: name -> inclusive range
INTEGER_FEATURES = {"upsit_total": (0, 40), "rbdsq_total": (0, 12)}
# CSF concentrations must be strictly positive (pg/mL)
POSITIVE_FEATURES = ("csf_abeta42", "csf_alpha_syn", "csf_ptau181", "csf_ttau")
# derived from the CSF concentrations, in compute_ratios order
RATIO_FEATURES = ("ratio_ttau_abeta", "ratio_ptau_abeta", "ratio_ptau_ttau")
# ratios and binding ratios are non-negative
NONNEGATIVE_FEATURES = RATIO_FEATURES + (
    "sbr_caudate_left",
    "sbr_caudate_right",
    "sbr_putamen_left",
    "sbr_putamen_right",
)
# Stored ratios are rounded to 9 significant digits, whose worst-case
# relative rounding error is 5e-9 (half an ulp in the ninth digit), so the
# consistency check must sit above that.
RATIO_REL_TOL = 1e-8


def compute_ratios(abeta42: float, ttau: float, ptau181: float):
    """(ttau/abeta42, ptau181/abeta42, ptau181/ttau) for positive inputs."""
    if abeta42 == 0 or ttau == 0:
        raise DivisionByZeroDenominator(
            "ratio denominators csf_abeta42 and csf_ttau must be nonzero")
    return ttau / abeta42, ptau181 / abeta42, ptau181 / ttau


def record_violations(vector, label) -> list:
    """All (column, message) invariant violations for one feature vector.

    Checks run in schema order so the first entry is the leftmost problem.
    """
    out = []
    vals = {name: float(vector[i]) for i, name in enumerate(FEATURE_NAMES)}
    for name, (lo, hi) in INTEGER_FEATURES.items():
        v = vals[name]
        if not np.isfinite(v) or v != int(v):
            out.append((name, f"{name} must be an integer score, got {v}"))
        elif not lo <= v <= hi:
            out.append((name, f"{name} must lie in [{lo}, {hi}], got {v}"))
    for name in POSITIVE_FEATURES:
        if not vals[name] > 0:
            out.append((name, f"{name} must be > 0 pg/mL, got {vals[name]}"))
    for name in NONNEGATIVE_FEATURES:
        if not vals[name] >= 0:
            out.append((name, f"{name} must be >= 0, got {vals[name]}"))
    # ratio consistency only when the denominators are usable
    if vals["csf_abeta42"] > 0 and vals["csf_ttau"] > 0:
        expected = compute_ratios(vals["csf_abeta42"], vals["csf_ttau"], vals["csf_ptau181"])
        for name, want in zip(RATIO_FEATURES, expected):
            got = vals[name]
            if want == 0:
                ok = got == 0
            else:
                ok = abs(got - want) <= RATIO_REL_TOL * abs(want)
            if not ok:
                out.append((name, f"{name}={got} disagrees with recomputed {want}"))
    if label not in (HEALTHY, PD):
        out.append(("label", f"label must be 0 or 1, got {label}"))
    order = {name: i for i, name in enumerate(FEATURE_NAMES + ("label",))}
    out.sort(key=lambda item: order[item[0]])
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable column store: ids, (n, 13) float features, int labels.

    ``normalization`` is None for raw data; after min-max scaling it holds the
    per-feature (min, max) pairs the values were scaled with, and every stored
    feature value lies in [0, 1].
    """

    subject_ids: tuple
    features: np.ndarray
    labels: np.ndarray
    schema: tuple = FEATURE_NAMES
    normalization: tuple | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[1] != len(self.schema):
            raise ValueError("feature matrix width must match the schema")
        if feats.shape[0] != labs.shape[0] or feats.shape[0] != len(self.subject_ids):
            raise ValueError("ids, features and labels must have equal length")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))

    def __len__(self) -> int:
        return self.features.shape[0]

    def class_counts(self) -> tuple:
        """(healthy count, pd count)."""
        pd_count = int(np.count_nonzero(self.labels == PD))
        return len(self) - pd_count, pd_count

    def subset(self, indices) -> "Dataset":
        idx = list(indices)
        return replace(
            self,
            subject_ids=tuple(self.subject_ids[i] for i in idx),
            features=self.features[idx] if idx else np.empty((0, len(self.schema))),
            labels=self.labels[idx] if idx else np.empty((0,), dtype=np.int64),
        )


def _parse_number(cell: str, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise NonNumericCell(f"{cell!r} is not a number", column=column) from None
    if not np.isfinite(value):
        raise NonNumericCell(f"{cell!r} is not finite", column=column)
    return value


def _check_header(header) -> None:
    if header is None:
        raise MissingColumn("file is empty, expected a header row")
    got = tuple(h.strip() for h in header)
    if got != CSV_COLUMNS:
        missing = [c for c in CSV_COLUMNS if c not in got]
        extra = [c for c in got if c not in CSV_COLUMNS]
        detail = []
        if missing:
            detail.append("missing " + ", ".join(missing))
        if extra:
            detail.append("unexpected " + ", ".join(extra))
        if not detail:
            detail.append("columns out of order")
        raise MissingColumn("header mismatch: " + "; ".join(detail))


def _parse_row(cells):
    """(subject_id, vector, label) for one data row; raises on bad cells."""
    if len(cells) != len(CSV_COLUMNS):
        raise NonNumericCell(f"expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
    sid = cells[0]
    vector = np.empty(N_FEATURES)
    for i, name in enumerate(FEATURE_NAMES):
        vector[i] = _parse_number(cells[i + 1], name)
    raw_label = _parse_number(cells[-1], "label")
    label = int(raw_label) if raw_label == int(raw_label) else -1
    return sid, vector, label


def location(row: int, column) -> str:
    """'row R, column C' for a cell, or 'row R' for a whole row.

    Row numbers are 1-based over data rows (the header is row 0).
    """
    return f"row {row}, column {column}" if column else f"row {row}"


def _read_rows(path):
    """Yield (row_number, record, problems) for every non-blank data row.

    record is (subject_id, vector, label), or None when a cell does not parse.
    problems lists (error class, column, message) in schema order: the row's
    NonNumericCell, or every RangeViolation of its parsed values. column is
    None for a row with the wrong cell count, and messages name no row or
    column. Header problems raise MissingColumn; a file that is not UTF-8
    text (a leading byte-order mark is skipped), or that the csv module
    cannot split, raises UnreadableCsv.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            _check_header(next(reader, None))
            for row_number, cells in enumerate(reader, start=1):
                if not cells:
                    continue
                try:
                    record = _parse_row(cells)
                except NonNumericCell as err:
                    yield row_number, None, [(NonNumericCell, err.column, str(err))]
                    continue
                yield row_number, record, [
                    (RangeViolation, column, message)
                    for column, message in record_violations(record[1], record[2])]
    except (UnicodeDecodeError, csv.Error) as err:
        raise UnreadableCsv(f"{path} is not a readable CSV file: {err}") from None


def ingest_csv(path) -> Dataset:
    """Read a cohort CSV into a Dataset.

    Raises the first bad row's NonNumericCell or RangeViolation, with its row
    and column; header problems raise MissingColumn and unreadable files
    UnreadableCsv. `earlypd validate` lists every bad row instead.
    """
    ids, vectors, labels = [], [], []
    for row_number, record, problems in _read_rows(path):
        if problems:
            kind, column, message = problems[0]
            raise kind(f"{location(row_number, column)}: {message}",
                       row=row_number, column=column)
        sid, vector, label = record
        ids.append(sid)
        vectors.append(vector)
        labels.append(label)
    feats = np.array(vectors) if vectors else np.empty((0, N_FEATURES))
    return Dataset(tuple(ids), feats, np.array(labels, dtype=np.int64))


def format_value(x: float) -> str:
    """Decimal rendering with 9 significant digits; integral values lose the dot."""
    return f"{float(x):.9g}"


def nine_digit(x: float) -> float:
    """The closest double to the 9-significant-digit decimal rendering of x."""
    return float(format_value(x))


def export_csv(ds: Dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for sid, row, label in zip(ds.subject_ids, ds.features, ds.labels):
            writer.writerow([sid, *(format_value(v) for v in row), int(label)])


def validate_file(path) -> list:
    """Every invariant violation in a CSV as (row, column, kind, message) tuples.

    Unlike ingest_csv this does not stop at the first bad row. column is ""
    for a row with the wrong cell count.
    """
    return [(row_number, column or "", kind.__name__, message)
            for row_number, _record, problems in _read_rows(path)
            for kind, column, message in problems]
