"""The fixed 13-feature schema, the Dataset column store, and CSV ingest / export.

Schema order is the contract: it fixes the CSV column layout, the feature
matrix columns and the node ordering used by the Bayes net. The features are
smell identification total (UPSIT), REM sleep questionnaire total (RBDSQ),
four CSF concentrations, three CSF ratios derived from them, and four striatal
binding ratios from DaT imaging.

CSV layout: UTF-8 (a leading byte-order mark is skipped), header row,
exactly 15 columns, subject_id first (non-empty and unique), the 13 features
in schema order, then label (0 healthy, 1 PD). Floats are written with 9
significant digits, which round-trips exactly for any file this package
itself writes.

Export writes BLOCK_ROWS rows at a time, each formatted by one "%" format:
the subject id as csv.writer writes it (an id with no comma, double quote,
"\r" or "\n" as it is), each feature as "%.9g" (format_value's text,
"24" for 24.0 and "1e+21" for 1e21) and the label as an integer. The header
is the 15 column names joined by commas, and every line ends in "\n".

Ingest reads BLOCK_ROWS rows at a time by one of two routes, with the same
results. A plain block (every line a subject id and 14 unquoted decimal
cells, no quote, carriage return or NUL) needs no csv.reader: its lines are
its rows. From the first block that is not plain, csv.reader splits every
row to the end of the file: a file with CRLF line ends takes that route from
the start, and one with a quoted cell from that cell's block on. Either way
a block's numbers are read by one np.loadtxt call over its rows' bodies, the
text after each subject id; a block that call refuses is read row by row for
the exact error.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, MissingColumn, NonNumericCell, RangeViolation, UnreadableCsv

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
    """(ttau/abeta42, ptau181/abeta42, ptau181/ttau) for positive inputs,
    elementwise on arrays too."""
    if np.any(abeta42 == 0) or np.any(ttau == 0):
        raise DataError("ratio denominators csf_abeta42 and csf_ttau must be nonzero")
    return ttau / abeta42, ptau181 / abeta42, ptau181 / ttau


_COLUMN_ORDER = {name: i for i, name in enumerate(FEATURE_NAMES + ("label",))}


def _failing(mask, *columns):
    """(index, value, ...) as Python numbers for each True entry of mask."""
    idx = np.flatnonzero(mask)
    return zip(idx.tolist(), *(column[idx].tolist() for column in columns))


def record_violations(features, labels) -> list:
    """All (index, column, message) invariant violations of an (n, 13) matrix.

    labels holds the n label cells as floats. Each rule is one elementwise
    comparison over a column, and only a failing cell gets a message. Entries
    run in row order, then schema order; two messages on one cell keep the
    order of the rules below.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    col = dict(zip(FEATURE_NAMES, features.T))
    out = []
    for name, (lo, hi) in INTEGER_FEATURES.items():
        v = col[name]
        integral = np.isfinite(v) & (v == np.trunc(v))
        out += [(i, name, f"{name} must be an integer score, got {x}")
                for i, x in _failing(~integral, v)]
        out += [(i, name, f"{name} must lie in [{lo}, {hi}], got {x}")
                for i, x in _failing(integral & ~((lo <= v) & (v <= hi)), v)]
    for name in POSITIVE_FEATURES:
        out += [(i, name, f"{name} must be > 0 pg/mL, got {x}")
                for i, x in _failing(~(col[name] > 0), col[name])]
    for name in NONNEGATIVE_FEATURES:
        out += [(i, name, f"{name} must be >= 0, got {x}")
                for i, x in _failing(~(col[name] >= 0), col[name])]
    # ratio consistency only where the denominators are usable
    usable = np.flatnonzero((col["csf_abeta42"] > 0) & (col["csf_ttau"] > 0))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = compute_ratios(*(col[name][usable] for name in
                                    ("csf_abeta42", "csf_ttau", "csf_ptau181")))
        for name, want in zip(RATIO_FEATURES, expected):
            got = col[name][usable]
            ok = np.where(want == 0, got == 0,
                          np.abs(got - want) <= RATIO_REL_TOL * np.abs(want))
            out += [(i, name, f"{name}={g} disagrees with recomputed {w}")
                    for _j, i, g, w in _failing(~ok, usable, got, want)]
    out += [(i, "label", f"label must be 0 or 1, got {format_value(x)}")
            for i, x in _failing((labels != HEALTHY) & (labels != PD), labels)]
    out.sort(key=lambda item: (item[0], _COLUMN_ORDER[item[1]]))
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable column store: ids, (n, k) float features, int labels; k is
    13, the FEATURE_NAMES in order, for every cohort ingested or generated."""

    subject_ids: tuple
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError("the feature matrix must be 2-D")
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
            features=self.features[idx],
            labels=self.labels[idx],
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


def _parse_row(cells) -> list:
    """The 14 numbers of one data row; raises NonNumericCell at its first bad cell."""
    if len(cells) != len(CSV_COLUMNS):
        raise NonNumericCell(f"expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
    return [_parse_number(cell, name) for cell, name in zip(cells[1:], CSV_COLUMNS[1:])]


def location(row: int, column) -> str:
    """'row R, column C' for a cell, or 'row R' for a whole row.

    Row numbers are 1-based over data rows (the header is row 0).
    """
    return f"row {row}, column {column}" if column else f"row {row}"


# Data rows per block. Ingest holds one block of lines or cell lists at a
# time, so this also bounds the reader's memory.
BLOCK_ROWS = 1024


def _parse_block(block, seen_ids, values=None):
    """(ids, values, findings) for a block of (row_number, cells) pairs.

    values is the (m, 14) matrix of the rows whose cells all parse, in file
    order, and ids are their subject ids. The plain route passes the matrix
    it has read as values; the cells of each pair then need only the subject
    id as their first item. Otherwise a block of 15-cell rows goes to
    _body_values whole, and a block it refuses to _parse_row row by row.
    findings lists (row_number, error class, column, message) in row order. Within a row, an empty subject_id,
    or one already in seen_ids (id -> first row, shared across blocks), comes
    first; then either the row's NonNumericCell or every RangeViolation of
    its values, in schema order. column is None for a row with the wrong cell
    count, and messages name no row or column.
    """
    findings = []
    for row_number, cells in block:
        sid = cells[0]
        if not sid.strip():
            findings.append((row_number, RangeViolation, "subject_id", "subject_id is empty"))
        elif sid in seen_ids:
            findings.append((row_number, RangeViolation, "subject_id",
                             f"subject_id {sid!r} already used in row {seen_ids[sid]}"))
        else:
            seen_ids[sid] = row_number
    # a row of the wrong cell count must not be joined into a body of 14
    if values is None and all(len(cells) == len(CSV_COLUMNS) for _row, cells in block):
        values = _body_values([",".join(cells[1:]) for _row, cells in block])
    if values is None:
        # row by row, for the exact message and column of each bad cell
        parsed, rows = [], []
        for row_number, cells in block:
            try:
                rows.append(_parse_row(cells))
            except NonNumericCell as err:
                findings.append((row_number, NonNumericCell, err.column, str(err)))
            else:
                parsed.append((row_number, cells))
        block = parsed
        values = np.array(rows, dtype=np.float64).reshape(-1, len(CSV_COLUMNS) - 1)
    for i, column, message in record_violations(values[:, :N_FEATURES], values[:, N_FEATURES]):
        findings.append((block[i][0], RangeViolation, column, message))
    findings.sort(key=lambda finding: finding[0])
    return [cells[0] for _row, cells in block], values, findings


# The characters a row body may hold: decimal cells, commas and the line's
# end. Within them float() and np.loadtxt read every
# cell alike, to the bit (tests/test_data.py pins this).
_PLAIN = b"0123456789.eE+-,\n"


def _plain_values(lines, parts):
    """The (m, 14) matrix of a block of raw lines, or None unless every line
    is a plain record: no quote, carriage return or NUL, no line longer than
    csv.reader's field limit, and a body _body_values reads. parts holds each
    line's partition at its first comma."""
    text = "".join(lines)
    if '"' in text or "\r" in text or "\0" in text:
        return None
    # csv.reader rejects a cell longer than its field limit
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    return _body_values([cells for _sid, _comma, cells in parts])


def _body_values(bodies):
    """The (m, 14) matrix of m row bodies in one np.loadtxt call, or None
    unless each body is 14 finite decimal cells joined by commas. A body is
    the text of a row after its subject_id and first comma."""
    # a blank or id-only line has an empty body, which loadtxt would skip
    if "" in bodies or "\n" in bodies:
        return None
    body = "".join(bodies)
    if not body.isascii() or body.encode().translate(None, _PLAIN):
        return None
    try:
        values = np.loadtxt(bodies, delimiter=",", comments=None, ndmin=2,
                            dtype=np.float64)
    except ValueError:
        return None
    if values.shape != (len(bodies), len(CSV_COLUMNS) - 1) or not np.isfinite(values).all():
        return None
    return values


def _read_blocks(path):
    """Yield _parse_block's (ids, values, findings) per BLOCK_ROWS data rows.

    Data rows are numbered from 1 in file order, blank lines included, and
    blank lines are then skipped. Header problems raise MissingColumn; a file
    that is not UTF-8 text (a leading byte-order mark is skipped), or that
    the csv module cannot split, raises UnreadableCsv.

    Blocks of BLOCK_ROWS raw lines are read with one np.loadtxt call each
    while every line is plain (see _plain_values); there a line is a row.
    From the first block that is not plain to the end of the file, csv.reader
    splits the rows. Both routes give the same blocks.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            _check_header(next(csv.reader(fh), None))
            seen_ids, row = {}, 1
            while lines := list(itertools.islice(fh, BLOCK_ROWS)):
                parts = [line.partition(",") for line in lines]
                values = _plain_values(lines, parts)
                if values is None:
                    break
                yield _parse_block(list(zip(itertools.count(row), parts)), seen_ids, values)
                row += len(lines)
            reader = csv.reader(itertools.chain(lines, fh))
            rows = ((n, cells) for n, cells in enumerate(reader, start=row) if cells)
            while block := list(itertools.islice(rows, BLOCK_ROWS)):
                yield _parse_block(block, seen_ids)
    except (UnicodeDecodeError, csv.Error) as err:
        raise UnreadableCsv(f"{path} is not a readable CSV file: {err}") from None


def ingest_csv(path) -> Dataset:
    """Read a cohort CSV into a Dataset.

    Raises the first bad row's NonNumericCell or RangeViolation, with its row
    and column; header problems raise MissingColumn and unreadable files
    UnreadableCsv. `earlypd validate` lists every bad row instead.
    """
    ids, blocks = [], [np.empty((0, len(CSV_COLUMNS) - 1))]
    for block_ids, values, findings in _read_blocks(path):
        if findings:
            row, kind, column, message = findings[0]
            raise kind(f"{location(row, column)}: {message}", row=row, column=column)
        ids += block_ids
        blocks.append(values)
    # features and labels straight from the blocks: no whole-file matrix to copy
    return Dataset(tuple(ids), np.concatenate([v[:, :N_FEATURES] for v in blocks]),
                   np.concatenate([v[:, N_FEATURES] for v in blocks]).astype(np.int64))


def format_value(x: float) -> str:
    """Decimal rendering with 9 significant digits; integral values lose the dot."""
    return f"{float(x):.9g}"


def nine_digit(x) -> np.ndarray:
    """The closest doubles to the 9-significant-digit decimal renderings of
    the values of x, as an array of x's shape, formatted and parsed in one
    pass."""
    values = np.asarray(x, dtype=np.float64)
    flat = values.ravel().tolist()
    text = ("%.9g," * len(flat)) % tuple(flat)
    return np.array(list(map(float, text.split(",")[:-1]))).reshape(values.shape)


def _csv_cells(ids) -> list:
    """The subject ids as csv.writer writes the first cell of a row."""
    ids = list(map(str, ids))
    joined = "".join(ids)
    if not any(c in joined for c in ',"\r\n'):
        return ids
    cells = []
    for sid in ids:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([sid, ""])
        cells.append(buffer.getvalue()[:-2])
    return cells


def export_csv(ds: Dataset, path) -> None:
    """Write ds as the CSV layout above, BLOCK_ROWS records per write: each
    row is its subject id (quoted as csv.writer quotes it), every feature in
    "%.9g" format, which is format_value's text, and the label."""
    row_format = "%s," + "%.9g," * ds.features.shape[1] + "%d\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for start in range(0, len(ds), BLOCK_ROWS):
            stop = start + BLOCK_ROWS
            rows = zip(_csv_cells(ds.subject_ids[start:stop]),
                       ds.features[start:stop].tolist(), ds.labels[start:stop].tolist())
            fh.write("".join([row_format % (sid, *row, label) for sid, row, label in rows]))


def validate_file(path) -> list:
    """Every invariant violation in a CSV as (row, column, kind, message) tuples.

    Unlike ingest_csv this does not stop at the first bad row. column is ""
    for a row with the wrong cell count.
    """
    return [(row, column or "", kind.__name__, message)
            for _ids, _values, findings in _read_blocks(path)
            for row, kind, column, message in findings]
