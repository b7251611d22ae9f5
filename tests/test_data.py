"""Schema, ratio math, CSV round-trips, and validation behavior."""

import csv
import functools
import itertools
import math
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from earlypd.data import (
    BLOCK_ROWS,
    CSV_COLUMNS,
    FEATURE_NAMES,
    HEALTHY,
    PD,
    RATIO_FEATURES,
    RATIO_REL_TOL,
    Dataset,
    _plain_values,
    compute_ratios,
    export_csv,
    format_value,
    ingest_csv,
    nine_digit,
    record_violations,
    validate_file,
)
from earlypd.errors import DataError, MissingColumn, NonNumericCell, RangeViolation
from earlypd.synth import GenerateConfig, generate

from conftest import datasets_equal


def test_schema_shape():
    assert len(FEATURE_NAMES) == 13
    assert CSV_COLUMNS[0] == "subject_id"
    assert CSV_COLUMNS[-1] == "label"
    assert CSV_COLUMNS[1:-1] == FEATURE_NAMES
    assert (HEALTHY, PD) == (0, 1)


def test_compute_ratios_hand_values():
    assert compute_ratios(1000.0, 200.0, 50.0) == (0.2, 0.05, 0.25)
    assert compute_ratios(500.0, 250.0, 100.0) == (0.5, 0.2, 0.4)


def test_compute_ratios_zero_denominator():
    message = "ratio denominators csf_abeta42 and csf_ttau must be nonzero"
    with pytest.raises(DataError, match=message):
        compute_ratios(0.0, 200.0, 50.0)
    with pytest.raises(DataError, match=message):
        compute_ratios(1000.0, 0.0, 50.0)


_VALID = dict(
    upsit_total=24, rbdsq_total=6, csf_abeta42=1000.0, csf_alpha_syn=1800.0,
    csf_ptau181=50.0, csf_ttau=200.0, ratio_ttau_abeta=0.2, ratio_ptau_abeta=0.05,
    ratio_ptau_ttau=0.25, sbr_caudate_left=2.1, sbr_caudate_right=2.0,
    sbr_putamen_left=1.1, sbr_putamen_right=1.05,
)


def _record(label=PD, **overrides):
    """(features, labels) for record_violations: one valid record with some
    values replaced."""
    values = {**_VALID, **overrides}
    return (np.array([[values[name] for name in FEATURE_NAMES]]),
            np.array([label], dtype=float))


def test_valid_record_has_no_violations():
    assert record_violations(*_record()) == []


@pytest.mark.parametrize("overrides, column", [
    (dict(upsit_total=41), "upsit_total"),
    (dict(rbdsq_total=-1), "rbdsq_total"),
    (dict(csf_abeta42=-5.0, ratio_ttau_abeta=-40.0, ratio_ptau_abeta=-10.0), "csf_abeta42"),
    (dict(sbr_putamen_left=-0.1), "sbr_putamen_left"),
    (dict(ratio_ptau_ttau=0.3), "ratio_ptau_ttau"),
    (dict(label=3), "label"),
])
def test_violations_are_detected(overrides, column):
    problems = record_violations(*_record(**overrides))
    assert column in [c for _i, c, _m in problems]


def test_violations_sorted_by_schema_order():
    problems = record_violations(*_record(upsit_total=99, label=7))
    assert [c for _i, c, _m in problems] == ["upsit_total", "label"]


def test_non_integer_score_is_flagged():
    problems = record_violations(*_record(rbdsq_total=6.5))
    assert problems and problems[0][1] == "rbdsq_total"


def _near_ratio(want):
    """Stored ratio values around want: exact, at and just beyond the
    tolerance on both sides, zero, and out of range."""
    at = RATIO_REL_TOL * abs(want)
    return st.sampled_from([
        want, want + at, want - at,
        float(np.nextafter(want + at, math.inf)), float(np.nextafter(want - at, -math.inf)),
        want * (1 + 1.01 * RATIO_REL_TOL), 0.0, -0.0, -want,
    ])


@st.composite
def _rule_rows(draw):
    """(vector, label) rows that sit on or next to each record rule's edges."""
    conc = st.sampled_from([0.0, -0.0, -5.0, 1e-3]) | st.floats(1e-3, 1e4)
    values = {
        "upsit_total": draw(st.sampled_from([-1, 0, 0.5, 24, 24.5, 40, 40.5, 41])
                            | st.integers(-3, 43)),
        "rbdsq_total": draw(st.sampled_from([-1, -0.0, 0, 6.5, 12, 12.5, 13])),
        **{name: draw(conc) for name in
           ("csf_abeta42", "csf_alpha_syn", "csf_ptau181", "csf_ttau")},
        **{name: draw(st.sampled_from([0.0, -0.0, -0.1]) | st.floats(0, 5))
           for name in ("sbr_caudate_left", "sbr_caudate_right",
                        "sbr_putamen_left", "sbr_putamen_right")},
    }
    abeta, ttau, ptau = values["csf_abeta42"], values["csf_ttau"], values["csf_ptau181"]
    if abeta > 0 and ttau > 0:
        wants = compute_ratios(abeta, ttau, ptau)
    else:
        wants = (0.2, 0.05, 0.25)
    for name, want in zip(RATIO_FEATURES, wants):
        values[name] = draw(_near_ratio(want))
    label = draw(st.sampled_from([0, 1, -0.0, 0.5, 7, 1e20]))
    return [float(values[name]) for name in FEATURE_NAMES], float(label)


def _on_ratio_bound(beyond):
    """A row whose ratio_ttau_abeta differs from the recomputed ratio by
    exactly RATIO_REL_TOL of it (want = 2**-30 / RATIO_REL_TOL, so the bound
    is 2**-30 with no rounding), or by one ulp more."""
    want = 2.0**-30 / RATIO_REL_TOL
    got = want + 2.0**-30
    if beyond:
        got = float(np.nextafter(got, math.inf))
    values = {**_VALID, "csf_abeta42": 1.0, "csf_ttau": want, "csf_ptau181": 0.05,
              "ratio_ttau_abeta": got, "ratio_ptau_abeta": 0.05, "ratio_ptau_ttau": 0.05 / want}
    return [float(values[name]) for name in FEATURE_NAMES], 1.0


@settings(max_examples=300, deadline=None)
@given(st.lists(_rule_rows(), min_size=1, max_size=6))
@example([_on_ratio_bound(beyond=False), _on_ratio_bound(beyond=True)])
def test_record_violations_match_the_per_row_reference(rows):
    features = np.array([vector for vector, _label in rows])
    labels = np.array([label for _vector, label in rows])
    found = record_violations(features, labels)
    assert [i for i, _c, _m in found] == sorted(i for i, _c, _m in found)
    for i, (vector, label) in enumerate(rows):
        assert [(c, m) for j, c, m in found if j == i] == \
            reference.record_violations(np.array(vector), label)


def test_ingest_fixture(fixture_csv):
    ds = ingest_csv(fixture_csv)
    assert len(ds) == 3
    assert ds.class_counts() == (1, 2)
    assert ds.subject_ids == ("S001", "S002", "S003")
    assert ds.features[0, FEATURE_NAMES.index("ratio_ptau_ttau")] == 0.25
    assert list(ds.labels) == [1, 1, 0]


def test_export_ingest_round_trip(tmp_path, fixture_csv):
    ds = ingest_csv(fixture_csv)
    out = tmp_path / "copy.csv"
    export_csv(ds, out)
    again = ingest_csv(out)
    assert datasets_equal(ds, again)
    # and the bytes themselves are stable under a second round trip
    out2 = tmp_path / "copy2.csv"
    export_csv(again, out2)
    assert out.read_text() == out2.read_text()


def test_ingest_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("subject_id,upsit_total\nS1,3\n")
    with pytest.raises(MissingColumn):
        ingest_csv(p)


def test_ingest_rejects_reordered_header(tmp_path, fixture_csv):
    lines = fixture_csv.read_text().splitlines()
    cols = lines[0].split(",")
    cols[1], cols[2] = cols[2], cols[1]
    p = tmp_path / "reordered.csv"
    p.write_text("\n".join([",".join(cols)] + lines[1:]) + "\n")
    with pytest.raises(MissingColumn, match="out of order"):
        ingest_csv(p)


def test_ingest_rejects_non_numeric_cell(tmp_path, fixture_csv):
    text = fixture_csv.read_text().replace("1800", "oops")
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(NonNumericCell) as err:
        ingest_csv(p)
    assert err.value.row == 1
    assert err.value.column == "csf_alpha_syn"


def test_ingest_rejects_violation_with_location(tmp_path, fixture_csv):
    text = fixture_csv.read_text().replace("S002,20", "S002,77")
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(RangeViolation) as err:
        ingest_csv(p)
    assert err.value.row == 2
    assert err.value.column == "upsit_total"


def test_validate_file_reports_all_findings(tmp_path, fixture_csv):
    text = fixture_csv.read_text()
    text = text.replace("S002,20", "S002,77").replace("2400", "nope")
    p = tmp_path / "bad.csv"
    p.write_text(text)
    findings = validate_file(p)
    assert len(findings) == 2
    rows = sorted(f[0] for f in findings)
    assert rows == [2, 3]


def test_validate_file_clean(fixture_csv):
    assert validate_file(fixture_csv) == []


def test_empty_and_repeated_subject_ids_are_rejected(tmp_path, fixture_csv):
    text = fixture_csv.read_text().replace("S002,", "S001,").replace("S003,", ",")
    p = tmp_path / "ids.csv"
    p.write_text(text)
    with pytest.raises(RangeViolation) as err:
        ingest_csv(p)
    assert (err.value.row, err.value.column) == (2, "subject_id")
    assert str(err.value) == "row 2, column subject_id: subject_id 'S001' already used in row 1"
    assert validate_file(p) == [
        (2, "subject_id", "RangeViolation", "subject_id 'S001' already used in row 1"),
        (3, "subject_id", "RangeViolation", "subject_id is empty"),
    ]


@pytest.mark.parametrize("cell", [
    " 2.5 ", "2_5", "+2.5", "\uff12.\uff15", "25e-1", "-0.0", "0", "1e-400",
    "0x1p1", "2__5", "_25", "2.5.", "nan", "-inf", "Infinity", "1e400", "",
])
def test_cells_parse_as_float_does(tmp_path, fixture_csv, cell):
    """The block conversion accepts exactly what float() accepts, to the bit,
    and a cell float() rejects, or reads as non-finite, is a NonNumericCell."""
    p = tmp_path / "cell.csv"
    p.write_text(fixture_csv.read_text().replace(",2.1,", f",{cell},"))
    try:
        want = float(cell)
    except ValueError:
        want = math.nan
    if math.isfinite(want):
        got = ingest_csv(p).features[0, FEATURE_NAMES.index("sbr_caudate_left")]
        assert got.tobytes() == np.float64(want).tobytes()
    else:
        with pytest.raises(NonNumericCell) as err:
            ingest_csv(p)
        assert (err.value.row, err.value.column) == (1, "sbr_caudate_left")


def test_three_block_cohort_ingests_bit_identical(tmp_path):
    cohort = generate(GenerateConfig(n_healthy=1200, n_pd=1300), 4)
    assert len(cohort) > 2 * BLOCK_ROWS
    p = tmp_path / "cohort.csv"
    export_csv(cohort, p)
    again = ingest_csv(p)
    assert again.subject_ids == cohort.subject_ids
    assert again.features.tobytes() == cohort.features.tobytes()
    assert again.labels.tobytes() == cohort.labels.tobytes()
    # the seen ids span blocks: a third-block row repeating row 1's id
    lines = p.read_text().splitlines()
    lines[2400] = lines[1].split(",")[0] + "," + lines[2400].split(",", 1)[1]
    p.write_text("\n".join(lines) + "\n")
    assert validate_file(p) == [(2400, "subject_id", "RangeViolation",
                                 f"subject_id {cohort.subject_ids[0]!r} already used in row 1")]


# case: (row -> its subject_id cell as written, with upsit_total 99 in row 4
# or not; validate_file's findings). A quoted id sends the file down the
# csv.reader route. With two rows a block, rows 3 and 4 share one, and row 7
# repeats an id of the first block.
ID_FAULTS = {
    "repeat within a block": ({4: "SYN00003"}, True, [
        (4, "subject_id", "RangeViolation", "subject_id 'SYN00003' already used in row 3"),
        (4, "upsit_total", "RangeViolation", "upsit_total must lie in [0, 40], got 99.0")]),
    "repeat of an earlier block": ({7: "SYN00001"}, False, [
        (7, "subject_id", "RangeViolation", "subject_id 'SYN00001' already used in row 1")]),
    "blank and whitespace ids": ({2: "", 5: "   "}, False, [
        (2, "subject_id", "RangeViolation", "subject_id is empty"),
        (5, "subject_id", "RangeViolation", "subject_id is empty")]),
    "quoted id": ({3: '"S,3"', 6: '"S,3"'}, False, [
        (6, "subject_id", "RangeViolation", "subject_id 'S,3' already used in row 3")]),
}


@pytest.mark.parametrize("block_rows", [2, BLOCK_ROWS])
@pytest.mark.parametrize("case", ID_FAULTS)
def test_subject_id_findings_across_blocks(tmp_path, case, block_rows):
    """Blank and repeated ids give the same findings, rows and messages
    whatever the block size, and on either reading route."""
    ids, bad_score, want = ID_FAULTS[case]
    p = tmp_path / "ids.csv"
    export_csv(generate(GenerateConfig(n_healthy=4, n_pd=4), 7), p)
    lines = p.read_text().splitlines()
    for row, cell in ids.items():
        lines[row] = cell + "," + lines[row].split(",", 1)[1]
    if bad_score:
        cells = lines[4].split(",")
        lines[4] = ",".join([cells[0], "99", *cells[2:]])
    p.write_text("\n".join(lines) + "\n")
    with unittest.mock.patch("earlypd.data.BLOCK_ROWS", block_rows):
        assert validate_file(p) == want
        with pytest.raises(RangeViolation) as err:
            ingest_csv(p)
    row, column, _kind, message = want[0]
    assert (err.value.row, err.value.column) == (row, column)
    assert str(err.value) == f"row {row}, column {column}: {message}"


@pytest.mark.parametrize("n_healthy, n_pd, blank_rows, non_numeric_row, range_rows", [
    pytest.param(3, 3, (), 2, (3, 5), id="2"),
    pytest.param(3, 3, (), 4, (3, 5), id="4"),
    # 2,500 records span three reader blocks; the blank lines around the
    # first block boundary still count as rows
    pytest.param(1200, 1300, (BLOCK_ROWS - 1, BLOCK_ROWS + 2), 1500, (2300, 2400),
                 id="three-blocks"),
])
def test_ingest_and_validate_agree_on_bad_rows(tmp_path, n_healthy, n_pd, blank_rows,
                                               non_numeric_row, range_rows):
    """Ingest stops at validate_file's first finding, with its class, row and
    column."""
    cohort = generate(GenerateConfig(n_healthy=n_healthy, n_pd=n_pd), 4)
    p = tmp_path / "cohort.csv"
    export_csv(cohort, p)
    lines = p.read_text().splitlines()
    for row in blank_rows:
        lines.insert(row, "")

    def set_cell(row, column, text):
        cells = lines[row].split(",")
        cells[CSV_COLUMNS.index(column)] = text
        lines[row] = ",".join(cells)

    set_cell(non_numeric_row, "csf_ttau", "n/a")
    set_cell(range_rows[0], "upsit_total", "77")
    set_cell(range_rows[1], "label", "3")
    set_cell(range_rows[1], "sbr_caudate_left", "-1")
    p.write_text("\n".join(lines) + "\n")

    findings = validate_file(p)
    bad_rows = sorted({f[0] for f in findings})
    assert bad_rows == sorted({non_numeric_row, *range_rows})
    row, column, kind, message = findings[0]
    with pytest.raises((NonNumericCell, RangeViolation)) as err:
        ingest_csv(p)
    assert type(err.value).__name__ == kind
    assert (err.value.row, err.value.column) == (row, column)
    assert str(err.value).endswith(message)


@pytest.fixture(scope="module")
def cohort_lines() -> tuple:
    """The header and 2,050 records of a generated cohort, as export_csv
    writes them, without line ends."""
    cohort = generate(GenerateConfig(n_healthy=1025, n_pd=1025), 6)
    return (",".join(CSV_COLUMNS),) + tuple(
        ",".join([sid, *map(format_value, row), str(int(label))])
        for sid, row, label in zip(cohort.subject_ids, cohort.features, cohort.labels))


@pytest.fixture(scope="module")
def csv_scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "cohort.csv"


# cells the two routes must treat alike: plain ones the row rules reject, ones
# outside the plain alphabet that float() and np.loadtxt read apart, and a
# quoted one whose newline np.loadtxt would take for a line end
ODD_CELLS = ("1e", ".", "1e400", " 1", "1_0", "\x1c1", "\uff11", "1\x00", '"2.5"',
             "n/a", "", "-1", "77", "1e-400", "+.5E+1", '"1\n5"')
ROW = st.integers(0, 2048)
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["blank", "id only", "trailing comma", "extra cell",
                               "quoted id", "crlf"]), ROW),
    st.tuples(st.just("duplicate id"), ROW, ROW),
    st.tuples(st.just("merged cells"), ROW, st.integers(2, len(CSV_COLUMNS) - 1)),
    st.tuples(st.just("cell"), ROW, st.integers(1, len(CSV_COLUMNS) - 1),
              st.sampled_from(ODD_CELLS)),
)


def _mutate(lines, mutation):
    """Apply one MUTATIONS entry to a list of data lines, in place."""
    kind, row, *args = mutation
    row %= len(lines)
    sid, _comma, rest = lines[row].partition(",")
    if kind == "blank":
        lines.insert(row, "")
    elif kind == "id only":
        lines[row] = sid
    elif kind == "trailing comma":
        lines[row] += ","
    elif kind == "extra cell":
        lines[row] += ",1"
    elif kind == "quoted id":  # one record on two lines
        lines[row] = f'"{sid[:3]}\n{sid[3:]}",{rest}'
    elif kind == "crlf":
        lines[row] += "\r"
    elif kind == "duplicate id":  # a later or earlier line takes this line's id
        other = args[0] % len(lines)
        lines[other] = sid + "," + lines[other].partition(",")[2]
    elif kind == "merged cells":  # two data cells quoted as one that holds a comma
        cells = lines[row].split(",")
        k = min(args[0], len(cells) - 1)
        cells[k - 1:k + 1] = ['"' + ",".join(cells[k - 1:k + 1]) + '"']
        lines[row] = ",".join(cells)
    else:
        cells = lines[row].split(",")
        cells[args[0] % len(cells)] = args[1]
        lines[row] = ",".join(cells)


def _outcome(read, path):
    """What read(path) gives: the dataset's ids and bytes, validate_file's
    list, or the error's class, message, row and column."""
    try:
        result = read(path)
    except DataError as err:
        return type(err), str(err), err.row, err.column
    if isinstance(result, Dataset):
        return result.subject_ids, result.features.tobytes(), result.labels.tobytes()
    return result


@settings(max_examples=30, deadline=None)
@given(n_rows=st.sampled_from([1, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 1]),
       mutations=st.lists(MUTATIONS, max_size=4), ending=st.sampled_from(["\n", "\r\n"]),
       bom=st.booleans(), final_end=st.booleans())
# a duplicate id first used in a plain block and used again after the switch
@example(n_rows=2 * BLOCK_ROWS + 1, mutations=[("duplicate id", 5, 1500), ("blank", 1100)],
         ending="\n", bom=False, final_end=True)
@example(n_rows=BLOCK_ROWS + 1, mutations=[("quoted id", BLOCK_ROWS - 1), ("blank", 0)],
         ending="\n", bom=True, final_end=False)
@example(n_rows=BLOCK_ROWS, mutations=[("cell", BLOCK_ROWS - 1, 14, "1e400")],
         ending="\n", bom=False, final_end=True)
# a cell that np.loadtxt reads and float() rejects, and a record of 16 cells
# in a block of one
@example(n_rows=BLOCK_ROWS, mutations=[("cell", 700, 3, "\x1c1")], ending="\n", bom=False,
         final_end=True)
@example(n_rows=1, mutations=[("extra cell", 0)], ending="\n", bom=False, final_end=False)
# a subject_id longer than csv.reader's field limit, before plain cells
@example(n_rows=3, mutations=[("cell", 1, 0, "x" * (csv.field_size_limit() + 1))],
         ending="\n", bom=False, final_end=True)
# a row of 14 cells whose two merged cells hold the 14 numbers between them,
# and a quoted cell holding a line end
@example(n_rows=3, mutations=[("merged cells", 0, 2)], ending="\n", bom=False, final_end=True)
@example(n_rows=3, mutations=[("cell", 1, 3, '"1\n5"')], ending="\n", bom=False,
         final_end=True)
def test_reader_matches_csv_reader_reference(cohort_lines, csv_scratch, n_rows, mutations,
                                             ending, bom, final_end):
    """ingest_csv and validate_file give what they give with every row split by
    csv.reader and converted alone, on files around the block size with blank,
    short, long, quoted, CRLF, merged-cell and odd-celled lines."""
    header, *lines = cohort_lines[:n_rows + 1]
    for mutation in mutations:
        _mutate(lines, mutation)
    text = ending.join([header, *lines]) + (ending if final_end else "")
    csv_scratch.write_bytes((b"\xef\xbb\xbf" if bom else b"") + text.encode())
    for read in (ingest_csv, validate_file):
        assert _outcome(read, csv_scratch) == _outcome(
            functools.partial(reference.with_csv_reader, read), csv_scratch)


# decimals near the rounding boundaries of doubles, in the plain alphabet
LONG_DECIMALS = (
    "9007199254740993", "9007199254740993.00000000000000000001", "9007199254740995",
    "0.1000000000000000055511151231257827021181583404541015625",
    "0.30000000000000004", "1e23", "8.41e21", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "4.9406564584124654e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "1.7976931348623157e308", "1.7976931348623158e308",
    "1.7976931348623159e308", "123456789012345678901234567890e-29",
    "0." + "0" * 320 + "49406564584124654",
)


def test_plain_cells_read_as_float_does():
    """A cell in the plain route's alphabet is read by np.loadtxt exactly when
    float() reads it as a finite number, and to the same bits. If a numpy
    release changes loadtxt's number grammar, this fails."""
    cells = ["".join(chars) for n in range(1, 6)
             for chars in itertools.product("05.eE+-", repeat=n)]
    assert len(cells) == 19_607
    for cell in cells + list(LONG_DECIMALS):
        lines = [f"S1,{cell}" + ",0" * (len(CSV_COLUMNS) - 2) + "\n"]
        got = _plain_values(lines, [line.partition(",") for line in lines])
        try:
            want = float(cell)
        except ValueError:
            want = math.inf
        if math.isfinite(want):
            assert got is not None and got[0, 0].tobytes() == np.float64(want).tobytes(), cell
        else:
            assert got is None, cell


def test_dataset_is_immutable(fixture_csv):
    ds = ingest_csv(fixture_csv)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.labels[0] = 0


def test_dataset_subset(fixture_csv):
    ds = ingest_csv(fixture_csv)
    a = ds.subset([0])
    b = ds.subset([1, 2])
    assert len(a) == 1 and len(b) == 2
    assert a.subject_ids + b.subject_ids == ds.subject_ids
    assert np.array_equal(np.vstack([a.features, b.features]), ds.features)
    assert np.array_equal(np.concatenate([a.labels, b.labels]), ds.labels)
    empty = ds.subset([])
    assert empty.features.shape == (0, len(FEATURE_NAMES)) and empty.features.dtype == np.float64
    assert empty.labels.shape == (0,) and empty.labels.dtype == np.int64


def test_dataset_shape_checks():
    with pytest.raises(ValueError, match="2-D"):
        Dataset(("a",), np.zeros(13), np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError):
        Dataset(("a", "b"), np.zeros((1, 13)), np.zeros(1, dtype=np.int64))


def test_format_value_nine_digits():
    assert format_value(0.123456789123) == "0.123456789"
    assert format_value(24.0) == "24"
    assert format_value(1234.56789) == "1234.56789"


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_nine_digit_round_trips_through_text(x):
    snapped = nine_digit(x)
    assert float(format_value(snapped)) == snapped


@given(st.floats(min_value=1e-3, max_value=1e6))
def test_nine_digit_relative_error_bound(x):
    assert abs(nine_digit(x) - x) <= 5e-9 * x


# any double: the edge values, and hypothesis's own draws
CELL_VALUES = st.one_of(st.sampled_from([-0.0, 0.0, 1e-10, 1e21, 24.0, -3.0, 1e16, 5e-324,
                                         math.inf, -math.inf, math.nan]),
                        st.floats(), st.integers(-10**12, 10**12).map(float))


@given(st.lists(CELL_VALUES, max_size=40))
def test_nine_digit_equals_format_value_per_element(values):
    got = nine_digit(np.array(values).reshape(-1, 2) if len(values) % 2 == 0 else values)
    assert got.shape == ((len(values) // 2, 2) if len(values) % 2 == 0 else (len(values),))
    want = [float(format_value(v)) for v in values]
    assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want]


# ids with the characters csv.writer quotes, or that it might, among others
SUBJECT_IDS = st.one_of(st.sampled_from(["a,b", 'say "x"', "two words", "", "line\nend",
                                         "cr\rid", " lead", "\x00"]),
                        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(SUBJECT_IDS, st.lists(CELL_VALUES, min_size=13, max_size=13),
                               st.sampled_from([HEALTHY, PD])), max_size=9),
       block_rows=st.sampled_from([1, 2, 4, BLOCK_ROWS]))
def test_export_equals_csv_writer(rows, block_rows, tmp_path_factory):
    """export_csv's blocks against csv.writer row by row: the same bytes."""
    ids = tuple(sid for sid, _row, _label in rows)
    features = np.array([row for _sid, row, _label in rows]).reshape(-1, 13)
    ds = Dataset(ids, features, [label for _sid, _row, label in rows])
    folder = tmp_path_factory.mktemp("export")
    with unittest.mock.patch("earlypd.data.BLOCK_ROWS", block_rows):
        export_csv(ds, folder / "got.csv")
    reference.reference_export_csv(ds, folder / "want.csv")
    assert (folder / "got.csv").read_bytes() == (folder / "want.csv").read_bytes()
