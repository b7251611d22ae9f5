"""Schema, ratio math, CSV round-trips, and validation behavior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from earlypd.data import (
    CSV_COLUMNS,
    FEATURE_NAMES,
    HEALTHY,
    PD,
    Dataset,
    compute_ratios,
    export_csv,
    format_value,
    ingest_csv,
    nine_digit,
    record_violations,
    validate_file,
)
from earlypd.errors import (
    DivisionByZeroDenominator,
    MissingColumn,
    NonNumericCell,
    RangeViolation,
)
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
    with pytest.raises(DivisionByZeroDenominator):
        compute_ratios(0.0, 200.0, 50.0)
    with pytest.raises(DivisionByZeroDenominator):
        compute_ratios(1000.0, 0.0, 50.0)


_VALID = dict(
    upsit_total=24, rbdsq_total=6, csf_abeta42=1000.0, csf_alpha_syn=1800.0,
    csf_ptau181=50.0, csf_ttau=200.0, ratio_ttau_abeta=0.2, ratio_ptau_abeta=0.05,
    ratio_ptau_ttau=0.25, sbr_caudate_left=2.1, sbr_caudate_right=2.0,
    sbr_putamen_left=1.1, sbr_putamen_right=1.05,
)


def _record(label=PD, **overrides):
    """(vector, label) for record_violations: a valid record with some values replaced."""
    values = {**_VALID, **overrides}
    return np.array([values[name] for name in FEATURE_NAMES]), label


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
    assert column in [c for c, _ in problems]


def test_violations_sorted_by_schema_order():
    problems = record_violations(*_record(upsit_total=99, label=7))
    assert [c for c, _ in problems] == ["upsit_total", "label"]


def test_non_integer_score_is_flagged():
    problems = record_violations(*_record(rbdsq_total=6.5))
    assert problems and problems[0][0] == "rbdsq_total"


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


@pytest.mark.parametrize("non_numeric_row", [2, 4])
def test_ingest_and_validate_agree_on_bad_rows(tmp_path, non_numeric_row):
    """Ingest stops at validate_file's first finding, with its class, row and
    column."""
    cohort = generate(GenerateConfig(n_healthy=3, n_pd=3), 4)
    p = tmp_path / "cohort.csv"
    export_csv(cohort, p)
    lines = p.read_text().splitlines()

    def set_cell(row, column, text):
        cells = lines[row].split(",")
        cells[CSV_COLUMNS.index(column)] = text
        lines[row] = ",".join(cells)

    set_cell(non_numeric_row, "csf_ttau", "n/a")
    set_cell(3, "upsit_total", "77")
    set_cell(5, "label", "3")
    set_cell(5, "sbr_caudate_left", "-1")
    p.write_text("\n".join(lines) + "\n")

    findings = validate_file(p)
    bad_rows = sorted({f[0] for f in findings})
    assert bad_rows == sorted({non_numeric_row, 3, 5})
    row, column, kind, message = findings[0]
    with pytest.raises((NonNumericCell, RangeViolation)) as err:
        ingest_csv(p)
    assert type(err.value).__name__ == kind
    assert (err.value.row, err.value.column) == (row, column)
    assert str(err.value).endswith(message)


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


def test_dataset_shape_checks():
    with pytest.raises(ValueError):
        Dataset(("a",), np.zeros((1, 2)), np.zeros(1, dtype=np.int64))
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
