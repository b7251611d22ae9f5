"""Smoke tests for the command line scripts under scripts/."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_separation_sweep_runs_on_a_tiny_grid(tmp_path, capsys):
    sweep = _load("separation_sweep")
    out = tmp_path / "sweep.csv"
    assert sweep.main(["--separations", "1", "--seeds", "1", "--n-healthy", "20",
                       "--n-pd", "20", "--csv", str(out)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["separation", "mlp", "bayesnet", "forest", "boostlr"]
    assert table[2].split()[0] == "1.00"
    rows = out.read_text().splitlines()
    assert rows[0] == "separation,seed,model,test_auc"
    assert len(rows) == 1 + 4  # one seed, one separation, four models
    assert all(0.0 <= float(row.split(",")[3]) <= 1.0 for row in rows[1:])


@pytest.mark.parametrize("argv, message", [
    (["--seeds", "0"], "--seeds must be at least 1, got 0"),
    (["--separations", ""], "--separations needs at least one value"),
    (["--separations", " , "], "--separations needs at least one value"),
    (["--separations", "0,half"], "--separations: could not convert string to float"),
])
def test_separation_sweep_refuses_an_empty_grid(argv, message, capsys):
    sweep = _load("separation_sweep")
    with pytest.raises(SystemExit) as exit_info:
        sweep.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, error, message", [
    (["--separations", "-1"], "config", "separation must be >= 0, got -1.0"),
    (["--n-healthy", "-1"], "config", "cohort sizes cannot be negative"),
    (["--n-healthy", "1", "--n-pd", "1"], "data", "class 0 has 1 records, need at least 2"),
], ids=["negative separation", "negative cohort", "one record per class"])
def test_separation_sweep_reports_a_pipeline_error_as_one_json_line(argv, error, message,
                                                                    capsys):
    sweep = _load("separation_sweep")
    rc = sweep.main(argv + ["--seeds", "1"])
    lines = capsys.readouterr().err.splitlines()
    assert rc == (2 if error == "config" else 1)
    assert len(lines) == 1, lines  # one JSON line, no traceback
    err = json.loads(lines[0])
    assert err["error"] == error and err["message"] == message
