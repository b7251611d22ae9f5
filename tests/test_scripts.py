"""Smoke tests for the command line scripts under scripts/."""

import importlib.util
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
