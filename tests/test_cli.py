"""Command line behavior: every subcommand, flag precedence, exit codes, and
byte-level determinism of artifact directories."""

import json
import math
from pathlib import Path

import pytest

from earlypd.cli import main
from earlypd.data import ingest_csv
from earlypd.pipeline import load_model_file

from conftest import datasets_equal
from reference import node_list_forest_text
from test_pipeline import DEFECTS, FOREST_DEFECTS

FAST_CONFIG = {
    "seed": 9,
    "generate": {"n_healthy": 24, "n_pd": 40},
    "mlp": {"hidden_units": 4, "epochs": 40},
    "forest": {"trees": 10},
}


@pytest.fixture(scope="session")
def exp_dir(tmp_path_factory):
    """One reduced experiment run shared by the read-only subcommand tests."""
    root = tmp_path_factory.mktemp("cli_experiment")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(FAST_CONFIG))
    out = root / "out"
    rc = main(["experiment", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    return config_path, out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("earlypd ")


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["generate", "--bogus"]) == 2
    assert main(["frobnicate"]) == 2


def test_generate_then_validate(tmp_path, capsys):
    out = tmp_path / "cohort.csv"
    rc = main(["generate", "--out", str(out), "--n-healthy", "6",
               "--n-pd", "9", "--seed", "3"])
    assert rc == 0
    assert f"wrote {out} (6 healthy, 9 pd)" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 16  # header plus 15 records
    assert main(["validate", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_problems(tmp_path, capsys):
    source = tmp_path / "cohort.csv"
    main(["generate", "--out", str(source), "--n-healthy", "4", "--n-pd", "4",
          "--seed", "3"])
    capsys.readouterr()
    lines = [line.split(",") for line in source.read_text().splitlines()]
    lines[1][-1] = "2"  # label outside {0, 1}
    lines[2][1] = "-3"  # negative score on a non-negative integer scale
    lines[3][4] = "oops"  # csf_alpha_syn
    del lines[4][2]  # 14 cells
    lines[5][-1] = "0.5"  # a label that is no class, named as written
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(",".join(cells) + "\n" for cells in lines))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "row 1, column label: RangeViolation: label must be 0 or 1, got 2",
        "row 2, column upsit_total: RangeViolation: upsit_total must lie in [0, 40], got -3.0",
        "row 3, column csf_alpha_syn: NonNumericCell: 'oops' is not a number",
        "row 4: NonNumericCell: expected 15 cells, got 14",
        "row 5, column label: RangeViolation: label must be 0 or 1, got 0.5",
        "5 problem(s) found",
    ]


def test_byte_order_mark_is_accepted(tmp_path, capsys, fixture_csv):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + fixture_csv.read_bytes())
    assert datasets_equal(ingest_csv(bom), ingest_csv(fixture_csv))
    assert main(["validate", str(bom)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_experiment_writes_expected_artifacts(exp_dir):
    _config, out = exp_dir
    for name in ("cohort.csv", "preprocess.json", "evaluations.json",
                 "report.csv", "report.txt", "run_config.json", "metadata.json"):
        assert (out / name).is_file()
    models = sorted(p.name for p in (out / "models").iterdir())
    assert models == ["bayesnet.json", "boostlr.json", "forest.json", "mlp.json"]
    for model in ("mlp", "bayesnet", "forest", "boostlr"):
        assert (out / f"roc_{model}_test.csv").is_file()
        assert (out / f"roc_{model}_test.svg").is_file()


def test_experiment_reruns_are_byte_identical(exp_dir, tmp_path):
    config_path, first = exp_dir
    second = tmp_path / "again"
    assert main(["experiment", "--config", str(config_path),
                 "--out", str(second)]) == 0
    names = sorted(p.relative_to(first).as_posix()
                   for p in first.rglob("*") if p.is_file())
    again = sorted(p.relative_to(second).as_posix()
                   for p in second.rglob("*") if p.is_file())
    assert names == again
    for name in names:
        if name == "metadata.json":
            continue  # carries the wall-clock timestamp
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_flags_override_config_file(exp_dir, tmp_path, capsys):
    config_path, _out = exp_dir
    out = tmp_path / "subset"
    rc = main(["experiment", "--config", str(config_path), "--seed", "5",
               "--models", "forest", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "Random Forest" in printed
    assert "Multilayer Perceptron" not in printed
    saved = json.loads((out / "run_config.json").read_text())
    assert saved["seed"] == 5  # flag wins
    assert saved["generate"]["n_healthy"] == 24  # config file value kept
    assert saved["models"] == ["forest"]
    assert [p.name for p in (out / "models").iterdir()] == ["forest.json"]


def test_train_subcommand(exp_dir, tmp_path, capsys):
    config_path, experiment = exp_dir
    out = tmp_path / "trained"
    rc = main(["train", "--config", str(config_path), "--models",
               "forest,bayesnet", "--out", str(out)])
    assert rc == 0
    assert "trained" in capsys.readouterr().out
    assert (out / "cohort.csv").is_file()
    assert (out / "preprocess.json").is_file()
    assert (out / "run_config.json").is_file()
    assert sorted(p.name for p in (out / "models").iterdir()) == [
        "bayesnet.json", "forest.json"]
    assert not (out / "report.csv").exists()
    assert not (out / "evaluations.json").exists()
    # what train writes is what the same experiment writes
    for name in ("cohort.csv", "preprocess.json", "models/bayesnet.json",
                 "models/forest.json"):
        assert (out / name).read_bytes() == (experiment / name).read_bytes(), name


def test_evaluate_subcommand(exp_dir, capsys):
    _config, out = exp_dir
    rc = main(["evaluate", "--model", str(out / "models" / "forest.json"),
               "--input", str(out / "cohort.csv"),
               "--preprocess", str(out / "preprocess.json")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "forest"
    assert payload["records"] == 64
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert 0.0 <= payload["auc"] <= 1.0
    assert payload["confusion"]["tp"] + payload["confusion"]["fn"] == 40


def test_evaluate_rejects_non_model_json(exp_dir, tmp_path, capsys):
    _config, out = exp_dir
    model = out / "models" / "forest.json"
    sidecar = out / "preprocess.json"
    forest_stub = tmp_path / "forest_stub.json"
    forest_stub.write_text('{"kind": "forest"}')
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{not json")
    no_schema = tmp_path / "no_schema.json"
    payload = json.loads(sidecar.read_text())
    del payload["schema"]
    no_schema.write_text(json.dumps(payload))
    # models that score more features than the CSV has
    wide_forest = tmp_path / "wide_forest.json"
    forest = json.loads(model.read_text())
    forest["n_features"] = 20
    forest["trees"][0]["feature"][0] = 15
    wide_forest.write_text(json.dumps(forest))
    wide_mlp = tmp_path / "wide_mlp.json"
    mlp = json.loads((out / "models" / "mlp.json").read_text())
    mlp["w_hidden"] += [0.0] * mlp["shape_hidden"][0]
    mlp["shape_hidden"][1] += 1
    wide_mlp.write_text(json.dumps(mlp))
    # a boosted model 12 wide in every round, and one whose rounds differ
    narrow_boost = tmp_path / "narrow_boostlr.json"
    mixed_boost = tmp_path / "mixed_width_boostlr.json"
    boost = json.loads((out / "models" / "boostlr.json").read_text())
    rounds = boost["rounds"]
    boost["rounds"] = rounds + [dict(rounds[0], coef=rounds[0]["coef"][:12])]
    mixed_boost.write_text(json.dumps(boost))
    boost["rounds"] = [dict(r, coef=r["coef"][:12]) for r in rounds]
    narrow_boost.write_text(json.dumps(boost))
    # a Bayes net of 12 features, each node, table and cut list consistent
    narrow_bn = tmp_path / "narrow_bayesnet.json"
    bn = json.loads((out / "models" / "bayesnet.json").read_text())
    del bn["discretization"][bn["schema"].pop()]
    for key in ("arities", "parents", "cpts"):
        bn[key].pop()
    narrow_bn.write_text(json.dumps(bn))
    # (model file, sidecar, the file the error names)
    cases = [
        (out / "run_config.json", sidecar, out / "run_config.json"),
        (forest_stub, sidecar, forest_stub),
        (not_json, sidecar, not_json),
        (model, no_schema, no_schema),
        (wide_forest, sidecar, wide_forest),
        (wide_mlp, sidecar, wide_mlp),
        (narrow_boost, sidecar, narrow_boost),
        (mixed_boost, sidecar, mixed_boost),
        (narrow_bn, sidecar, narrow_bn),
    ]
    for name, defect in FOREST_DEFECTS.items():
        forest = json.loads(model.read_text())
        defect(forest["trees"], forest["n_features"])
        path = tmp_path / f"forest {name}.json"
        path.write_text(json.dumps(forest))
        cases.append((path, sidecar, path))
    for kind, defects in DEFECTS.items():
        for name, defect in defects.items():
            obj = json.loads((out / "models" / f"{kind}.json").read_text())
            defect(obj)
            path = tmp_path / f"{kind} {name}.json"
            path.write_text(json.dumps(obj))
            cases.append((path, sidecar, path))
    for model_path, sidecar_path, culprit in cases:
        rc = main(["evaluate", "--model", str(model_path),
                   "--input", str(out / "cohort.csv"),
                   "--preprocess", str(sidecar_path)])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2, culprit.name
        assert len(lines) == 1, lines  # one JSON line, no traceback
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert str(culprit) in err["message"]


SIDECAR_DEFECTS = {
    "null min": lambda p: p["normalization"]["upsit_total"].update(min=None),
    "string min": lambda p: p["normalization"]["upsit_total"].update(min="12"),
    "NaN max": lambda p: p["normalization"]["csf_ttau"].update(max=math.nan),
    "true min": lambda p: p["normalization"]["csf_ttau"].update(min=True),
    "min above max": lambda p: p["normalization"]["sbr_caudate_left"].update(min=1e9),
    "extra feature": lambda p: p["normalization"].update(extra={"min": 0, "max": 1}),
    "true cut": lambda p: p["discretization"]["upsit_total"].update(cuts=[True]),
    "int beyond the doubles": lambda p: p["normalization"]["csf_ttau"].update(max=10**400),
}


@pytest.mark.parametrize("defect", SIDECAR_DEFECTS)
def test_evaluate_rejects_bad_sidecar_values(exp_dir, tmp_path, capsys, defect):
    _config, out = exp_dir
    payload = json.loads((out / "preprocess.json").read_text())
    SIDECAR_DEFECTS[defect](payload)
    sidecar = tmp_path / "preprocess.json"
    sidecar.write_text(json.dumps(payload))
    rc = main(["evaluate", "--model", str(out / "models" / "forest.json"),
               "--input", str(out / "cohort.csv"), "--preprocess", str(sidecar)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1, lines  # one JSON line, no traceback
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert str(sidecar) in err["message"]


def test_evaluate_rejects_node_list_forest(exp_dir, tmp_path, capsys):
    # a forest saved before model files had versions and columnar trees
    _config, out = exp_dir
    _kind, forest = load_model_file(out / "models" / "forest.json")
    old = tmp_path / "forest.json"
    old.write_text(node_list_forest_text(forest))
    rc = main(["evaluate", "--model", str(old), "--input", str(out / "cohort.csv"),
               "--preprocess", str(out / "preprocess.json")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1, lines  # one JSON line, no traceback
    message = json.loads(lines[0])["message"]
    assert str(old) in message
    assert "version None" in message and "retrain" in message


def test_report_subcommand(exp_dir, tmp_path, capsys):
    _config, out = exp_dir
    rc = main(["report", "--evaluations", str(out / "evaluations.json"),
               "--format", "csv"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed == (out / "report.csv").read_text()
    rc = main(["report", "--evaluations", str(out / "evaluations.json")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Multilayer Perceptron" in text
    assert "BayesNet" in text
    target = tmp_path / "report.txt"
    rc = main(["report", "--evaluations", str(out / "evaluations.json"),
               "--out", str(target)])
    assert rc == 0
    assert f"wrote {target}" in capsys.readouterr().out
    assert target.read_text() == text


def test_report_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "evaluations.json"
    not_json = tmp_path / "not_json.json"
    bad.write_text(json.dumps({"surprise": True}))
    not_json.write_text("{not json")
    for argv in (["report", "--evaluations", str(bad)],
                 ["report", "--evaluations", str(not_json)],
                 ["roc", "--evaluations", str(not_json), "--model", "mlp"]):
        assert main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines  # one JSON line, no traceback
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert argv[2] in err["message"]


def test_roc_subcommand(exp_dir, tmp_path, capsys):
    _config, out = exp_dir
    rc = main(["roc", "--evaluations", str(out / "evaluations.json"),
               "--model", "forest"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed == (out / "roc_forest_test.csv").read_text()
    assert printed.splitlines()[0] == "threshold,fpr,tpr"
    svg = tmp_path / "curve.svg"
    rc = main(["roc", "--evaluations", str(out / "evaluations.json"),
               "--model", "mlp", "--format", "svg", "--out", str(svg)])
    assert rc == 0
    assert svg.read_text().startswith("<svg")


def test_roc_missing_model_is_config_error(exp_dir, tmp_path, capsys):
    config_path, _out = exp_dir
    solo = tmp_path / "solo"
    assert main(["experiment", "--config", str(config_path),
                 "--models", "forest", "--out", str(solo)]) == 0
    capsys.readouterr()
    rc = main(["roc", "--evaluations", str(solo / "evaluations.json"),
               "--model", "mlp"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_missing_input_is_io_error(capsys):
    rc = main(["experiment", "--input", "/does/not/exist.csv", "--out", "unused"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io"


def test_unreadable_csv_is_data_error(exp_dir, tmp_path, capsys):
    _config, out = exp_dir
    header = (out / "cohort.csv").read_text().splitlines()[0]
    not_utf8 = tmp_path / "utf16.csv"
    not_utf8.write_bytes(b"\xff\xfe" + header.encode("utf-16-le"))
    huge_field = tmp_path / "huge.csv"
    huge_field.write_text(header + "\n" + "x" * 200_000 + ",1\n")
    for path in (not_utf8, huge_field):
        for argv in (["validate", str(path)],
                     ["experiment", "--input", str(path), "--out", str(tmp_path / "o")],
                     ["evaluate", "--model", str(out / "models" / "forest.json"),
                      "--input", str(path), "--preprocess", str(out / "preprocess.json")]):
            rc = main(argv)
            lines = capsys.readouterr().err.splitlines()
            assert rc == 1, argv
            assert len(lines) == 1, lines  # one JSON line, no traceback
            payload = json.loads(lines[0])
            assert payload["error"] == "data"
            assert payload["kind"] == "UnreadableCsv"
            assert str(path) in payload["message"]


def test_bad_config_value_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    for bad in ({"train_fraction": 1.5}, {"seed": "abc"}, {"generate": {"n_healthy": "x"}},
                {"boostlr": {"max_rounds": "3"}}, {"input": 5}, {"models": "boostlr"},
                {"forest": {"trees": 0}}, {"mlp": {"hidden_units": -1}},
                {"mlp": {"hidden_units": 0}}, {"mlp": {"epochs": 0}},
                {"mlp": {"learning_rate": -1.0}}, {"boostlr": {"max_rounds": 0}},
                {"bayesnet": {"bins": 1}}, {"forest": {"feature_subset": 0}},
                {"forest": {"feature_subset": -3}},
                {"bayesnet": {"strategy": "bogus"}, "mlp": {"epochs": 50}}):
        config.write_text(json.dumps(bad))
        rc = main(["experiment", "--config", str(config), "--out",
                   str(tmp_path / "out")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2, bad
        assert len(lines) == 1, lines  # one JSON line, no traceback
        assert json.loads(lines[0])["error"] == "config"
    assert not (tmp_path / "out").exists()


def test_data_error_payload_carries_location(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    main(["generate", "--out", str(bad), "--n-healthy", "3", "--n-pd", "3",
          "--seed", "8"])
    capsys.readouterr()
    lines = bad.read_text().splitlines()
    row = lines[2].split(",")
    row[3] = "not-a-number"
    lines[2] = ",".join(row)
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["experiment", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "data"
    assert err["row"] == 2
