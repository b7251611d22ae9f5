"""Command line behavior: every subcommand, flag precedence, exit codes, and
byte-level determinism of artifact directories."""

import csv
import errno
import json
import math
import os
import stat
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import earlypd.cli
import earlypd.data
import earlypd.pipeline
from earlypd.cli import main
from earlypd.data import INTEGER_FEATURES, export_csv, ingest_csv
from earlypd.jsontext import json_text
from earlypd.pipeline import load_model_file
from earlypd.synth import load_params

from conftest import datasets_equal
from reference import node_list_forest_text, v1_model_dict, v2_model_dict
from test_pipeline import DEFECTS, FOREST_DEFECTS, _disk_full_at, _set_alphas

SRC = Path(__file__).resolve().parent.parent / "src"

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
    for name in ("cohort.csv", "preprocess.json", "scores.csv",
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
    assert not (out / "scores.csv").exists()
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


def _not_reached(*args, **kwargs):
    raise AssertionError("the cohort was normalized or scored")


@pytest.mark.parametrize("n_healthy, n_pd, lacks", [
    (0, 10, "healthy (label 0)"), (10, 0, "PD (label 1)")])
def test_evaluate_refuses_a_cohort_of_one_class(exp_dir, tmp_path, capsys, monkeypatch,
                                               n_healthy, n_pd, lacks):
    _config, out = exp_dir
    cohort = tmp_path / "one_class.csv"
    assert main(["generate", "--n-healthy", str(n_healthy), "--n-pd", str(n_pd),
                 "--out", str(cohort)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(earlypd.cli, "normalize_apply", _not_reached)
    monkeypatch.setattr(earlypd.cli, "score_batch", _not_reached)
    rc = main(["evaluate", "--model", str(out / "models" / "forest.json"),
               "--input", str(cohort), "--preprocess", str(out / "preprocess.json")])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines  # one JSON line, no traceback
    assert json.loads(lines[0]) == {
        "error": "data", "kind": "DataError", "message":
        f"evaluate needs both classes, and {cohort} is a cohort without a {lacks} record"}
    assert captured.out == ""


def test_bayesnet_file_with_a_strategy_scores_the_same(exp_dir, tmp_path, capsys):
    # a file written while the settings held "strategy": the key is ignored
    _config, out = exp_dir
    model = out / "models" / "bayesnet.json"
    argv = ["--input", str(out / "cohort.csv"), "--preprocess", str(out / "preprocess.json")]
    assert main(["evaluate", "--model", str(model)] + argv) == 0
    want = capsys.readouterr()
    assert want.err == ""
    for strategy in ("equal_frequency", "equal_width"):
        old = tmp_path / f"bayesnet_{strategy}.json"
        old.write_text(json_text({**json.loads(model.read_text()), "strategy": strategy}))
        assert main(["evaluate", "--model", str(old)] + argv) == 0
        assert capsys.readouterr() == want, strategy


def _never_called(*args, **kwargs):
    raise AssertionError("a model was trained")


# (command, models, train_fraction): what the message says the split lacks
SPLITS_WITHOUT_A_CLASS = {
    # no testing record at all
    ("experiment", "boostlr", "0.999"):
        "testing split without a healthy (label 0) or a PD (label 1) record",
    # one PD testing record
    ("experiment", "boostlr", "0.9985"): "testing split without a healthy (label 0) record",
    **{(command, models, "0.001"):
       "training split without a healthy (label 0) or a PD (label 1) record"
       for command, models in (("experiment", "boostlr"), ("experiment", "mlp"),
                               ("train", "boostlr"))},
}


@pytest.mark.parametrize("command, models, fraction", SPLITS_WITHOUT_A_CLASS)
def test_a_split_without_both_classes_is_refused_before_training(
        tmp_path, capsys, monkeypatch, command, models, fraction):
    for trainer in ("mlp_train", "bn_train", "forest_train", "adaboost_train"):
        monkeypatch.setattr(earlypd.pipeline, trainer, _never_called)
    out = tmp_path / "out"
    rc = main([command, "--models", models, "--train-fraction", fraction, "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines  # one JSON line, no traceback
    err = json.loads(lines[0])
    assert err["error"] == "data"
    want = SPLITS_WITHOUT_A_CLASS[command, models, fraction]
    assert err["message"] == f"train_fraction {fraction} leaves the {want}"
    assert not out.exists()


def test_train_does_not_check_its_testing_split(tmp_path, capsys):
    # train never evaluates its testing split, so an empty one is no fault
    out = tmp_path / "out"
    assert main(["train", "--models", "boostlr", "--train-fraction", "0.999",
                 "--out", str(out)]) == 0
    assert (out / "models" / "boostlr.json").is_file()


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
    mlp["w_hidden"] += [0.0] * mlp["hidden_units"]  # one column more
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
    for key in ("parents", "cpts"):
        bn[key].pop()
    narrow_bn.write_text(json.dumps(bn))
    # a Bayes net and a sidecar listing two features of the CSV in swapped
    # places; the two have the same number of cuts, so the tables still fit
    swapped_bn = tmp_path / "swapped_bayesnet.json"
    swapped_sidecar = tmp_path / "swapped_preprocess.json"
    for source, swapped in ((out / "models" / "bayesnet.json", swapped_bn),
                            (sidecar, swapped_sidecar)):
        obj = json.loads(source.read_text())
        names = obj["schema"]
        i, j = names.index("sbr_caudate_left"), names.index("sbr_putamen_right")
        names[i], names[j] = names[j], names[i]
        swapped.write_text(json.dumps(obj))
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
        (swapped_bn, sidecar, swapped_bn),
        (model, swapped_sidecar, swapped_sidecar),
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
    "int beyond the doubles": lambda p: p["normalization"]["csf_ttau"].update(max=10**400),
    "version 7": lambda p: p.update(version=7),
    "string version": lambda p: p.update(version="1"),
    "no version": lambda p: p.pop("version"),
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
    # a forest saved before model files had versions and columnar trees, and
    # one of version 2, whose trees stored each node's children
    _config, out = exp_dir
    _kind, forest = load_model_file(out / "models" / "forest.json")
    for version, text in ((None, node_list_forest_text(forest)),
                          (2, json_text(v2_model_dict(forest)))):
        old = tmp_path / f"forest_{version}.json"
        old.write_text(text)
        rc = main(["evaluate", "--model", str(old), "--input", str(out / "cohort.csv"),
                   "--preprocess", str(out / "preprocess.json")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(lines) == 1, lines  # one JSON line, no traceback
        message = json.loads(lines[0])["message"]
        assert str(old) in message
        assert f"version {version}" in message and "retrain" in message


def test_module_entry_point_refuses_bad_model_files(exp_dir, tmp_path):
    # `python -m earlypd` in a fresh interpreter, as a user runs it: a model
    # file of version 1 and a boosted file with a negative alpha each end in
    # one JSON line on stderr naming the file, with no warning before it
    _config, out = exp_dir
    v1 = tmp_path / "mlp_v1.json"
    v1.write_text(json_text(v1_model_dict(load_model_file(out / "models" / "mlp.json")[1])))
    boost = json.loads((out / "models" / "boostlr.json").read_text())
    _set_alphas(boost, 1, -1)
    negative = tmp_path / "boostlr_alphas_1_-1.json"
    negative.write_text(json.dumps(boost))
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for model in (v1, negative):
        done = subprocess.run(
            [sys.executable, "-m", "earlypd", "evaluate", "--model", str(model),
             "--input", str(out / "cohort.csv"), "--preprocess", str(out / "preprocess.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1, lines
        err = json.loads(lines[0])
        assert err["error"] == "config" and str(model) in err["message"]


def test_report_subcommand(exp_dir, tmp_path, capsys):
    _config, out = exp_dir
    rc = main(["report", "--scores", str(out / "scores.csv"), "--format", "csv"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed == (out / "report.csv").read_text()
    rc = main(["report", "--scores", str(out / "scores.csv")])
    assert rc == 0
    text = capsys.readouterr().out
    assert text == (out / "report.txt").read_text()
    assert "Multilayer Perceptron" in text
    assert "BayesNet" in text
    target = tmp_path / "report.txt"
    rc = main(["report", "--scores", str(out / "scores.csv"), "--out", str(target)])
    assert rc == 0
    assert f"wrote {target}" in capsys.readouterr().out
    assert target.read_text() == text


def _with_header(run, header: str) -> str:
    """The run's scores.csv with its header line replaced."""
    return "\n".join([header, *(run / "scores.csv").read_text().splitlines()[1:]]) + "\n"


def test_report_rejects_malformed_file(exp_dir, tmp_path, capsys):
    _config, out = exp_dir
    bad = tmp_path / "scores.csv"
    not_csv = tmp_path / "not_csv.csv"
    bad.write_text(json.dumps({"surprise": True}))
    not_csv.write_text("{not csv")
    argvs = [["report", "--scores", str(bad)],
             ["report", "--scores", str(not_csv)],
             ["roc", "--scores", str(not_csv), "--model", "mlp"]]
    # a header that is not subject_id,split,label and at least one model; an
    # unknown or repeated model is in SCORES_DEFECTS
    for name, header in {"no_models": "subject_id,split,label",
                         "renamed_id": "id,split,label,mlp,bayesnet,forest,boostlr",
                         "swapped": "subject_id,label,split,mlp,bayesnet,forest,boostlr"}.items():
        spoiled = tmp_path / f"header_{name}.csv"
        spoiled.write_text(_with_header(out, header))
        argvs += [["report", "--scores", str(spoiled), "--format", "csv"],
                  ["roc", "--scores", str(spoiled), "--model", "mlp"]]
    for argv in argvs:
        assert main(argv) == 2, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines  # one JSON line, no traceback
        err = json.loads(lines[0])
        assert err["error"] == "config"
        assert argv[2] in err["message"]


# Each JSON input: (the command that reads the file given as bad, the run
# directory and a scratch directory; the valid JSON it was made from).
JSON_INPUTS = {
    "config": (lambda bad, run, tmp: ["experiment", "--config", bad, "--out", tmp / "o"],
               lambda run: json.loads((run / "run_config.json").read_text())),
    "params": (lambda bad, run, tmp: ["generate", "--params", bad, "--out", tmp / "c.csv"],
               lambda run: json.loads(json.dumps(asdict(load_params())))),
    "model": (lambda bad, run, tmp: ["evaluate", "--model", bad, "--input", run / "cohort.csv",
                                     "--preprocess", run / "preprocess.json"],
              lambda run: json.loads((run / "models" / "mlp.json").read_text())),
    "preprocess": (lambda bad, run, tmp: ["evaluate", "--model", run / "models" / "forest.json",
                                          "--input", run / "cohort.csv", "--preprocess", bad],
                   lambda run: json.loads((run / "preprocess.json").read_text())),
}

# Ways to spoil every input, each from the valid JSON to the bad file's bytes.
SPOILED_FILES = {
    "not_utf8": lambda obj: b"\xff\xfe" + json.dumps(obj).encode("utf-16-le"),
    "truncated": lambda obj: json.dumps(obj)[:40].encode(),
    "array": lambda obj: json.dumps([obj]).encode(),
    "nested_too_deep": lambda obj: b"[" * 100_000 + b"]" * 100_000,
}


# Kinds that name no model, each a case of the model file below
NOT_KINDS = {"svm": "svm", "7": 7, "list": ["x"], "null": None}
# What the message of a case below says, beyond the file's name
MESSAGES = {f"kind_{name}": f"kind {kind!r} is not one of mlp, bayesnet, forest, boostlr"
            for name, kind in NOT_KINDS.items()}

# One value of the wrong type, or the wrong shape, in each input.
WRONG_VALUES = {
    "config": {"string_train_fraction": lambda c: c.update(train_fraction="0.7")},
    "params": {
        "string_mean_pd": lambda p: p["features"]["csf_ttau"].update(mean_pd="168"),
        # keys of the version 1 format, which version 2 dropped
        "correlation_pairs": lambda p: p.update(correlation_pairs=[]),
        "integer_flag": lambda p: p["features"]["upsit_total"].update(integer_flag=True),
        "feature_not_an_object": lambda p: p["features"].update(csf_ttau=[168.0, 40.0]),
        "string_version": lambda p: p.update(version="7"),
        "version_1": lambda p: p.update(version=1),
        "min_above_max": lambda p: p["features"]["upsit_total"].update(min=50, max=10),
        "negative_concentrations": lambda p: p["features"]["csf_abeta42"].update(
            min=-100, max=-50),
        "negative_sd": lambda p: p["features"]["csf_ttau"].update(sd_pd=-1.0),
    },
    "model": {
        "string_weight": lambda m: m["w_hidden"].__setitem__(0, "0.5"),
        **{f"kind_{name}": lambda m, kind=kind: m.update(kind=kind)
           for name, kind in NOT_KINDS.items()},
    },
    "preprocess": {"string_min": lambda s: s["normalization"]["upsit_total"].update(min="12")},
}


def _spoil(source: str, case: str, obj) -> bytes:
    if case in SPOILED_FILES:
        return SPOILED_FILES[case](obj)
    WRONG_VALUES[source][case](obj)
    return json.dumps(obj).encode()


@pytest.mark.parametrize("source, case", [
    (source, case) for source in JSON_INPUTS
    for case in [*SPOILED_FILES, *WRONG_VALUES[source]]])
def test_malformed_json_input_exits_2(exp_dir, tmp_path, capsys, source, case):
    _config, run = exp_dir
    command, valid = JSON_INPUTS[source]
    bad = tmp_path / "bad.json"
    bad.write_bytes(_spoil(source, case, valid(run)))
    rc = main([str(arg) for arg in command(bad, run, tmp_path)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1, lines  # one JSON line, no traceback
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert str(bad) in err["message"]
    assert MESSAGES.get(case, "") in err["message"]


# Each command that reads a scores file given as bad
SCORES_COMMANDS = {
    "report": lambda bad: ["report", "--scores", bad],
    "roc svg": lambda bad: ["roc", "--scores", bad, "--model", "mlp", "--format", "svg"],
}


def _set_cell(row: int, column: int, value: str):
    """The spoiler that sets one cell of scores.csv's lines."""
    def spoil(lines):
        cells = lines[row].split(",")
        cells[column] = value
        return [*lines[:row], ",".join(cells), *lines[row + 1:]]
    return spoil


# Ways to spoil the run's scores.csv, each from its lines to the bad file's lines
SCORES_DEFECTS = {
    "nan": _set_cell(1, 3, "nan"),
    "inf": _set_cell(2, 4, "inf"),
    "label_2": _set_cell(3, 2, "2"),
    "unknown_model": _set_cell(0, 4, "svm"),
    "duplicate_model": _set_cell(0, 5, "bayesnet"),
    "split_scored": _set_cell(4, 1, "scored"),
    "missing_split": lambda lines: [line for line in lines if ",testing," not in line],
    "short_row": lambda lines: [*lines[:5], lines[5].rpartition(",")[0], *lines[6:]],
}


def _spoiled_scores(case: str, run) -> bytes:
    text = (run / "scores.csv").read_text()
    if case == "not_utf8":
        return b"\xff\xfe" + text.encode("utf-16-le")
    if case == "truncated":
        return text.encode()[:40]
    return ("\n".join(SCORES_DEFECTS[case](text.splitlines())) + "\n").encode()


@pytest.mark.parametrize("case", ["not_utf8", "truncated", *SCORES_DEFECTS])
@pytest.mark.parametrize("command", SCORES_COMMANDS)
def test_malformed_scores_file_exits_2(exp_dir, tmp_path, capsys, command, case):
    _config, run = exp_dir
    bad = tmp_path / "scores.csv"
    bad.write_bytes(_spoiled_scores(case, run))
    rc = main([str(arg) for arg in SCORES_COMMANDS[command](bad)])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert rc == 2
    assert len(lines) == 1, lines  # one JSON line, no traceback
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert str(bad) in err["message"]
    assert captured.out == ""


@pytest.mark.parametrize("split, label, lacks", [
    ("testing", 0, "healthy (label 0)"), ("training", 1, "PD (label 1)")])
@pytest.mark.parametrize("command", SCORES_COMMANDS)
def test_scores_split_of_one_class_exits_1(exp_dir, tmp_path, capsys, command, split, label,
                                           lacks):
    _config, run = exp_dir
    lines = (run / "scores.csv").read_text().splitlines()
    bad = tmp_path / "scores.csv"
    bad.write_text("\n".join(line for line in lines if f",{split},{label}," not in line) + "\n")
    rc = main([str(arg) for arg in SCORES_COMMANDS[command](bad)])
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines  # one JSON line, no traceback
    assert json.loads(lines[0]) == {
        "error": "data", "kind": "DataError",
        "message": f"{bad} has its {split} split without a {lacks} record"}
    assert captured.out == ""


def test_roc_subcommand(exp_dir, tmp_path, capsys):
    _config, out = exp_dir
    rc = main(["roc", "--scores", str(out / "scores.csv"), "--model", "forest"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed == (out / "roc_forest_test.csv").read_text()
    assert printed.splitlines()[0] == "threshold,fpr,tpr"
    svg = tmp_path / "curve.svg"
    rc = main(["roc", "--scores", str(out / "scores.csv"),
               "--model", "mlp", "--format", "svg", "--out", str(svg)])
    assert rc == 0
    assert svg.read_text().startswith("<svg")


@pytest.mark.parametrize("model", ["mlp", "bayesnet", "forest", "boostlr"])
def test_roc_svg_reproduces_the_run_file(exp_dir, tmp_path, model):
    _config, out = exp_dir
    svg = tmp_path / "curve.svg"
    assert main(["roc", "--scores", str(out / "scores.csv"),
                 "--model", model, "--format", "svg", "--out", str(svg)]) == 0
    assert svg.read_bytes() == (out / f"roc_{model}_test.svg").read_bytes()


def test_roc_missing_model_is_config_error(exp_dir, tmp_path, capsys):
    config_path, _out = exp_dir
    solo = tmp_path / "solo"
    assert main(["experiment", "--config", str(config_path),
                 "--models", "forest", "--out", str(solo)]) == 0
    capsys.readouterr()
    rc = main(["roc", "--scores", str(solo / "scores.csv"), "--model", "mlp"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


# Subject ids that a CSV writer must quote, or that a careless reader would
# change: each id is one of these with its record's number.
ODD_IDS = ("comma, {}", 'doubled ""quotes"" {}', "  padded {}  ", "non-ASCII Zoë 日本 {}")


@pytest.mark.parametrize("models", [[], ["--models", "forest,boostlr"]],
                         ids=["all models", "forest,boostlr"])
def test_scores_reproduce_the_run_with_quoted_ids(exp_dir, tmp_path, capsys, models):
    config_path, run = exp_dir
    cohort = ingest_csv(run / "cohort.csv")
    ids = tuple(ODD_IDS[i % len(ODD_IDS)].format(i) for i in range(len(cohort)))
    source = tmp_path / "odd_ids.csv"
    export_csv(replace(cohort, subject_ids=ids), source)
    assert ingest_csv(source).subject_ids == ids
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(config_path), "--input", str(source),
                 *models, "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "scores.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    names = models[1].split(",") if models else ["mlp", "bayesnet", "forest", "boostlr"]
    assert header == ["subject_id", "split", "label", *names]
    assert sorted(row[0] for row in rows) == sorted(ids)

    def printed(*argv):
        assert main([*argv[:1], "--scores", str(out / "scores.csv"), *argv[1:]]) == 0
        return capsys.readouterr().out
    assert printed("report") == (out / "report.txt").read_text(encoding="utf-8")
    assert printed("report", "--format", "csv") == (out / "report.csv").read_text()
    for name in names:
        for form in ("csv", "svg"):
            assert (printed("roc", "--model", name, "--format", form)
                    == (out / f"roc_{name}_test.{form}").read_text()), (name, form)


def test_experiment_over_an_older_run_removes_its_evaluations_file(exp_dir, tmp_path):
    # an earlier release's run directory: evaluations.json where scores.csv is now
    config_path, _run = exp_dir
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
    (out / "scores.csv").unlink()
    (out / "evaluations.json").write_text('{"model_order": ["mlp"], "models": {}}\n')
    assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
    assert not (out / "evaluations.json").exists()
    assert (out / "scores.csv").is_file()


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
                {"bayesnet": {"strategy": "equal_frequency"}, "mlp": {"epochs": 50}}):
        config.write_text(json.dumps(bad))
        rc = main(["experiment", "--config", str(config), "--out",
                   str(tmp_path / "out")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 2, bad
        assert len(lines) == 1, lines  # one JSON line, no traceback
        assert json.loads(lines[0])["error"] == "config"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, config, key", [
    (["generate", "--separation", "inf"], None, "generate.separation"),
    (["generate", "--separation", "nan"], None, "generate.separation"),
    # finite, but it takes the class means and sds beyond the doubles
    (["generate", "--separation", "1e308"], None, "generate.separation"),
    (["experiment", "--separation", "1e308"], None, "generate.separation"),
    ([], {"boostlr": {"ridge": math.inf}}, "boostlr.ridge"),
    ([], {"bayesnet": {"alpha": math.inf}}, "bayesnet.alpha"),
    ([], {"mlp": {"learning_rate": math.inf}}, "mlp.learning_rate"),
    # a key the settings no longer have, and a model named twice
    ([], {"bayesnet": {"strategy": "equal_frequency"}}, "bayesnet.strategy"),
    (["experiment", "--models", "boostlr,boostlr"], None, "named more than once: boostlr"),
    ([], {"models": ["forest", "bayesnet", "forest"]}, "named more than once: forest"),
], ids=["separation inf", "separation nan", "separation 1e308", "experiment separation 1e308",
        "ridge", "alpha", "learning_rate", "bayesnet.strategy", "models flag repeated",
        "models config repeated"])
def test_non_finite_setting_exits_2(tmp_path, capsys, flags, config, key):
    if config is None:
        argv = flags
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))  # writes Infinity
        argv = ["experiment", "--config", str(path)]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1, lines  # one JSON line, no traceback or warning
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert key in err["message"]
    assert not (tmp_path / "out").exists()


def test_an_int_beyond_int64_reads_as_a_float_setting(tmp_path, capsys):
    # 10**30 is no int64, so numpy cannot take it as a Python int
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(FAST_CONFIG, boostlr={"ridge": 10**30})))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "run_config.json").read_text())["boostlr"]["ridge"] == 1e30


def test_an_int_beyond_int64_reads_as_a_boosted_alpha(exp_dir, tmp_path, capsys):
    _config, out = exp_dir
    boost = json.loads((out / "models" / "boostlr.json").read_text())
    boost["rounds"][0]["alpha"] = 10**30
    model = tmp_path / "boostlr.json"
    model.write_text(json.dumps(boost))
    rc = main(["evaluate", "--model", str(model), "--input", str(out / "cohort.csv"),
               "--preprocess", str(out / "preprocess.json")])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert 0.0 <= json.loads(captured.out)["auc"] <= 1.0


def _mlp_config(tmp_path, **mlp):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(FAST_CONFIG, models=["mlp"],
                                      mlp=dict(FAST_CONFIG["mlp"], **mlp))))
    return config


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_a_diverged_mlp_exits_1_and_writes_nothing(tmp_path, capsys, command):
    config = _mlp_config(tmp_path, learning_rate=1e308, momentum=0.99)
    out = tmp_path / "out"
    rc = main([command, "--config", str(config), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines  # one JSON line, no numpy warning
    err = json.loads(lines[0])
    assert err["error"] == "data"
    assert "learning_rate (1e+308)" in err["message"] and "momentum (0.99)" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command, config, flags, key", [
    ("train", {"models": ["mlp"], "mlp": {"hidden_units": 10**20}}, [], "hidden_units"),
    ("experiment", {"models": ["mlp"], "mlp": {"hidden_units": 10**20}}, [], "hidden_units"),
    ("train", {"models": ["bayesnet"], "bayesnet": {"bins": 10**20}}, [], "bins"),
    ("experiment", {"models": ["bayesnet"], "bayesnet": {"bins": 10**20}}, [], "bins"),
    ("generate", None, ["--n-healthy", str(10**20)], "n_healthy"),
    ("experiment", {}, ["--n-pd", str(10**20)], "n_pd"),
], ids=["train-hidden_units", "experiment-hidden_units", "train-bins", "experiment-bins",
        "generate-n_healthy", "experiment-n_pd"])
def test_config_too_large_to_allocate_exit_2(tmp_path, capsys, command, config, flags, key):
    # 10**20 is refused before anything is allocated: numpy refuses 14 * 10**20
    # doubles or an arange to 10**20, and a list refuses a repeat that long. A
    # size that would really be allocated is not tested.
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**FAST_CONFIG, **config}))
        flags = ["--config", str(path), *flags]
    out = tmp_path / "out"
    rc = main([command, *flags, "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1, lines  # one JSON line, no traceback
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert key in err["message"] and str(10**20) in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_a_saturated_mlp_trains_without_a_warning(tmp_path, capsys, command):
    # exp overflows in the step; warnings are errors here, and stderr stays empty
    config = _mlp_config(tmp_path, learning_rate=1e6)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "models" / "mlp.json").exists()


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_separation_that_makes_a_class_sd_negative_exits_2(tmp_path, capsys, command):
    obj = asdict(load_params())
    obj["features"]["csf_ttau"].update(sd_healthy=1.0, sd_pd=30.0)
    params = tmp_path / "params.json"
    params.write_text(json.dumps(obj))
    out = tmp_path / "out"
    rc = main([command, "--params", str(params), "--separation", "3", "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert "generate.separation" in err["message"] and "csf_ttau" in err["message"]
    assert not out.exists()


def _run_params(tmp_path, capsys, argv, edit):
    """(exit code, stderr lines) of argv + --params, a file of the packaged
    parameters with edit(obj) applied."""
    obj = asdict(load_params())
    edit(obj)
    params = tmp_path / "params.json"
    params.write_text(json.dumps(obj))
    rc = main([*argv, "--params", str(params)])
    return rc, capsys.readouterr().err.splitlines()


def test_version_1_params_file_exits_2(tmp_path, capsys):
    def version_1(obj):
        obj.update(version=1, correlation_pairs=[])
        for name, feature in obj["features"].items():
            feature["integer_flag"] = name in INTEGER_FEATURES
    out = tmp_path / "cohort.csv"
    rc, lines = _run_params(tmp_path, capsys, ["generate", "--out", str(out)], version_1)
    assert rc == 2
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert "version 1; this earlypd reads version 2, so update the parameters file" in (
        err["message"])
    assert not out.exists()


def _subnormal_abeta(obj):
    # every csf_abeta42 value is 1e-310, so csf_ttau / csf_abeta42 overflows
    obj["features"]["csf_abeta42"].update(min=1e-310, mean_healthy=1e-310, mean_pd=1e-310,
                                          sd_healthy=0.0, sd_pd=0.0)


@pytest.mark.parametrize("command", ["generate", "experiment"])
def test_generated_value_beyond_the_doubles_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--n-healthy", "20", "--n-pd", "20", "--out", str(out)]
    rc, lines = _run_params(tmp_path, capsys, argv, _subnormal_abeta)
    assert rc == 2
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert "ratio_ttau_abeta" in err["message"] and "not finite" in err["message"]
    assert not out.exists()


def test_failed_generate_leaves_the_earlier_cohort(tmp_path, capsys, monkeypatch):
    out = tmp_path / "cohort.csv"
    assert main(["generate", "--n-healthy", "5", "--n-pd", "5", "--out", str(out)]) == 0
    before = out.read_bytes()
    capsys.readouterr()
    # the header, the first block of 1,024 rows, then the second block fails
    monkeypatch.setattr(earlypd.data, "open", _disk_full_at(3), raising=False)
    rc = main(["generate", "--n-healthy", "1000", "--n-pd", "2000", "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "io"
    assert out.read_bytes() == before
    assert not list(tmp_path.glob(".staging-*"))


# Each command that writes one --out file, from the default run's files
OUT_COMMANDS = {
    "evaluate": lambda run: ["evaluate", "--model", run / "models" / "forest.json",
                             "--input", run / "cohort.csv",
                             "--preprocess", run / "preprocess.json"],
    "report": lambda run: ["report", "--scores", run / "scores.csv"],
    "roc": lambda run: ["roc", "--scores", run / "scores.csv", "--model", "mlp"],
}


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_failed_out_write_leaves_the_earlier_file(exp_dir, tmp_path, capsys, monkeypatch,
                                                  command):
    _config, run = exp_dir
    out = tmp_path / "out.txt"
    out.write_text("an earlier output\n")
    write_text = Path.write_text

    def half_then_full(path, text, *args, **kwargs):
        write_text(path, text[:len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", half_then_full)
    rc = main([str(arg) for arg in OUT_COMMANDS[command](run)] + ["--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "io"
    assert out.read_text() == "an earlier output\n"
    assert not list(tmp_path.glob(".staging-*"))


def test_out_that_is_not_a_regular_file_exits_1(exp_dir, tmp_path, capsys):
    # renaming onto a named pipe would replace it, not write into it
    _config, run = exp_dir
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    rc = main(["report", "--scores", str(run / "scores.csv"), "--out", str(fifo)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines
    err = json.loads(lines[0])
    assert err["error"] == "io" and "is not a regular file" in err["message"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert not list(tmp_path.glob(".staging-*"))


def test_train_refuses_a_boosted_model_of_no_rounds(tmp_path, capsys):
    # eight copies of one record, labels alternating: no boosting round beats
    # chance, and a model of no rounds could never score a record
    source = tmp_path / "one.csv"
    assert main(["generate", "--out", str(source), "--n-healthy", "1", "--n-pd", "0"]) == 0
    header, record = source.read_text().splitlines()
    features = record.split(",")[1:-1]
    flat = tmp_path / "flat.csv"
    rows = [",".join([f"S{i}", *features, str(i % 2)]) for i in range(8)]
    flat.write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    out = tmp_path / "run"
    rc = main(["train", "--input", str(flat), "--models", "boostlr", "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1, lines  # one JSON line, no traceback
    err = json.loads(lines[0])
    assert err["error"] == "data"
    assert "no boosting round beats chance" in err["message"]
    assert not (out / "models" / "boostlr.json").exists()


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
