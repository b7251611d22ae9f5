"""Experiment orchestration: config handling, split preparation, the full
run, and artifact writing with its cleanup guarantee."""

import json
import math

import numpy as np
import pytest

import earlypd
import earlypd.pipeline
from earlypd.data import export_csv, ingest_csv
from earlypd.errors import ConfigError, EmptyCohort
from earlypd.mlp import MlpConfig
from earlypd.forest import ForestConfig, forest_score_batch, usable_cpus
from earlypd.synth import GenerateConfig
from earlypd.pipeline import (
    DISPLAY_NAMES,
    MODEL_ORDER,
    PipelineConfig,
    acquire_dataset,
    config_from_dict,
    load_config,
    load_model_file,
    prepare_splits,
    run_and_write,
    run_experiment,
    save_model_file,
    score_batch,
    train_and_write,
    train_models,
    write_artifacts,
)

FAST = {
    "mlp": MlpConfig(hidden_units=4, epochs=40),
    "forest": ForestConfig(trees=10),
}


def fast_config(**overrides):
    """Small cohort and light model settings so pipeline tests stay quick."""
    base = dict(
        seed=11,
        generate=GenerateConfig(n_healthy=24, n_pd=40),
        mlp=FAST["mlp"],
        forest=FAST["forest"],
    )
    base.update(overrides)
    return PipelineConfig(**base)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        PipelineConfig(models=("mlp", "svm"))
    with pytest.raises(ConfigError):
        PipelineConfig(models=())
    with pytest.raises(ConfigError):
        PipelineConfig(train_fraction=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(train_fraction=1.0)
    with pytest.raises(ConfigError):
        PipelineConfig(normalize_on="test")


def test_ordered_models_follow_canonical_order():
    config = PipelineConfig(models=("boostlr", "mlp"))
    assert config.ordered_models() == ("mlp", "boostlr")


def test_config_json_round_trip():
    config = fast_config(train_fraction=0.6, models=("forest", "bayesnet"),
                         normalize_on="train")
    again = config_from_dict(config.to_json_dict())
    assert again == config


def test_config_from_partial_dict_uses_defaults():
    config = config_from_dict({"seed": 7})
    assert config.seed == 7
    assert config.models == MODEL_ORDER
    assert config.train_fraction == 0.7
    assert config.generate == GenerateConfig()


def test_config_rejects_unknown_keys():
    for obj in ({"mlp": {"neurons": 12}}, {"generate": {"count": 5}}, {"sede": 7}):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict(obj)


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3, "models": ["mlp"]}))
    config = load_config(path)
    assert config.seed == 3
    assert config.models == ("mlp",)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(array)


def test_acquire_dataset_generates_by_default():
    config = fast_config()
    ds = acquire_dataset(config)
    assert ds.class_counts() == (24, 40)
    # same config gives the same cohort, a different seed does not
    again = acquire_dataset(config)
    assert np.array_equal(ds.features, again.features)
    other = acquire_dataset(fast_config(seed=12))
    assert not np.array_equal(ds.features, other.features)


def test_acquire_dataset_reads_input(fixture_csv):
    config = fast_config(input=str(fixture_csv))
    ds = acquire_dataset(config)
    assert len(ds) == 3
    assert ds.subject_ids[0] == "S001"


def test_prepare_splits_whole_dataset_normalization():
    config = fast_config(normalize_on="all")
    ds = acquire_dataset(config)
    train, test, stats = prepare_splits(config, ds)
    assert len(train) + len(test) == len(ds)
    # min-max over the whole cohort puts both splits inside the unit cube
    for part in (train, test):
        assert part.features.min() >= 0.0
        assert part.features.max() <= 1.0
    combined = np.vstack([train.features, test.features])
    assert combined.min(axis=0) == pytest.approx(np.zeros(13), abs=1e-12)
    assert combined.max(axis=0) == pytest.approx(np.ones(13), abs=1e-12)


def test_prepare_splits_train_only_normalization():
    config = fast_config(normalize_on="train")
    ds = acquire_dataset(config)
    train, test, stats = prepare_splits(config, ds)
    # the scaler saw only the training split, so training spans the unit
    # cube exactly; the whole-dataset path fits different extremes whenever
    # a global extreme lands in the test split
    assert train.features.min(axis=0) == pytest.approx(np.zeros(13), abs=1e-12)
    assert train.features.max(axis=0) == pytest.approx(np.ones(13), abs=1e-12)
    _, test_all, stats_all = prepare_splits(fast_config(normalize_on="all"), ds)
    assert stats.pairs != stats_all.pairs
    assert not np.array_equal(test.features, test_all.features)


def test_split_is_stratified():
    config = fast_config()
    ds = acquire_dataset(config)
    train, test, _ = prepare_splits(config, ds)
    # 0.7 of 24 healthy rounds to 17, 0.7 of 40 pd is 28
    assert train.class_counts() == (17, 28)
    assert test.class_counts() == (7, 12)


def test_run_experiment_structure():
    config = fast_config(models=("forest", "boostlr"))
    result = run_experiment(config)
    assert set(result.models) == {"forest", "boostlr"}
    assert set(result.evaluations) == {"forest", "boostlr"}
    for by_split in result.evaluations.values():
        assert set(by_split) == {"training", "testing"}
    assert result.elapsed_seconds > 0.0
    header = result.report_csv.splitlines()[0]
    assert header.split(",") == ["measure", "model", "split", "value"]
    assert "Random Forest" in result.report_text
    assert "Boosted Logistic Regression" in result.report_text


def test_score_and_model_file_dispatch(tmp_path):
    config = fast_config(models=("forest",))
    result = run_experiment(config)
    model = result.models["forest"]
    # the loader goes by the kind stored in the file, not by its name
    path = tmp_path / "model.json"
    save_model_file(model, path)
    kind, again = load_model_file(path)
    assert kind == "forest"
    assert np.array_equal(score_batch(kind, again, result.test.features),
                          forest_score_batch(model, result.test.features))


@pytest.fixture(scope="module")
def fast_models(small_split):
    train, _test = small_split
    return train_models(fast_config(), train)


@pytest.mark.parametrize("kind", MODEL_ORDER)
def test_model_file_round_trip(kind, fast_models, small_split, tmp_path):
    _train, test = small_split
    model = fast_models[kind]
    first = tmp_path / "first.json"
    save_model_file(model, first)
    loaded_kind, again = load_model_file(first)
    assert loaded_kind == kind
    assert np.array_equal(score_batch(kind, again, test.features),
                          score_batch(kind, model, test.features))
    second = tmp_path / "second.json"
    save_model_file(again, second)
    assert second.read_bytes() == first.read_bytes()


def _first_leaf(tree) -> int:
    return tree["feature"].index(-1)


def _as_object(tree, key):
    tree[key] = {str(i): v for i, v in enumerate(tree[key])}


# (trees, n_features) -> None, each breaking the first tree of a saved forest
FOREST_DEFECTS = {
    "child is its own node": lambda trees, m: trees[0]["left"].__setitem__(0, 0),
    "child before its parent": lambda trees, m: trees[0]["left"].__setitem__(0, -1),
    "child past the last node": lambda trees, m: trees[0]["right"].__setitem__(
        0, len(trees[0]["feature"])),
    "split feature out of range": lambda trees, m: trees[0]["feature"].__setitem__(0, m),
    "feature below -1": lambda trees, m: trees[0]["feature"].__setitem__(0, -2),
    "float feature": lambda trees, m: trees[0]["feature"].__setitem__(
        0, float(trees[0]["feature"][0])),
    "leaf with a child": lambda trees, m: trees[0]["right"].__setitem__(
        _first_leaf(trees[0]), len(trees[0]["feature"]) - 1),
    "tree without nodes": lambda trees, m: [column.clear() for column in trees[0].values()],
    "leaf with one count": lambda trees, m: trees[0]["counts"].pop(),
    "threshold column one short": lambda trees, m: trees[0]["threshold"].pop(),
    "left column as an object": lambda trees, m: _as_object(trees[0], "left"),
    "negative split counts": lambda trees, m: trees[0]["counts"].__setitem__(0, -1),
    "bool count": lambda trees, m: trees[0]["counts"].__setitem__(1, True),
    "count beyond int64": lambda trees, m: trees[0]["counts"].__setitem__(0, 2**64),
    "string threshold": lambda trees, m: trees[0]["threshold"].__setitem__(0, "0.5"),
    "threshold beyond the doubles": lambda trees, m: trees[0]["threshold"].__setitem__(
        0, 10**400),
    "forest without trees": lambda trees, m: trees.clear(),
}


@pytest.mark.parametrize("defect", FOREST_DEFECTS)
def test_malformed_forest_file_is_rejected(defect, fast_models, tmp_path):
    # each of these would loop forever, read a wrong node, miscount a vote or
    # raise when scoring, or fails a bound, so the loader must refuse the file
    path = tmp_path / "forest.json"
    save_model_file(fast_models["forest"], path)
    obj = json.loads(path.read_text())
    FOREST_DEFECTS[defect](obj["trees"], obj["n_features"])
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match="is not a saved model file"):
        load_model_file(path)


def _cuts(obj):
    """The cut list, within a saved Bayes net, of its first feature with at
    least two cuts."""
    return next(c for c in (obj["discretization"][n]["cuts"] for n in obj["schema"])
                if len(c) >= 2)


def _two_cuts_more(obj):
    cuts = _cuts(obj)
    cuts[1:1] = [cuts[0] + (cuts[1] - cuts[0]) / 3, cuts[0] + 2 * (cuts[1] - cuts[0]) / 3]


def _cut_fewer(obj):
    _cuts(obj).pop()


def _cuts_descending(obj):
    _cuts(obj).reverse()


def _infinite_cut(obj):
    _cuts(obj)[-1] = math.inf


def _extra_cpt_row(obj):
    obj["cpts"][1] += [0.5] * obj["arities"][1]


# obj -> None, each breaking a saved Bayes net
BAYESNET_DEFECTS = {
    "schema of 12 names": lambda obj: obj["schema"].pop(),
    "feature of arity 1": lambda obj: obj["arities"].__setitem__(1, 1),
    "two cuts more than the arity": _two_cuts_more,
    "one cut fewer than the arity": _cut_fewer,
    "cuts descending": _cuts_descending,
    "infinite cut": _infinite_cut,
    "parent 99": lambda obj: obj["parents"][1].append(99),
    "own parent": lambda obj: obj["parents"][1].append(1),
    "repeated parent": lambda obj: obj["parents"][1].append(0),
    "CPT with an extra row": _extra_cpt_row,
    "probability above 1": lambda obj: obj["cpts"][0].__setitem__(0, 1.5),
    "null probability": lambda obj: obj["cpts"][0].__setitem__(0, None),
    "string probability": lambda obj: obj["cpts"][0].__setitem__(0, "0.5"),
    "true probability": lambda obj: obj["cpts"][0].__setitem__(0, True),
}


def _output_weight_short(obj):
    del obj["w_output"][-2:]
    obj["shape_output"][1] -= 1


# obj -> None, each breaking a saved MLP
MLP_DEFECTS = {
    "null weight": lambda obj: obj["w_hidden"].__setitem__(0, None),
    "weight overflowing to infinity": lambda obj: obj["w_hidden"].__setitem__(0, 1e999),
    "output layer one weight short": _output_weight_short,
    "weight beyond the doubles": lambda obj: obj["w_hidden"].__setitem__(0, 10**400),
    "string weight": lambda obj: obj["w_hidden"].__setitem__(0, "0.5"),
    "true weight": lambda obj: obj["w_output"].__setitem__(1, True),
}

# obj -> None, each breaking a saved boosted model
BOOSTLR_DEFECTS = {
    "string coef": lambda obj: obj["rounds"][0]["coef"].__setitem__(0, "0.5"),
    "true coef": lambda obj: obj["rounds"][-1]["coef"].__setitem__(1, True),
    "infinite coef": lambda obj: obj["rounds"][0]["coef"].__setitem__(0, -1e999),
    "string intercept": lambda obj: obj["rounds"][0].__setitem__("intercept", "x"),
    "null intercept": lambda obj: obj["rounds"][0].__setitem__("intercept", None),
    "true alpha": lambda obj: obj["rounds"][0].__setitem__("alpha", True),
    "NaN alpha": lambda obj: obj["rounds"][-1].__setitem__("alpha", math.nan),
    "alpha beyond the doubles": lambda obj: obj["rounds"][0].__setitem__("alpha", 10**400),
}

DEFECTS = {"bayesnet": BAYESNET_DEFECTS, "mlp": MLP_DEFECTS, "boostlr": BOOSTLR_DEFECTS}


def _assert_defect_rejected(kind, defect, model, tmp_path):
    # each of these raises, reads past a table or scores nonsense when scoring
    path = tmp_path / f"{kind}.json"
    save_model_file(model, path)
    obj = json.loads(path.read_text())
    DEFECTS[kind][defect](obj)
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match="is not a saved model file"):
        load_model_file(path)


@pytest.mark.parametrize("kind, defect", [("bayesnet", d) for d in BAYESNET_DEFECTS]
                         + [("mlp", d) for d in MLP_DEFECTS])
def test_malformed_bayesnet_or_mlp_file_is_rejected(kind, defect, fast_models, tmp_path):
    _assert_defect_rejected(kind, defect, fast_models[kind], tmp_path)


@pytest.mark.parametrize("defect", BOOSTLR_DEFECTS)
def test_malformed_boosted_file_is_rejected(defect, fast_models, tmp_path):
    _assert_defect_rejected("boostlr", defect, fast_models["boostlr"], tmp_path)


@pytest.mark.parametrize("kind", MODEL_ORDER)
@pytest.mark.parametrize("version", [None, 0, 2, True, 1.0], ids=repr)
def test_model_file_of_another_version_is_rejected(kind, version, fast_models, tmp_path):
    path = tmp_path / f"{kind}.json"
    save_model_file(fast_models[kind], path)
    obj = json.loads(path.read_text())
    assert obj["version"] == 1
    if version is None:
        del obj["version"]
    else:
        obj["version"] = version
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match="is not a saved model file .*version.*retrain"):
        load_model_file(path)


EXPECTED_FILES = {
    "cohort.csv", "preprocess.json", "evaluations.json", "report.csv",
    "report.txt", "run_config.json", "metadata.json",
}


def test_write_artifacts_file_set(tmp_path):
    config = fast_config(models=("mlp", "forest"))
    result = run_experiment(config)
    written = write_artifacts(result, tmp_path / "out")
    names = {p.relative_to(tmp_path / "out").as_posix() for p in written}
    expected = EXPECTED_FILES | {
        "models/mlp.json", "models/forest.json",
        "roc_mlp_test.csv", "roc_mlp_test.svg",
        "roc_forest_test.csv", "roc_forest_test.svg",
    }
    assert names == expected
    for p in written:
        assert p.is_file() and p.stat().st_size > 0
    evals = json.loads((tmp_path / "out" / "evaluations.json").read_text())
    assert evals["model_order"] == ["mlp", "forest"]
    assert set(evals["models"]) == {"mlp", "forest"}
    config_round = json.loads((tmp_path / "out" / "run_config.json").read_text())
    assert config_from_dict(config_round) == config


def test_write_artifacts_skips_cohort_for_csv_input(small_cohort, tmp_path):
    source = tmp_path / "input.csv"
    export_csv(small_cohort, source)
    config = fast_config(input=str(source), models=("forest",))
    result = run_experiment(config)
    written = write_artifacts(result, tmp_path / "out")
    assert not (tmp_path / "out" / "cohort.csv").exists()
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["input"] == str(source)
    assert meta["processes"] == usable_cpus() >= 1
    assert all(p.exists() for p in written)


def test_write_artifacts_cleans_up_on_failure(tmp_path, monkeypatch):
    save = earlypd.pipeline.save_model_file

    def boom(model, path):
        if path.name == "forest.json":
            # the cohort, the sidecar and the MLP model are already written
            assert (path.parent / "mlp.json").is_file()
            raise OSError("disk full")
        save(model, path)

    monkeypatch.setattr(earlypd.pipeline, "save_model_file", boom)
    config = fast_config(models=("mlp", "forest"))
    # `earlypd experiment` and `earlypd train` share the writer and its cleanup
    for write in (run_and_write, train_and_write):
        out = tmp_path / write.__name__
        with pytest.raises(OSError):
            write(config, out)
        leftovers = [p for p in out.rglob("*") if p.is_file()]
        assert leftovers == [], write.__name__


def test_runs_are_deterministic():
    config = fast_config(models=("forest", "bayesnet"))
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.report_csv == second.report_csv
    assert first.report_text == second.report_text
    assert np.array_equal(first.train.features, second.train.features)


def test_run_and_write_round_trips_report(tmp_path):
    config = fast_config(models=("boostlr",))
    result = run_and_write(config, tmp_path)
    assert (tmp_path / "report.csv").read_text() == result.report_csv
    saved = ingest_csv(tmp_path / "cohort.csv")
    assert np.array_equal(saved.features, result.dataset.features)
    assert saved.subject_ids == result.dataset.subject_ids


def test_generated_cohort_rejects_bad_counts():
    with pytest.raises(EmptyCohort):
        run_experiment(fast_config(generate=GenerateConfig(n_healthy=0, n_pd=0)))


def test_package_exports_resolve():
    missing = [name for name in earlypd.__all__ if not hasattr(earlypd, name)]
    assert missing == []
