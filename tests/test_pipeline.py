"""Experiment orchestration: config handling, split preparation, the full
run, and artifact writing with its cleanup guarantee."""

import json
import math
import re
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import earlypd.pipeline
from earlypd.data import export_csv, ingest_csv
from earlypd.errors import ConfigError, DataError
from earlypd.bayesnet import BayesNetConfig
from earlypd.boostlr import BoostConfig
from earlypd.mlp import MlpConfig
from earlypd.forest import ForestConfig, forest_score_batch, usable_cpus
from earlypd.jsontext import finite_number
from earlypd.preprocess import (
    load_sidecar,
    normalize_apply,
    normalize_fit_transform,
    stratified_split,
)
from earlypd.synth import GenerateConfig, load_params
from earlypd.pipeline import (
    DISPLAY_NAMES,
    MODEL_ORDER,
    MODEL_VERSION,
    PipelineConfig,
    acquire_dataset,
    config_from_dict,
    load_config,
    load_evaluations,
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

from conftest import OTHER_MODEL_VERSIONS, datasets_equal

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


def test_ordered_models_follow_canonical_order(small_split):
    models = train_models(fast_config(models=("boostlr", "mlp")), small_split[0])
    assert list(models) == ["mlp", "boostlr"]


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


@pytest.mark.parametrize("normalize_on", ["all", "train"])
def test_prepare_splits_matches_scaling_before_or_after_the_split(normalize_on):
    # the split reads only the labels and the scaling is elementwise, so
    # scaling after the split gives the bits of scaling the cohort first
    config = fast_config(normalize_on=normalize_on)
    ds = acquire_dataset(config)
    train, test, stats = prepare_splits(config, ds)
    if normalize_on == "all":
        scaled, want_stats = normalize_fit_transform(ds)
        want = stratified_split(scaled, config.train_fraction, config.seed)
    else:
        raw_train, raw_test = stratified_split(ds, config.train_fraction, config.seed)
        want_train, want_stats = normalize_fit_transform(raw_train)
        want = want_train, normalize_apply(raw_test, want_stats)
    assert stats == want_stats
    assert datasets_equal(train, want[0]) and datasets_equal(test, want[1])


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


def _assert_same_fields(loaded, trained, where="model"):
    """loaded equals trained field by field, through nested dataclasses and
    tuples, with each array of the same dtype and bits."""
    if is_dataclass(trained):
        assert type(loaded) is type(trained), where
        for f in fields(trained):
            _assert_same_fields(getattr(loaded, f.name), getattr(trained, f.name),
                                f"{where}.{f.name}")
    elif isinstance(trained, np.ndarray):
        assert loaded.dtype == trained.dtype and np.array_equal(loaded, trained), where
    elif isinstance(trained, tuple):
        assert type(loaded) is tuple and len(loaded) == len(trained), where
        for i, (a, b) in enumerate(zip(loaded, trained)):
            _assert_same_fields(a, b, f"{where}[{i}]")
    else:
        assert type(loaded) is type(trained) and loaded == trained, where


def _without_training_record(model):
    """A boosted model as its file gives it back: each round's training
    record, which the file does not hold, is None."""
    return replace(model, rounds=tuple(
        replace(r, error=None, weight_sum_after=None, misclassified_mass_after=None,
                model=replace(r.model, converged=None, objective_path=None))
        for r in model.rounds))


@pytest.mark.parametrize("kind", MODEL_ORDER)
def test_model_file_round_trip(kind, fast_models, small_split, tmp_path):
    _train, test = small_split
    model = fast_models[kind]
    first = tmp_path / "first.json"
    save_model_file(model, first)
    loaded_kind, again = load_model_file(first)
    assert loaded_kind == kind
    if kind == "boostlr":
        # nothing is made up for what the file does not hold
        assert all(r.error is not None for r in model.rounds)
        model_as_saved = _without_training_record(model)
    else:
        model_as_saved = model
    _assert_same_fields(again, model_as_saved)
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
    # a row of node 1's arity: one more than the first feature's cuts
    obj["cpts"][1] += [0.5] * (len(obj["discretization"][obj["schema"][0]]["cuts"]) + 1)


def _swap_two_names(obj):
    names = obj["schema"]
    i, j = names.index("sbr_caudate_left"), names.index("sbr_putamen_right")
    names[i], names[j] = names[j], names[i]


# obj -> None, each breaking a saved Bayes net
BAYESNET_DEFECTS = {
    "schema of 12 names": lambda obj: obj["schema"].pop(),
    "two schema names swapped": _swap_two_names,
    "feature of arity 1": lambda obj: _cuts(obj).clear(),
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
    "float bins": lambda obj: obj.update(bins=10.0),
}


# obj -> None, each breaking a saved MLP
MLP_DEFECTS = {
    "null weight": lambda obj: obj["w_hidden"].__setitem__(0, None),
    "weight overflowing to infinity": lambda obj: obj["w_hidden"].__setitem__(0, 1e999),
    "output layer one weight short": lambda obj: obj.update(w_output=obj["w_output"][:-2]),
    "hidden weights not a multiple of hidden_units": lambda obj: obj["w_hidden"].append(0.5),
    "no hidden weights": lambda obj: obj["w_hidden"].clear(),
    "only bias hidden weights": lambda obj: obj.update(w_hidden=[0.5] * obj["hidden_units"]),
    "one hidden unit fewer": lambda obj: obj.update(hidden_units=obj["hidden_units"] - 1),
    "one column wider": lambda obj: obj["w_hidden"].extend([0.0] * obj["hidden_units"]),
    "weight beyond the doubles": lambda obj: obj["w_hidden"].__setitem__(0, 10**400),
    "string weight": lambda obj: obj["w_hidden"].__setitem__(0, "0.5"),
    "true weight": lambda obj: obj["w_output"].__setitem__(1, True),
    "true epochs": lambda obj: obj.update(epochs=True),
    "fractional epochs": lambda obj: obj.update(epochs=2.5),
    "string epoch_mse": lambda obj: obj.update(epoch_mse="abc"),
    "string seed": lambda obj: obj.update(seed="not a seed"),
    "fractional seed": lambda obj: obj.update(seed=42.0),
}


def _set_alphas(obj, *alphas):
    """One round per alpha, each the first round with that alpha."""
    obj["rounds"] = [dict(obj["rounds"][0], alpha=alpha) for alpha in alphas]


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
    "string ridge": lambda obj: obj.update(ridge="x"),
    "true max_rounds": lambda obj: obj.update(max_rounds=True),
    "no rounds": lambda obj: obj["rounds"].clear(),
    # alphas that adaboost_train never writes: it keeps only rounds of error
    # below 0.5, whose alpha is above 0
    "alphas 1 and -1": lambda obj: _set_alphas(obj, 1, -1),
    "alphas 1e308 and 1e308": lambda obj: _set_alphas(obj, 1e308, 1e308),
    "alphas -2 and 1": lambda obj: _set_alphas(obj, -2, 1),
    "zero alpha": lambda obj: obj["rounds"][-1].__setitem__("alpha", 0),
    "12 coefficients wide": lambda obj: [r.update(coef=r["coef"][:12]) for r in obj["rounds"]],
}


def _forest_of_12(obj):
    obj["n_features"] = 12
    for tree in obj["trees"]:
        tree["feature"] = [min(f, 11) for f in tree["feature"]]  # leaves keep -1


# obj -> None, each breaking the settings of a saved forest
FOREST_SETTING_DEFECTS = {
    "string bootstrap": lambda obj: obj.update(bootstrap="yes"),
    "fractional feature_subset": lambda obj: obj.update(feature_subset=2.5),
    "list seed": lambda obj: obj.update(seed=[1]),
    "true seed": lambda obj: obj.update(seed=True),
    "fractional n_features": lambda obj: obj.update(n_features=13.5),
    "12 features": _forest_of_12,
}

DEFECTS = {"bayesnet": BAYESNET_DEFECTS, "mlp": MLP_DEFECTS, "boostlr": BOOSTLR_DEFECTS,
           "forest": FOREST_SETTING_DEFECTS}


def _assert_defect_rejected(kind, defect, model, tmp_path):
    # each of these raises, reads past a table or scores nonsense when scoring
    path = tmp_path / f"{kind}.json"
    save_model_file(model, path)
    obj = json.loads(path.read_text())
    DEFECTS[kind][defect](obj)
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))} is not a saved model file"):
        load_model_file(path)


@pytest.mark.parametrize("kind, defect", [("bayesnet", d) for d in BAYESNET_DEFECTS]
                         + [("mlp", d) for d in MLP_DEFECTS])
def test_malformed_bayesnet_or_mlp_file_is_rejected(kind, defect, fast_models, tmp_path):
    _assert_defect_rejected(kind, defect, fast_models[kind], tmp_path)


@pytest.mark.parametrize("defect", BOOSTLR_DEFECTS)
def test_malformed_boosted_file_is_rejected(defect, fast_models, tmp_path):
    _assert_defect_rejected("boostlr", defect, fast_models["boostlr"], tmp_path)


@pytest.mark.parametrize("defect", FOREST_SETTING_DEFECTS)
def test_malformed_forest_settings_are_rejected(defect, fast_models, tmp_path):
    _assert_defect_rejected("forest", defect, fast_models["forest"], tmp_path)


@pytest.mark.parametrize("kind", MODEL_ORDER)
@pytest.mark.parametrize("version", OTHER_MODEL_VERSIONS, ids=repr)
def test_model_file_of_another_version_is_rejected(kind, version, fast_models, tmp_path):
    path = tmp_path / f"{kind}.json"
    save_model_file(fast_models[kind], path)
    obj = json.loads(path.read_text())
    assert obj["version"] == MODEL_VERSION == 2
    if version is None:
        del obj["version"]
    else:
        obj["version"] = version
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match="is not a saved model file .*version.*retrain"):
        load_model_file(path)


def _key_paths(obj, prefix=()):
    """The key path of every value in a JSON object, nested objects included."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


# The settings a file holds, as key paths: every key of a config file, every
# key of a params file with one feature standing for all ten, which are read
# alike, and the settings-dataclass fields of each model file (a forest file
# keeps its trees where ForestConfig has their count).
SETTINGS_PATHS = {
    "config": list(_key_paths(asdict(PipelineConfig()))),
    "params": [path for path in _key_paths(asdict(load_params()))
               if len(path) == 1 or path[1] == "csf_ttau"],
    **{kind: [(f.name,) for f in fields(cls) if (kind, f.name) != ("forest", "trees")]
       for kind, cls in (("mlp", MlpConfig), ("bayesnet", BayesNetConfig),
                         ("forest", ForestConfig), ("boostlr", BoostConfig))},
}

# JSON values of a wrong type for most settings, or out of every bound
ODD_VALUES = (st.text(max_size=4) | st.booleans() | st.none() | st.integers()
              | st.sampled_from([10**400, 1e308, -1e308]) | st.floats()
              | st.lists(st.integers(), max_size=2)
              | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@pytest.fixture(scope="module")
def settings_files(fast_models, tmp_path_factory):
    """(directory, {source: (valid JSON text, loader)}) for the fuzz test."""
    root = tmp_path_factory.mktemp("settings")
    files = {"config": (json.dumps(asdict(PipelineConfig())), load_config),
             "params": (json.dumps(asdict(load_params())), load_params)}
    for kind, model in fast_models.items():
        save_model_file(model, root / "model.json")
        files[kind] = ((root / "model.json").read_text(), load_model_file)
    return root, files


@pytest.mark.parametrize("source", sorted(SETTINGS_PATHS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_settings_readers_return_or_raise_config_error(settings_files, source, data):
    root, files = settings_files
    path = data.draw(st.sampled_from(SETTINGS_PATHS[source]), label="path")
    value = data.draw(ODD_VALUES, label="value")
    text, loader = files[source]
    obj = json.loads(text)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = root / "bad.json"
    bad.write_text(json.dumps(obj))
    try:
        loader(bad)
    except ConfigError:
        pass  # any other exception fails the test


def _array_paths(value, prefix=()):
    """The key path of every saved array in a JSON value: each non-empty list
    of scalars, and each object of numbers (a sidecar's min and max, a
    confusion matrix)."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return
    if items and all(type(v) in (int, float) if isinstance(value, dict)
                     else not isinstance(v, (dict, list)) for _key, v in items):
        yield prefix
    for key, child in items:
        yield from _array_paths(child, prefix + (key,))


# JSON values no saved array holds, and a marker for dropping its last element
ARRAY_DEFECTS = (st.text(max_size=4) | st.booleans() | st.none()
                 | st.sampled_from([10**400, 1e308, -1e308, "drop last"])
                 | st.lists(st.integers(), max_size=2)
                 | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@pytest.fixture(scope="module")
def fitted_files(tmp_path_factory):
    """(directory, {source: (valid JSON, its array paths, loader)}) for the
    fuzz test: a run's model files, sidecar and evaluations file."""
    root = tmp_path_factory.mktemp("fitted")
    run_and_write(fast_config(), root / "run")
    sources = {f"models/{kind}.json": load_model_file for kind in MODEL_ORDER}
    sources.update({"preprocess.json": load_sidecar, "evaluations.json": load_evaluations})
    files = {}
    for name, loader in sources.items():
        obj = json.loads((root / "run" / name).read_text())
        files[name] = (obj, list(_array_paths(obj)), loader)
    return root, files


@pytest.mark.parametrize("source", [*(f"models/{kind}.json" for kind in MODEL_ORDER),
                                    "preprocess.json", "evaluations.json"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_readers_return_or_raise_config_error(fitted_files, source, data):
    # One element of one saved array set to an odd value, or the array's last
    # element dropped: the loader returns or raises ConfigError, and where a
    # number became a value that is not a number, it raises ConfigError.
    root, files = fitted_files
    valid, paths, loader = files[source]
    obj = json.loads(json.dumps(valid))
    array = obj
    for key in data.draw(st.sampled_from(paths), label="array"):
        array = array[key]
    value = data.draw(ARRAY_DEFECTS, label="value")
    refused = False
    if value == "drop last":
        del array[list(array)[-1] if isinstance(array, dict) else -1]
    else:
        key = data.draw(st.sampled_from(list(array)) if isinstance(array, dict)
                        else st.integers(0, len(array) - 1), label="element")
        refused = finite_number(array[key]) and type(value) not in (int, float)
        array[key] = value
    bad = root / "bad.json"
    bad.write_text(json.dumps(obj))
    try:
        loader(bad)
    except ConfigError:
        return  # any other exception fails the test
    assert not refused, "a loader took a value that is not a number"


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


def test_load_evaluations_round_trip(tmp_path):
    # the written file reads back as the run's evaluations: the same models
    # in the same order, and every report equal field by field
    result = run_experiment(fast_config(models=("boostlr", "forest")))
    write_artifacts(result, tmp_path)
    loaded = load_evaluations(tmp_path / "evaluations.json")
    assert list(loaded) == list(result.evaluations) == ["forest", "boostlr"]
    for name, by_split in result.evaluations.items():
        assert list(loaded[name]) == list(by_split)
        for split, report in by_split.items():
            assert asdict(loaded[name][split]) == asdict(report), (name, split)


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


def _disk_full(*args, **kwargs):
    raise OSError("disk full")


def _fail_saving(model_file):
    def setup(monkeypatch, out):
        save = earlypd.pipeline.save_model_file

        def boom(model, path):
            if path.name == model_file:
                path.write_text("half a model")
                raise OSError("disk full")
            save(model, path)

        monkeypatch.setattr(earlypd.pipeline, "save_model_file", boom)
    return setup


def _fail_writing_run_config(monkeypatch, out):
    write_text = Path.write_text

    def boom(path, *args, **kwargs):
        if path.name == "run_config.json":
            raise OSError("disk full")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", boom)


def _directory_at_run_config(monkeypatch, out):
    target = out / "run_config.json"
    if target.is_file():
        target.unlink()
    target.mkdir(parents=True)
    (target / "kept.txt").write_text("not earlypd's")


# Each way to make a write fail, set up on the (monkeypatch, run directory)
# before the write. Both writers write every file these name.
WRITE_FAILURES = {
    "cohort": lambda mp, out: mp.setattr(earlypd.pipeline, "export_csv", _disk_full),
    "sidecar": lambda mp, out: mp.setattr(earlypd.pipeline, "save_sidecar", _disk_full),
    **{f"models/{name}.json": _fail_saving(f"{name}.json") for name in MODEL_ORDER},
    "text file": _fail_writing_run_config,
    "directory target": _directory_at_run_config,
}


def _files(root) -> dict:
    """Every file under root, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_write_artifacts_cleans_up_on_failure(tmp_path, monkeypatch):
    config = fast_config()
    # `earlypd experiment` and `earlypd train` share the writer and its guarantee
    for write in (run_and_write, train_and_write):
        earlier = tmp_path / "earlier" / write.__name__
        run_and_write(replace(config, seed=12), earlier)
        (earlier / "notes.txt").write_text("a file earlypd did not write")
        for failure, setup in WRITE_FAILURES.items():
            for out in (tmp_path / failure / write.__name__, earlier):
                with monkeypatch.context() as mp:
                    setup(mp, out)
                    before = _files(out)
                    with pytest.raises(OSError):
                        write(config, out)
                # what was there is left byte for byte, with no staging directory
                assert _files(out) == before, (write.__name__, failure, out)
                assert not list(out.glob(".staging-*")), (write.__name__, failure)


TRAINING_FILES = {"preprocess.json", "run_config.json", "models/boostlr.json"}


# (writer, models, read the CSV input) for a first and a second run into one
# directory, and the files the second leaves there besides notes.txt
@pytest.mark.parametrize("first, second, left", [
    ((run_and_write, ("mlp", "forest"), False), (run_and_write, ("forest",), False),
     EXPECTED_FILES | {"models/forest.json", "roc_forest_test.csv", "roc_forest_test.svg"}),
    ((run_and_write, MODEL_ORDER, False), (train_and_write, ("boostlr",), True),
     TRAINING_FILES),
    # the bayesnet model of other data must not stay beside the new sidecar
    ((train_and_write, ("mlp", "bayesnet"), False), (train_and_write, ("boostlr",), True),
     TRAINING_FILES),
])
def test_rerun_removes_the_earlier_runs_files(small_cohort, tmp_path, first, second, left):
    source = tmp_path / "input.csv"
    export_csv(small_cohort, source)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("a file earlypd did not write")
    for write, models, from_csv in (first, second):
        write(fast_config(models=models, input=str(source) if from_csv else None), out)
    assert set(_files(out)) == left | {"notes.txt"}


@pytest.mark.parametrize("write", [run_and_write, train_and_write])
@pytest.mark.parametrize("relative", [False, True])
def test_rerun_keeps_the_cohort_it_reads(small_cohort, tmp_path, monkeypatch, write, relative):
    # generate --out DIR/cohort.csv, then a run that reads it into DIR: the
    # cohort sits at a layout name the run does not write, yet is its input
    out = tmp_path / "out"
    run_and_write(fast_config(models=("mlp", "forest")), out)
    export_csv(small_cohort, out / "cohort.csv")
    cohort = (out / "cohort.csv").read_bytes()
    if relative:
        monkeypatch.chdir(out)
    source, target = ("cohort.csv", ".") if relative else (str(out / "cohort.csv"), out)
    write(fast_config(models=("boostlr",), input=source), target)
    assert (out / "cohort.csv").read_bytes() == cohort
    assert not (out / "models" / "mlp.json").exists()


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
    with pytest.raises(DataError, match="asked to generate zero records"):
        run_experiment(fast_config(generate=GenerateConfig(n_healthy=0, n_pd=0)))

