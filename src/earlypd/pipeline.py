"""End-to-end experiment orchestration shared by the CLI subcommands.

One root seed drives everything through labeled streams ("generate", "split",
"mlp", "tree/<i>"), so reruns with the same config are byte-identical and
enabling or disabling one model never changes what the others see. All
artifact content is computed in memory before anything touches disk; a
failure therefore leaves no partial artifacts behind.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints

from ._version import __version__
from .bayesnet import BayesNetConfig, BayesNetModel, bn_score_batch, bn_train
from .boostlr import BoostConfig, BoostedModel, adaboost_train, boosted_score_batch
from .data import Dataset, export_csv, ingest_csv
from .errors import ConfigError
from .forest import ForestConfig, ForestModel, forest_score_batch, forest_train, usable_cpus
from .jsontext import json_text
from .metrics import (
    evaluate_scores,
    render_report_csv,
    render_report_text,
    roc_csv,
    roc_svg,
)
from .mlp import MlpConfig, MlpModel, mlp_score_batch, mlp_train
from .preprocess import (
    check_train_fraction,
    normalize_apply,
    normalize_fit_transform,
    save_sidecar,
    stratified_split,
)
from .synth import GenerateConfig, generate


@dataclass(frozen=True)
class ModelSpec:
    """One of the experiment's classifiers.

    The trainer and scorer call the model module's functions through this
    module's names at call time, so a wrapper put on such a name (a profiler,
    a test's monkeypatch) sees every call.
    """

    display_name: str
    train: Callable  # (training Dataset, PipelineConfig) -> model
    score: Callable  # (model, feature matrix) -> PD scores
    model: type  # to_json_dict() / from_json_dict() for the saved model file
    # model -> the number of feature columns it scores, or None where the
    # saved model does not record it
    inputs: Callable = lambda model: None


# Canonical order: training, report rows and artifact files all follow it.
MODELS = {
    "mlp": ModelSpec(
        "Multilayer Perceptron",
        lambda train, config: mlp_train(train, config.mlp, config.seed),
        lambda model, features: mlp_score_batch(model, features), MlpModel,
        lambda model: model.w_hidden.shape[1] - 1),
    "bayesnet": ModelSpec(
        "BayesNet",
        lambda train, config: bn_train(train, config.bayesnet),
        lambda model, features: bn_score_batch(model, features), BayesNetModel,
        lambda model: len(model.dmap.schema)),
    "forest": ModelSpec(
        "Random Forest",
        lambda train, config: forest_train(train, config.forest, config.seed),
        lambda model, features: forest_score_batch(model, features), ForestModel,
        lambda model: model.n_features),
    "boostlr": ModelSpec(
        "Boosted Logistic Regression",
        lambda train, config: adaboost_train(train, config.boostlr.max_rounds,
                                             config.boostlr.ridge),
        lambda model, features: boosted_score_batch(model, features), BoostedModel,
        lambda model: len(model.rounds[0].model.coef) if model.rounds else None),
}
MODEL_ORDER = tuple(MODELS)
DISPLAY_NAMES = {name: spec.display_name for name, spec in MODELS.items()}


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run. Each is declared once, with its default and its
    bound: here, or in the settings dataclass of the stage that uses it."""

    seed: int = 42
    input: str | None = None  # CSV path; None means generate a cohort
    generate: GenerateConfig = field(default_factory=GenerateConfig)
    train_fraction: float = 0.7
    models: tuple[str, ...] = MODEL_ORDER
    normalize_on: str = "all"  # scale before splitting, or fit on train only
    mlp: MlpConfig = field(default_factory=MlpConfig)
    bayesnet: BayesNetConfig = field(default_factory=BayesNetConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    boostlr: BoostConfig = field(default_factory=BoostConfig)

    def __post_init__(self):
        unknown = [m for m in self.models if m not in MODEL_ORDER]
        if unknown:
            raise ConfigError(f"unknown models: {', '.join(unknown)}")
        if not self.models:
            raise ConfigError("at least one model must be selected")
        check_train_fraction(self.train_fraction)
        if self.normalize_on not in ("all", "train"):
            raise ConfigError("normalize_on must be 'all' or 'train'")

    def ordered_models(self) -> tuple:
        return tuple(m for m in MODEL_ORDER if m in self.models)

    def to_json_dict(self) -> dict:
        return asdict(self)


# The Python types a JSON value may have for each declared type. JSON has one
# number type, so an int stands for a float; a bool is never a number here.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,),
               type(None): (type(None),)}


def _json_value(kind, name: str, value, key: str):
    """value if it has the declared type kind (spelled name), else ConfigError."""
    if is_dataclass(kind):
        return _from_json(kind, value, key + ".")
    if get_origin(kind) is tuple:  # tuple[str, ...] is a JSON list of strings
        if isinstance(value, (list, tuple)) and all(type(v) is get_args(kind)[0]
                                                    for v in value):
            return tuple(value)
    elif type(value) in [t for k in get_args(kind) or (kind,) for t in _JSON_TYPES[k]]:
        return value
    raise ConfigError(f"config key {key!r} must be {name}, got {value!r}")


def _from_json(cls, obj, where: str = ""):
    """cls from a JSON object. Keys it does not declare raise ConfigError;
    keys left out take its defaults."""
    if not isinstance(obj, dict):
        section = f"key {where[:-1]!r}" if where else "file"
        raise ConfigError(f"config {section} must hold a JSON object")
    declared = {f.name: f.type for f in fields(cls)}  # type as written, e.g. "str | None"
    unknown = [key for key in obj if key not in declared]
    if unknown:
        raise ConfigError(f"unknown config key {where + unknown[0]!r}")
    hints = get_type_hints(cls)
    return cls(**{key: _json_value(hints[key], declared[key], value, where + key)
                  for key, value in obj.items()})


def config_from_dict(obj: dict) -> PipelineConfig:
    """PipelineConfig from a parsed JSON config file."""
    return _from_json(PipelineConfig, obj)


def load_config(path) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    return config_from_dict(obj)


def acquire_dataset(config: PipelineConfig) -> Dataset:
    """Ingest the configured CSV, or generate a synthetic cohort."""
    if config.input is not None:
        return ingest_csv(config.input)
    return generate(config.generate, config.seed)


def prepare_splits(config: PipelineConfig, ds: Dataset):
    """(train, test, stats) after normalization and stratified splitting."""
    if config.normalize_on == "all":
        scaled, stats = normalize_fit_transform(ds)
        train, test = stratified_split(scaled, config.train_fraction, config.seed)
    else:
        raw_train, raw_test = stratified_split(ds, config.train_fraction, config.seed)
        train, stats = normalize_fit_transform(raw_train)
        test = normalize_apply(raw_test, stats)
    return train, test, stats


def train_models(config: PipelineConfig, train: Dataset) -> dict:
    return {name: MODELS[name].train(train, config) for name in config.ordered_models()}


def score_batch(name: str, model, features):
    return MODELS[name].score(model, features)


# The model file format. A file of any other version is refused on load.
MODEL_VERSION = 1


def save_model_file(model, path) -> None:
    Path(path).write_text(json_text({**model.to_json_dict(), "version": MODEL_VERSION}),
                          encoding="utf-8")


def load_model_file(path) -> tuple:
    """(kind, model) from a saved model file, dispatched on its stored kind.
    A file of another version, or a stored setting out of its bound (a forest
    of no trees), is a malformed file too."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        kind = obj["kind"]
        version = obj.get("version")
        if not (type(version) is int and version == MODEL_VERSION):
            raise ValueError(f"version {version!r}; this earlypd reads model files of "
                             f"version {MODEL_VERSION}, so retrain the model")
        return kind, MODELS[kind].model.from_json_dict(obj)
    # OverflowError: a JSON integer beyond the doubles, or beyond int64 where an
    # index or count is read
    except (ConfigError, KeyError, IndexError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{path} is not a saved model file "
                          f"({type(err).__name__}: {err})") from None


def evaluate_models(models: dict, train: Dataset, test: Dataset) -> dict:
    out = {}
    for name, model in models.items():
        out[name] = {
            "training": evaluate_scores(train.labels, score_batch(name, model, train.features)),
            "testing": evaluate_scores(test.labels, score_batch(name, model, test.features)),
        }
    return out


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: PipelineConfig
    dataset: Dataset
    train: Dataset
    test: Dataset
    stats: object
    models: dict
    evaluations: dict
    report_csv: str
    report_text: str
    elapsed_seconds: float


def run_experiment(config: PipelineConfig) -> ExperimentResult:
    started = time.perf_counter()
    ds = acquire_dataset(config)
    train, test, stats = prepare_splits(config, ds)
    models = train_models(config, train)
    evaluations = evaluate_models(models, train, test)
    order = config.ordered_models()
    report = render_report_csv(evaluations, order)
    text = render_report_text(evaluations, order, DISPLAY_NAMES)
    return ExperimentResult(config, ds, train, test, stats, models, evaluations,
                            report, text, time.perf_counter() - started)


def _training_files(config: PipelineConfig, dataset: Dataset, stats, models: dict) -> list:
    """(relative path, content) pairs that `train` and `experiment` both write."""
    files = []
    if config.input is None:
        files.append(("cohort.csv", partial(export_csv, dataset)))
    dmap = models["bayesnet"].dmap if "bayesnet" in models else None
    files.append(("preprocess.json", lambda path: save_sidecar(path, stats, dmap)))
    files += [(f"models/{name}.json", partial(save_model_file, model))
              for name, model in models.items()]
    files.append(("run_config.json", json_text(config.to_json_dict())))
    return files


def _write_files(out_dir, files) -> list:
    """Write (relative path, content) pairs under out_dir; returns the paths.

    content is the text to write, or a function that writes the path it is
    given. If any write fails, the files written so far are removed.
    """
    out = Path(out_dir)
    (out / "models").mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for name, content in files:
            path = out / name
            if callable(content):
                content(path)
            else:
                path.write_text(content, encoding="utf-8")
            written.append(path)
    except Exception:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
    return written


def write_artifacts(result: ExperimentResult, out_dir) -> list:
    """Write every experiment artifact under out_dir; returns written paths.

    Timestamps and the host's CPU count live only in metadata.json, so every
    other artifact is byte-identical across reruns of the same config. If any
    write fails, the files written so far are removed.
    """
    config = result.config
    files = _training_files(config, result.dataset, result.stats, result.models)
    evaluations = {
        "model_order": list(config.ordered_models()),
        "models": {
            name: {split: report.to_json_dict() for split, report in by_split.items()}
            for name, by_split in result.evaluations.items()
        },
    }
    files += [("evaluations.json", json_text(evaluations)),
              ("report.csv", result.report_csv),
              ("report.txt", result.report_text)]
    for name in config.ordered_models():
        curve = result.evaluations[name]["testing"].roc
        files.append((f"roc_{name}_test.csv", roc_csv(curve)))
        files.append((f"roc_{name}_test.svg",
                      roc_svg(curve, f"ROC ({DISPLAY_NAMES[name]}, test split)")))
    metadata = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "package_version": __version__,
        "elapsed_seconds": result.elapsed_seconds,
        "input": config.input if config.input is not None else "generated",
        # the forest's trees are grown and scored in this many processes at most
        "processes": usable_cpus(),
    }
    files.append(("metadata.json", json_text(metadata)))
    return _write_files(out_dir, files)


def run_and_write(config: PipelineConfig, out_dir) -> ExperimentResult:
    result = run_experiment(config)
    write_artifacts(result, out_dir)
    return result


def train_and_write(config: PipelineConfig, out_dir) -> tuple:
    """Train the configured models and write the cohort (when generated), the
    sidecar, the model files and the run config; returns (train split, models)."""
    ds = acquire_dataset(config)
    train, _test, stats = prepare_splits(config, ds)
    models = train_models(config, train)
    _write_files(out_dir, _training_files(config, ds, stats, models))
    return train, models
