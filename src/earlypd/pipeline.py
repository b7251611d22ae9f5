"""End-to-end experiment orchestration shared by the CLI subcommands.

One root seed drives everything through labeled streams ("generate", "split",
"mlp", "tree/<i>"), so reruns with the same config are byte-identical and
enabling or disabling one model never changes what the others see. Every
model is trained and evaluated before anything touches disk, so a run that
fails on the way writes no file. A write is staged, then renamed into place,
so one that fails leaves the directory as it was, and one that succeeds
removes the files of an earlier run that it did not write (see _write_files).
"""

from __future__ import annotations

import csv
import math
import tempfile
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from ._version import __version__
from .bayesnet import BayesNetConfig, BayesNetModel, bn_score_batch, bn_train
from .boostlr import BoostConfig, BoostedModel, adaboost_train, boosted_score_batch
from .data import Dataset, _csv_cells, export_csv, ingest_csv
from .errors import ConfigError, DataError
from .forest import ForestConfig, ForestModel, forest_score_batch, forest_train, usable_cpus
from .jsontext import check_version, from_json, json_text, read_json, write_json
from .metrics import (
    SPLITS,
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
    normalize_fit,
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
    model: type  # to/from_json_dict(); the reader refuses a model not of 13 features


# Canonical order: train_models keys its dict in it; every later stage follows that dict.
MODELS = {
    "mlp": ModelSpec(
        "Multilayer Perceptron",
        lambda train, config: mlp_train(train, config.mlp, config.seed),
        lambda model, features: mlp_score_batch(model, features), MlpModel),
    "bayesnet": ModelSpec(
        "BayesNet",
        lambda train, config: bn_train(train, config.bayesnet),
        lambda model, features: bn_score_batch(model, features), BayesNetModel),
    "forest": ModelSpec(
        "Random Forest",
        lambda train, config: forest_train(train, config.forest, config.seed),
        lambda model, features: forest_score_batch(model, features), ForestModel),
    "boostlr": ModelSpec(
        "Boosted Logistic Regression",
        lambda train, config: adaboost_train(train, config.boostlr.max_rounds,
                                             config.boostlr.ridge),
        lambda model, features: boosted_score_batch(model, features), BoostedModel),
}
MODEL_ORDER = tuple(MODELS)
DISPLAY_NAMES = {name: spec.display_name for name, spec in MODELS.items()}
# The run layout, the one place its names are spelled: every file a run may
# write under its output directory. A run removes those it did not write.
TRAINING_FILES = ("cohort.csv", "preprocess.json", "run_config.json")
RESULT_FILES = ("scores.csv", "report.csv", "report.txt", "metadata.json")
MODEL_FILES = ("models/{}.json", "roc_{}_test.csv", "roc_{}_test.svg")  # per model
# evaluations.json is the evaluation record of earlier releases, which no run writes now
RUN_FILES = TRAINING_FILES + RESULT_FILES + ("evaluations.json",) + tuple(
    form.format(model) for model in MODEL_ORDER for form in MODEL_FILES)
SCORE_COLUMNS = ("subject_id", "split", "label")  # scores.csv's, then one per model


def roc_title(name: str, split: str) -> str:
    """The title of a model's ROC plot on a split, "training" or "testing"."""
    return f"ROC ({DISPLAY_NAMES[name]}, {split.removesuffix('ing')} split)"


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
        repeated = [m for m in MODEL_ORDER if self.models.count(m) > 1]
        if repeated:
            raise ConfigError(f"models named more than once: {', '.join(repeated)}")
        if not self.models:
            raise ConfigError("at least one model must be selected")
        check_train_fraction(self.train_fraction)
        if self.normalize_on not in ("all", "train"):
            raise ConfigError("normalize_on must be 'all' or 'train'")

    def to_json_dict(self) -> dict:
        return asdict(self)


def config_from_dict(obj: dict) -> PipelineConfig:
    """PipelineConfig from a parsed JSON config file."""
    return from_json(PipelineConfig, obj)


def load_config(path) -> PipelineConfig:
    return read_json(path, "a config file", config_from_dict)


def acquire_dataset(config: PipelineConfig) -> Dataset:
    """Ingest the configured CSV, or generate a synthetic cohort."""
    if config.input is not None:
        return ingest_csv(config.input)
    return generate(config.generate, config.seed)


def prepare_splits(config: PipelineConfig, ds: Dataset):
    """(train, test, stats): the stratified split, each side scaled by the
    min and max of the whole cohort or of the training split (normalize_on).
    A training split without both classes is refused before any scaling."""
    train, test = stratified_split(ds, config.train_fraction, config.seed)
    check_classes(train.labels, f"train_fraction {config.train_fraction} leaves the training split")
    stats = normalize_fit(ds if config.normalize_on == "all" else train)
    return normalize_apply(train, stats), normalize_apply(test, stats), stats


def check_classes(labels, where: str) -> None:
    """DataError unless labels hold both classes; where names their source,
    and the message goes on with the class or classes they lack."""
    missing = [kind for label, kind in enumerate(("healthy (label 0)", "PD (label 1)"))
               if label not in labels]
    if missing:
        raise DataError(f"{where} without a {' or a '.join(missing)} record")


def train_models(config: PipelineConfig, train: Dataset) -> dict:
    """{model: trained model} for the configured models, in MODELS order."""
    return {name: spec.train(train, config) for name, spec in MODELS.items()
            if name in config.models}


def score_batch(name: str, model, features):
    return MODELS[name].score(model, features)


# The model file format. A file of any other version is refused on load.
MODEL_VERSION = 3


def save_model_file(model, path) -> None:
    write_json(path, {**model.to_json_dict(), "version": MODEL_VERSION})


def load_model_file(path) -> tuple:
    """(kind, model) from a saved model file, dispatched on its stored kind.
    A file of another version, a stored setting out of its bound (a forest
    of no trees) or a model that does not read the 13 CSV features is a
    malformed file too."""
    return read_json(path, "a saved model file", _model_from_json)


def _model_from_json(obj) -> tuple:
    kind = obj["kind"]
    if not (type(kind) is str and kind in MODELS):
        raise ValueError(f"kind {kind!r} is not one of {', '.join(MODELS)}")
    check_version(obj.get("version"), MODEL_VERSION, "retrain the model")
    return kind, MODELS[kind].model.from_json_dict(obj)


def evaluate_models(labels: dict, scores: dict) -> dict:
    """{model: {split: report}} of a run's or a scores file's {split: labels}
    and {model: {split: scores}}, in the order of scores."""
    return {name: {split: evaluate_scores(labels[split], by_split[split]) for split in SPLITS}
            for name, by_split in scores.items()}


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: PipelineConfig
    dataset: Dataset
    train: Dataset
    test: Dataset
    stats: object
    models: dict
    scores: dict
    evaluations: dict
    report_csv: str
    report_text: str
    elapsed_seconds: float


def run_experiment(config: PipelineConfig) -> ExperimentResult:
    started = time.perf_counter()
    ds = acquire_dataset(config)
    train, test, stats = prepare_splits(config, ds)
    # before the training time is spent
    check_classes(test.labels, f"train_fraction {config.train_fraction} leaves the testing split")
    models = train_models(config, train)
    scores = {name: {split: score_batch(name, model, data.features)
                     for split, data in zip(SPLITS, (train, test))}
              for name, model in models.items()}
    evaluations = evaluate_models(dict(zip(SPLITS, (train.labels, test.labels))), scores)
    report = render_report_csv(evaluations)
    text = render_report_text(evaluations, DISPLAY_NAMES)
    return ExperimentResult(config, ds, train, test, stats, models, scores, evaluations,
                            report, text, time.perf_counter() - started)


def _training_files(config: PipelineConfig, dataset: Dataset, stats, models: dict) -> list:
    """(relative path, content) pairs that `train` and `experiment` both write."""
    cohort, sidecar, run_config = TRAINING_FILES
    files = [(cohort, partial(export_csv, dataset))] if config.input is None else []
    files.append((sidecar, partial(save_sidecar, stats=stats)))
    files += [(MODEL_FILES[0].format(name), partial(save_model_file, model))
              for name, model in models.items()]
    files.append((run_config, json_text(config.to_json_dict())))
    return files


def write_files(out_dir, files) -> list:
    """Write (relative path, content) pairs under out_dir; returns the paths.

    content is the text to write, or a function that writes the path it is
    given. All are staged in a .staging-* directory in out_dir, then, if each
    target is new or a regular file, renamed into place: a failed write leaves
    out_dir as it was, but a crash while renaming can leave a mix of two runs.
    """
    out = Path(out_dir)
    targets = [out / name for name, _content in files]
    for target in targets:
        target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".staging-", dir=out) as staging:
        for name, content in files:
            path = Path(staging, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            if callable(content):
                content(path)
            else:
                path.write_text(content, encoding="utf-8")
        # before any rename: one onto a directory fails, one onto a pipe replaces it
        if blocked := [path for path in targets if path.exists() and not path.is_file()]:
            raise OSError(f"{blocked[0]} is not a regular file")
        for target, (name, _content) in zip(targets, files):
            Path(staging, name).replace(target)
    return targets


def _write_files(out_dir, files, input_path) -> list:
    """write_files, then remove each regular file at a RUN_FILES name that was
    not written, unless it is the CSV the run read (input_path)."""
    targets = write_files(out_dir, files)
    read = input_path and Path(input_path).resolve()
    for path in {Path(out_dir, name) for name in RUN_FILES} - set(targets):
        if path.is_file() and path.resolve() != read:
            path.unlink()
    return targets


def write_artifacts(result: ExperimentResult, out_dir) -> list:
    """Write every experiment artifact under out_dir; returns written paths.

    Timestamps and the host's CPU count live only in metadata.json, so every
    other artifact is byte-identical across reruns of the same config.
    """
    config = result.config
    files = _training_files(config, result.dataset, result.stats, result.models)
    scores_file, report_table, report_text, metadata_file = RESULT_FILES
    files += [(scores_file, _scores_csv(result)),
              (report_table, result.report_csv),
              (report_text, result.report_text)]
    for name, by_split in result.evaluations.items():
        curve = by_split["testing"].roc
        _model, roc_table, roc_plot = (form.format(name) for form in MODEL_FILES)
        files.append((roc_table, roc_csv(curve)))
        files.append((roc_plot, roc_svg(curve, roc_title(name, "testing"))))
    metadata = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "package_version": __version__,
        "elapsed_seconds": result.elapsed_seconds,
        "input": config.input if config.input is not None else "generated",
        # the forest's trees are grown and scored in this many processes at most
        "processes": usable_cpus(),
    }
    files.append((metadata_file, json_text(metadata)))
    return _write_files(out_dir, files, config.input)


def _scores_csv(result: ExperimentResult) -> str:
    """SCORE_COLUMNS and the models, then a row per training and then testing record."""
    lines = [",".join(SCORE_COLUMNS + tuple(result.scores))]
    for split, data in zip(SPLITS, (result.train, result.test)):
        columns = [map(repr, by_split[split].tolist()) for by_split in result.scores.values()]
        lines += map(",".join, zip(_csv_cells(data.subject_ids), [split] * len(data),
                                   map(str, data.labels.tolist()), *columns))
    return "\n".join(lines) + "\n"


def load_scores(path) -> tuple:
    """({split: labels}, {model: {split: scores}}) for evaluate_models from a
    file that _scores_csv could write; any other file raises one ConfigError,
    and a split without both classes one DataError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            names = header[len(SCORE_COLUMNS):]
            if (tuple(header[:len(SCORE_COLUMNS)]) != SCORE_COLUMNS
                    or not 0 < len(set(names) & set(MODEL_ORDER)) == len(names)):
                raise ValueError(f"the header is not {','.join(SCORE_COLUMNS)} and distinct models")
            rows = {split: [] for split in SPLITS}
            for cells in reader:
                values = [float(cell) for cell in cells[2:]] if len(cells) == len(header) else []
                if not (values and cells[1] in rows and values[0] in (0, 1)
                        and all(map(math.isfinite, values))):
                    raise ValueError(f"line {reader.line_num} is not an id, a split of {SPLITS},"
                                     f" a label of 0 or 1 and {len(names)} finite scores")
                rows[cells[1]].append(values)
        if missing := [split for split, values in rows.items() if not values]:
            raise ValueError(f"no row has the split {missing[0]!r}")
    except (ValueError, csv.Error) as err:  # ValueError covers UnicodeDecodeError
        raise ConfigError(f"{path} is not a scores file ({type(err).__name__}: {err})") from None
    labels = {split: [int(row[0]) for row in values] for split, values in rows.items()}
    for split, split_labels in labels.items():
        check_classes(split_labels, f"{path} has its {split} split")
    return (labels,
            {name: {split: [row[i] for row in values] for split, values in rows.items()}
             for i, name in enumerate(names, start=1)})


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
    _write_files(out_dir, _training_files(config, ds, stats, models), config.input)
    return train, models
