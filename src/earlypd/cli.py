"""Command line interface.

Subcommands:

    generate    synthesize a cohort CSV
    validate    check a cohort CSV against the schema and list violations
    experiment  full run: data -> normalize -> split -> train -> report
    train       fit and save models (plus preprocessing sidecar) only
    evaluate    score a saved model against a CSV, print metrics JSON
    report      re-render the metrics table from evaluations.json
    roc         re-render one ROC curve (csv or svg) from evaluations.json

Exit codes: 0 success, 1 data problem, 2 bad configuration or usage.
Failures print a single JSON line to stderr so callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._version import __version__
from .data import export_csv, ingest_csv, location, validate_file
from .errors import ConfigError, DataError
from .jsontext import json_text
from .metrics import (
    SPLITS,
    evaluate_scores,
    render_report_csv,
    render_report_text,
    roc_csv,
    roc_svg,
)
from .pipeline import (
    DISPLAY_NAMES,
    MODEL_ORDER,
    PipelineConfig,
    config_from_dict,
    load_config,
    load_evaluations,
    load_model_file,
    roc_title,
    run_and_write,
    score_batch,
    train_and_write,
)
from .preprocess import load_sidecar, normalize_apply
from .synth import generate


def _add_generate_flags(parser: argparse.ArgumentParser) -> None:
    defaults = PipelineConfig()
    parser.add_argument("--seed", type=int,
                        help=f"root seed for every random stream (default {defaults.seed})")
    parser.add_argument("--n-healthy", type=int,
                        help="healthy records to synthesize "
                             f"(default {defaults.generate.n_healthy})")
    parser.add_argument("--n-pd", type=int,
                        help=f"PD records to synthesize (default {defaults.generate.n_pd})")
    parser.add_argument("--separation", type=float,
                        help="class separation scale; 0 removes all signal, 1 keeps "
                             f"the configured gap (default {defaults.generate.separation})")
    parser.add_argument("--params", help="JSON file with generator feature parameters")


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    defaults = PipelineConfig()
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--input", help="cohort CSV to ingest instead of generating one")
    parser.add_argument("--train-fraction", type=float,
                        help="fraction of each class placed in the training split "
                             f"(default {defaults.train_fraction})")
    parser.add_argument("--models",
                        type=lambda text: [m.strip() for m in text.split(",") if m.strip()],
                        help="comma separated subset of: " + ", ".join(MODEL_ORDER))
    parser.add_argument("--normalize-on", choices=("all", "train"),
                        help="fit min/max on the whole cohort or on the training "
                             f"split only (default {defaults.normalize_on})")
    _add_generate_flags(parser)


# The config key each flag sets. A flag that is not given leaves the value
# from the config file, or the default.
_FLAG_KEYS = {
    "input": "input",
    "seed": "seed",
    "train_fraction": "train_fraction",
    "models": "models",
    "normalize_on": "normalize_on",
    "n_healthy": "generate.n_healthy",
    "n_pd": "generate.n_pd",
    "separation": "generate.separation",
    "params": "generate.params_path",
}


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then the config file, then CLI flags. Last writer wins."""
    path = getattr(args, "config", None)  # `generate` takes no config file
    obj = (load_config(path) if path is not None else PipelineConfig()).to_json_dict()
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            section, _, name = key.rpartition(".")
            (obj[section] if section else obj)[name] = value
    return config_from_dict(obj)


def cmd_generate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    ds = generate(config.generate, config.seed)
    export_csv(ds, args.out)
    healthy, pd = ds.class_counts()
    print(f"wrote {args.out} ({healthy} healthy, {pd} pd)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    findings = validate_file(args.input)
    for row, column, kind, message in findings:
        print(f"{location(row, column)}: {kind}: {message}")
    if findings:
        print(f"{len(findings)} problem(s) found")
        return 1
    print("ok")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = run_and_write(config, args.out)
    print(result.report_text)
    print(f"artifacts written to {args.out} "
          f"({result.elapsed_seconds:.1f}s)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _build_config(args)
    train, models = train_and_write(config, args.out)
    print(f"trained {', '.join(models)} on {len(train)} records; "
          f"models under {Path(args.out) / 'models'}")
    return 0


def _write_or_print(text: str, out) -> int:
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    stats = load_sidecar(args.preprocess)
    kind, model = load_model_file(args.model)
    scaled = normalize_apply(ingest_csv(args.input), stats)
    report = evaluate_scores(scaled.labels,
                             score_batch(kind, model, scaled.features))
    payload = {"model": kind, "records": len(scaled), **report.to_json_dict()}
    return _write_or_print(json_text(payload), args.out)


def cmd_report(args: argparse.Namespace) -> int:
    reports = load_evaluations(args.evaluations)
    if args.format == "csv":
        text = render_report_csv(reports)
    else:
        text = render_report_text(reports, DISPLAY_NAMES)
    return _write_or_print(text, args.out)


def cmd_roc(args: argparse.Namespace) -> int:
    reports = load_evaluations(args.evaluations)
    if args.model not in reports:
        raise ConfigError(f"no evaluation for model {args.model!r}")
    curve = reports[args.model][args.split].roc
    if args.format == "svg":
        text = roc_svg(curve, roc_title(args.model, args.split))
    else:
        text = roc_csv(curve)
    return _write_or_print(text, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earlypd",
        description="Early PD prediction pipeline on clinical-style cohorts.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a cohort CSV")
    _add_generate_flags(p)
    p.add_argument("--out", default="cohort.csv", help="output CSV path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="check a cohort CSV for schema violations")
    p.add_argument("input", help="cohort CSV path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("experiment", help="run the full pipeline and write artifacts")
    _add_experiment_flags(p)
    p.add_argument("--out", default="runs/experiment", help="artifact directory")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("train", help="fit and save models without evaluation artifacts")
    _add_experiment_flags(p)
    p.add_argument("--out", default="runs/train", help="artifact directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model against a CSV")
    p.add_argument("--model", required=True, help="saved model JSON file")
    p.add_argument("--input", required=True, help="cohort CSV path")
    p.add_argument("--preprocess", required=True,
                   help="preprocess.json sidecar with normalization stats")
    p.add_argument("--out", default=None, help="write metrics JSON here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render the metrics table from evaluations.json")
    p.add_argument("--evaluations", required=True, help="evaluations.json path")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("roc", help="render one ROC curve from evaluations.json")
    p.add_argument("--evaluations", required=True, help="evaluations.json path")
    p.add_argument("--model", required=True, choices=MODEL_ORDER)
    p.add_argument("--split", choices=SPLITS, default="testing")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--out", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_roc)

    return parser


def error_exit(err: DataError | ConfigError | OSError) -> int:
    """Print err as one JSON line on stderr; return its exit code."""
    if isinstance(err, DataError):
        payload = {"error": "data", "kind": type(err).__name__, "message": str(err)}
        if err.row is not None:
            payload["row"] = err.row
        if err.column is not None:
            payload["column"] = err.column
    else:
        payload = {"error": "config" if isinstance(err, ConfigError) else "io",
                   "message": str(err)}
    print(json.dumps(payload), file=sys.stderr)
    return 2 if isinstance(err, ConfigError) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (DataError, ConfigError, OSError) as err:
        return error_exit(err)


if __name__ == "__main__":
    sys.exit(main())
