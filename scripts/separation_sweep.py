"""Sweep the cohort separation dial and tabulate test AUC per model.

The generator's ``separation`` parameter scales the gap between the class
distributions: 0 removes the signal entirely (AUC should hover near 0.5)
and 1 keeps the configured gap. This script runs the pipeline across a grid
of separations and seeds with lightweight model settings, then prints the
mean test AUC per model at each separation.

    python3 scripts/separation_sweep.py
    python3 scripts/separation_sweep.py --separations 0,0.5,1 --seeds 3 --csv sweep.csv
"""

import argparse
import sys

from earlypd.boostlr import BoostConfig
from earlypd.cli import error_exit
from earlypd.errors import ConfigError, DataError
from earlypd.forest import ForestConfig
from earlypd.mlp import MlpConfig
from earlypd.pipeline import MODEL_ORDER, PipelineConfig, run_experiment
from earlypd.synth import GenerateConfig


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--separations", default="0,0.25,0.5,0.75,1",
                        help="comma separated separation values")
    parser.add_argument("--seeds", type=int, default=2,
                        help="seeds per separation (0..n-1)")
    parser.add_argument("--n-healthy", type=int, default=120)
    parser.add_argument("--n-pd", type=int, default=240)
    parser.add_argument("--csv", default=None,
                        help="also write the per-run values to this CSV")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    try:
        args.separations = [float(s) for s in args.separations.split(",") if s.strip()]
    except ValueError as err:
        parser.error(f"--separations: {err}")
    if not args.separations:
        parser.error("--separations needs at least one value")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return sweep(args)
    except (DataError, ConfigError, OSError) as err:
        return error_exit(err)  # one JSON line on stderr, as earlypd prints


def sweep(args) -> int:
    rows = []
    for separation in args.separations:
        for seed in range(args.seeds):
            config = PipelineConfig(
                seed=seed,
                generate=GenerateConfig(args.n_healthy, args.n_pd, separation),
                mlp=MlpConfig(hidden_units=6, epochs=120),
                forest=ForestConfig(trees=40),
                boostlr=BoostConfig(max_rounds=8),
            )
            result = run_experiment(config)
            for model in MODEL_ORDER:
                auc = result.evaluations[model]["testing"].roc.auc
                rows.append((separation, seed, model, auc))

    header = "separation " + " ".join(f"{m:>10}" for m in MODEL_ORDER)
    print(header)
    print("-" * len(header))
    for separation in args.separations:
        cells = []
        for model in MODEL_ORDER:
            values = [auc for sep, _, m, auc in rows
                      if sep == separation and m == model]
            cells.append(f"{sum(values) / len(values):10.3f}")
        print(f"{separation:10.2f} " + " ".join(cells))

    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("separation,seed,model,test_auc\n")
            for separation, seed, model, auc in rows:
                fh.write(f"{separation!r},{seed},{model},{auc!r}\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
