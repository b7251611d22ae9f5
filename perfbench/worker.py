"""Child process of run.py: prepares one workload's inputs, or runs its loop.

    python3 perfbench/worker.py setup|loop --workload W --seed N --work DIR
                                           --result FILE --seconds S --trace 0|1

Every call into earlypd goes through earlypd.cli.main(argv), in this process,
so it pays for exactly what a user of the command line pays for, minus the
interpreter start. One client, closed loop: the next iteration starts when
the previous one has returned and been checked.

`setup` ignores --seconds and --trace. It writes the inputs and records
when it finished (wall clock), so run.py can time import plus preparation
from the moment it spawned us.
`loop` runs iterations until --seconds have passed, checks every one, and
counts a failing one instead of stopping. With --trace 1 it alternates
untraced and traced iterations, so the per-layer numbers and the tracing
overhead come from the same process.

Both modes sample the machine's speed while the timed work runs, so times
can be given in reference seconds (see benchlib.SpeedSampler).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from benchlib import SpeedSampler, reference_seconds  # noqa: E402 - stdlib only

# Sample the machine's speed from the start, so a set-up's imports are covered.
STARTUP_SPEED = SpeedSampler().start() if __name__ == "__main__" else None

import numpy  # noqa: E402

import earlypd  # noqa: E402
import earlypd.cli  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# The expected report shape is written out here rather than imported, so a
# change to the program cannot change what the benchmark accepts.
MEASURES = ("accuracy", "recall", "precision", "f_measure", "auc")
SPLITS = ("training", "testing")
ALL_MODELS = ("mlp", "bayesnet", "forest", "boostlr")
# Acceptance criterion 01: every model on the default cohort (seed 42).
ACCURACY_FLOOR = 0.90
AUC_FLOOR = 0.95
DEFAULT_SEED = 42
# Test AUC floor for every model on every seed (the lowest seen on seeds
# 0-59 was boosted LR's 0.920).
AUC_FLOOR_ANY_SEED = 0.90

LARGE_COHORT = (920, 2010)  # 5x the paper's 184 healthy / 402 PD
LARGE_MODELS = ("bayesnet", "forest", "boostlr")
SCORE_COHORT = (6280, 13720)  # 20,000 records at the paper's class ratio
SCORE_RECORDS = sum(SCORE_COHORT)


class CheckFailed(Exception):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(argv) -> None:
    """earlypd.cli.main(argv) with its printing captured; non-zero exit fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = earlypd.cli.main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"earlypd {argv[0]} exited {code}")


# --- workloads --------------------------------------------------------------
#
# setup(work, seed) -> digest of the prepared inputs
# calls(work, seed) -> the argv lists one iteration runs, in order
# check(work, seed, state) -> facts about the iteration's outputs; raises
#     CheckFailed. state carries what the first iteration produced, so later
#     ones can be compared with it.


def check_report(report_csv: Path, models, seed: int, state: dict) -> dict:
    """Criterion 02's shape and criterion 01's floors on report.csv, and the
    same bytes as the first iteration of this run.

    Criterion 01 sets its floors on the default cohort, seed 42. On other
    seeds boosted LR, whose score is a vote over at most ten rounds, falls
    below a test AUC of 0.95 on 7 of 60 paper-size cohorts (seeds 0-59; the
    lowest is 0.920), while every model's test accuracy stayed at 0.915 or
    above on the seeds probed. So the accuracy floor binds on every seed, the
    0.95 AUC floor on seed 42, and a 0.90 AUC floor on every seed.
    """
    data = report_csv.read_bytes()
    lines = data.decode("utf-8").strip().splitlines()
    if not lines or lines[0] != "measure,model,split,value":
        raise CheckFailed("report.csv header changed")
    cells = {}
    for line in lines[1:]:
        measure, model, split, value = line.split(",")
        cells[(measure, model, split)] = float(value)
    expected = {(m, model, s) for m in MEASURES for model in models for s in SPLITS}
    if len(lines) - 1 != len(expected) or set(cells) != expected:
        raise CheckFailed(f"report.csv has {len(lines) - 1} cells, expected "
                          f"{len(models)} models x 2 splits x 5 measures")
    for model in models:
        accuracy = cells[("accuracy", model, "testing")]
        auc = cells[("auc", model, "testing")]
        if accuracy < ACCURACY_FLOOR:
            raise CheckFailed(f"{model} test accuracy {accuracy:.4f} < {ACCURACY_FLOOR}")
        floor = AUC_FLOOR if seed == DEFAULT_SEED else AUC_FLOOR_ANY_SEED
        if auc < floor:
            raise CheckFailed(f"{model} test AUC {auc:.4f} < {floor}")
    digest = hashlib.sha256(data).hexdigest()
    if state.setdefault("report_sha256", digest) != digest:
        raise CheckFailed("report.csv differs from the first iteration's")
    return {"auc_min": min(cells[("auc", m, "testing")] for m in models),
            "report_sha256": digest}


def setup_paper_default(work: Path, seed: int) -> str:
    return ""


def calls_paper_default(work: Path, seed: int):
    return [["experiment", "--seed", seed, "--out", work / "run"]]


def check_paper_default(work: Path, seed: int, state: dict) -> dict:
    return check_report(work / "run" / "report.csv", ALL_MODELS, seed, state)


def setup_large_cohort(work: Path, seed: int) -> str:
    config = {"seed": seed, "models": list(LARGE_MODELS),
              "generate": {"n_healthy": LARGE_COHORT[0], "n_pd": LARGE_COHORT[1]}}
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return sha256(path)


def calls_large_cohort(work: Path, seed: int):
    return [["experiment", "--config", work / "config.json", "--out", work / "run"]]


def check_large_cohort(work: Path, seed: int, state: dict) -> dict:
    return check_report(work / "run" / "report.csv", LARGE_MODELS, seed, state)


def setup_score_saved(work: Path, seed: int) -> str:
    trained = work / "train"
    cli(["train", "--seed", seed, "--out", trained])
    # seed + 1 keeps the scored cohort disjoint from the training cohort
    cli(["generate", "--seed", seed + 1, "--n-healthy", SCORE_COHORT[0],
         "--n-pd", SCORE_COHORT[1], "--out", work / "score.csv"])
    inputs = [trained / "preprocess.json", work / "score.csv"]
    inputs += [trained / "models" / f"{m}.json" for m in ALL_MODELS]
    return hashlib.sha256("".join(sha256(p) for p in inputs).encode()).hexdigest()


def calls_score_saved(work: Path, seed: int):
    trained = work / "train"
    return [["evaluate", "--model", trained / "models" / f"{m}.json",
             "--input", work / "score.csv", "--preprocess", trained / "preprocess.json",
             "--out", work / f"evaluate_{m}.json"] for m in ALL_MODELS]


def check_score_saved(work: Path, seed: int, state: dict) -> dict:
    aucs = []
    digest = hashlib.sha256()
    for model in ALL_MODELS:
        path = work / f"evaluate_{model}.json"
        data = path.read_bytes()
        digest.update(data)
        payload = json.loads(data)
        if payload.get("model") != model or payload.get("records") != SCORE_RECORDS:
            raise CheckFailed(f"{path.name}: model {payload.get('model')!r}, "
                              f"records {payload.get('records')!r}, expected "
                              f"{model!r} and {SCORE_RECORDS}")
        auc = float(payload["auc"])
        if auc < AUC_FLOOR_ANY_SEED:
            raise CheckFailed(f"{model} AUC {auc:.4f} on the scored records "
                              f"< {AUC_FLOOR_ANY_SEED}")
        aucs.append(auc)
    digest = digest.hexdigest()
    if state.setdefault("outputs_sha256", digest) != digest:
        raise CheckFailed("evaluate outputs differ from the first iteration's")
    return {"auc_min": min(aucs), "outputs_sha256": digest}


WORKLOADS = {
    "paper_default": (setup_paper_default, calls_paper_default, check_paper_default),
    "large_cohort": (setup_large_cohort, calls_large_cohort, check_large_cohort),
    "score_saved": (setup_score_saved, calls_score_saved, check_score_saved),
}


# --- modes --------------------------------------------------------------------


def run_setup(args) -> dict:
    setup, _calls, _check = WORKLOADS[args.workload]
    digest = setup(Path(args.work), args.seed)
    ready_at = time.time()
    STARTUP_SPEED.stop()
    return {"ready_at": ready_at, "inputs_sha256": digest,
            "speed_samples": STARTUP_SPEED.samples}


def run_iteration(calls, check, work, seed, state) -> dict:
    record = {"ok": False, "wall_s": 0.0, "ref_s": 0.0, "speed_samples": []}
    try:
        for argv in calls:
            with SpeedSampler() as speed:
                started = time.perf_counter()
                cli(argv)
                took = time.perf_counter() - started
            record["wall_s"] += took - sum(speed.samples)
            record["ref_s"] += reference_seconds(took, speed.samples)
            record["speed_samples"] += speed.samples
        record.update(check(work, seed, state), ok=True)
    except Exception as err:  # noqa: BLE001 - a failing iteration is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        record["error"] = f"{type(err).__name__}: {err}"
    samples = record.pop("speed_samples")
    record["speed_mean_s"] = statistics.fmean(samples) if samples else None
    return record


def run_loop(args) -> dict:
    _setup, calls_of, check = WORKLOADS[args.workload]
    work = Path(args.work)
    calls = calls_of(work, args.seed)
    tracer = Tracer() if args.trace else None
    state = {}
    iterations = []
    traced = []
    started = time.perf_counter()
    while True:
        if tracer is not None and len(iterations) % 2 == 1:
            tracer.install()
            try:
                record = run_iteration(calls, check, work, args.seed, state)
            finally:
                tracer.uninstall()
            spans, counts = tracer.take()
            record["traced"] = True
            if record["ok"]:
                traced.append((record, spans, counts))
        else:
            record = run_iteration(calls, check, work, args.seed, state)
        iterations.append(record)
        done = time.perf_counter() - started >= args.seconds
        if done and (tracer is None or len(iterations) >= 2):
            break
    result = {
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "blas": blas_config(),
        "earlypd_file": earlypd.__file__,
    }
    if tracer is not None:
        result["missing_probes"] = tracer.missing
        result["counter_errors"] = tracer.counter_errors
        result["layers"] = [layer_metrics(spans, counts, record["wall_s"],
                                          record["ref_s"] / record["wall_s"])
                            for record, spans, counts in traced]
        if traced:
            _record, spans, _counts = traced[0]
            t0 = spans[0][2] if spans else 0.0
            result["spans"] = [[name, parent, round(start - t0, 6), round(end - start, 6)]
                               for name, parent, start, end in spans]
    return result


def blas_config() -> dict:
    """numpy's BLAS and LAPACK as numpy reports them."""
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        return {}
    return {key: {k: deps[key].get(k) for k in ("name", "version")}
            for key in ("blas", "lapack") if key in deps}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "loop"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if Path(earlypd.__file__).resolve().parent != ROOT / "src" / "earlypd":
        print(f"imported earlypd from {earlypd.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.mode == "setup":
        result = run_setup(args)
    else:
        STARTUP_SPEED.stop()
        result = run_loop(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
