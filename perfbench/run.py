"""Run one earlypd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_default --seed 42 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

    paper_default  earlypd experiment with the default config, rerun into one
                   --out directory
    large_cohort   earlypd experiment on a 5x cohort, Bayes net + forest +
                   boosted LR only
    score_saved    earlypd evaluate of the four saved default models on a
                   20,000-record CSV

Untraced (--trace 0), the run sets the workload up SETUP_REPEATS times, each
in a fresh child process, then runs the closed loop for --seconds in one more
child and reports the end-to-end metrics. Traced (--trace 1), it sets up once
and reports the per-layer metrics from spans recorded around calls into the
package (tracing.py). Times are in reference seconds: wall time scaled by
the machine's speed sampled while it ran (benchlib.SpeedSampler).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it give each metric with its
unit, the samples behind it, and the environment. --save FILE also writes
everything, samples and environment included, as JSON (suite.py and
compare.py read these files).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from benchlib import (BENCH_DIR, ROOT, WORKLOADS, describe, environment, quartiles,
                      reference_seconds)
from tracing import LAYER_METRICS, layer_unit

SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class RunError(Exception):
    pass


def spawn(mode, args, work: Path, result: Path, deadline: float) -> tuple:
    """Run worker.py in a child; (wall-clock spawn time, its result dict)."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--work", str(work), "--result", str(result),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if result.exists():
        result.unlink()
    spawned = time.time()
    try:
        # The child's prints go to our stderr so stdout stays parseable.
        done = subprocess.run(argv, stdout=sys.stderr, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} child exceeded the run's time limit") from None
    if done.returncode != 0 or not result.exists():
        raise RunError(f"{mode} child exited {done.returncode}")
    return spawned, json.loads(result.read_text(encoding="utf-8"))


def measure(args, work: Path) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    result_file = work / "child_result.json"
    setups = []
    digests = set()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        shutil.rmtree(work / "data", ignore_errors=True)
        (work / "data").mkdir(parents=True)
        spawned, setup = spawn("setup", args, work / "data", result_file, deadline)
        wall = setup["ready_at"] - spawned
        samples = setup["speed_samples"]
        setups.append({"wall_s": wall - sum(samples),
                       "ref_s": reference_seconds(wall, samples),
                       "speed_mean_s": statistics.fmean(samples) if samples else None})
        digests.add(setup["inputs_sha256"])
    _spawned, loop = spawn("loop", args, work / "data", result_file, deadline)
    return {"setups": setups, "setup_identical": len(digests) == 1, **loop}


def end_to_end(run: dict) -> dict:
    iterations = run["iterations"]
    good = [it for it in iterations if it["ok"]]
    aucs = [it["auc_min"] for it in good]
    return {
        "run_s": (quartiles([it["ref_s"] for it in good or iterations])[1], "s"),
        "setup_s": (quartiles([s["ref_s"] for s in run["setups"]])[1], "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "test_auc_min": (min(aucs) if aucs else 0.0, "auc"),
        "success_rate": (len(good) / len(iterations), "ratio"),
    }


def per_layer(run: dict) -> dict:
    layers = run.get("layers", [])
    out = {}
    for name in LAYER_METRICS:
        values = [layer[name] for layer in layers if name in layer]
        out[name] = quartiles(values)[1] if values else 0.0
    untraced = [it["ref_s"] for it in run["iterations"]
                if it["ok"] and not it.get("traced")]
    if layers and untraced:
        out["trace.overhead_s"] = out["trace.wall_s"] - quartiles(untraced)[1]
    return {name: (value, layer_unit(name)) for name, value in out.items()}


def report(args, env: dict, run: dict, metrics: dict) -> None:
    iterations = run["iterations"]
    failed = [it for it in iterations if not it["ok"]]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  iterations: {len(iterations)} attempted, {len(failed)} failed "
          f"(error_rate {len(failed) / len(iterations):.4g})")
    for label, samples in (("iteration", iterations), ("set-up", run["setups"])):
        print(f"  {label}, reference: {describe([s['ref_s'] for s in samples], 's')}")
        print(f"  {label}, wall:      {describe([s['wall_s'] for s in samples], 's')}")
        speeds = [s["speed_mean_s"] for s in samples if s["speed_mean_s"] is not None]
        if speeds:
            print(f"  {label}, mean speed sample: {describe(speeds, 's')}")
    print(f"  inputs identical across set-ups: {run['setup_identical']}")
    for it in failed:
        print(f"  failed iteration: {it['error']}")
    first = next((it for it in iterations if it["ok"]), None)
    if first is not None:
        digests = {k: v for k, v in first.items() if k.endswith("sha256")}
        print(f"  outputs (information only): {json.dumps(digests)}")
    for probe in run.get("missing_probes", []):
        print(f"  missing probe (metrics read 0): {probe}")
    for error in run.get("counter_errors", [])[:5]:
        print(f"  counter error (count reads 0): {error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<24} {value:.6g} {unit}")


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed; every input is made from it (default 42)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports the per-layer metrics of a traced run")
    parser.add_argument("--save", default=None, help="also write the full result here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "earlypd" / "cli.py").is_file():
        print(f"no earlypd sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    env = environment()
    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        run = measure(args, work)
    except RunError as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    env.update(numpy=run["numpy"], blas=run["blas"])

    metrics = per_layer(run) if args.trace else end_to_end(run)
    report(args, env, run, metrics)
    attempted = len(run["iterations"])
    failed = sum(not it["ok"] for it in run["iterations"])
    line = {
        "correct": failed == 0 and run["setup_identical"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.save:
        saved = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "env": env, "result": line, "run": run}
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
