"""Run every workload and print its end-to-end and per-layer metrics.

    python3 perfbench/suite.py [--runs N] [--seed S] [--seconds X] [--out DIR]

For each workload, one workload at a time: N untraced runs of run.py with
seeds S, S+1, ..., then one traced run with seed S. Every run's
full result is saved under --out (default perfbench/results/<time>), which
compare.py reads. The summary gives, per workload and end-to-end metric, the
median and quartiles over the runs, and their spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json; then the traced per-layer metrics,
each time also as a share of the traced iteration's wall time.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchlib import BENCH_DIR, ROOT, WORKLOADS, load_spec, quartiles

# What the traced run must show for each workload to serve its purpose:
# (per-layer metric, least share of the traced iteration's wall time).
PURPOSE = {
    "paper_default": ("mlp.train_s", 0.70),
    "large_cohort": ("forest.train_s", 0.70),
    "score_saved": ("data.ingest_s", 0.50),
}
MIN_COVERAGE = 0.9


def run_once(workload: str, seed: int, seconds: float, trace: int, save: Path) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--save", str(save)]
    started = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    took = time.monotonic() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run.py exited "
                         f"{done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: {took:.1f} s, correct {line['correct']}, "
          f"{line['attempted']} attempted, {line['failed']} failed", flush=True)
    return line


def summarize(workload: str, lines: list, traced: dict, spec: dict) -> list:
    """Print one workload's summary; return the purpose checks that failed."""
    attempted = sum(line["attempted"] for line in lines)
    failed = sum(line["failed"] for line in lines)
    print(f"\n== {workload}: {len(lines)} untraced runs, {attempted} iterations, "
          f"error_rate {failed / attempted if attempted else 0:.4g}, "
          f"all correct {all(line['correct'] for line in lines)}")
    for metric in spec["end_to_end"]:
        values = [line["metrics"][metric["name"]]["value"] for line in lines]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        print(f"  {metric['name']:<14} {med:12.6g} {metric['unit']:<6} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}  "
              f"spread {spread:.4f} (bound {metric['bound']})")
    problems = []
    layers = {name: entry["value"] for name, entry in traced["metrics"].items()}
    wall = layers.get("trace.wall_s", 0.0)
    print("  traced run, per iteration:")
    for name, value in layers.items():
        unit = traced["metrics"][name]["unit"]
        share = (f"  {value / wall:6.1%} of trace.wall_s"
                 if unit == "s" and wall and name != "trace.wall_s" else "")
        print(f"    {name:<24} {value:12.6g} {unit}{share}")
    metric, least = PURPOSE[workload]
    share = layers.get(metric, 0.0) / wall if wall else 0.0
    print(f"  purpose: {metric} is {share:.1%} of the traced iteration (want >= {least:.0%}); "
          f"trace.coverage {layers.get('trace.coverage', 0.0):.3f} (want >= {MIN_COVERAGE})")
    if share < least:
        problems.append(f"{workload}: {metric} share {share:.3f} < {least}")
    if layers.get("trace.coverage", 0.0) < MIN_COVERAGE:
        problems.append(f"{workload}: trace.coverage below {MIN_COVERAGE}")
    return problems


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--seed", type=int, default=42, help="seed of the first run")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else (
        BENCH_DIR / "results" / time.strftime("%Y%m%d-%H%M%S"))
    out.mkdir(parents=True, exist_ok=True)
    print(f"saving results under {out}")

    collected = {}
    for workload in WORKLOADS:
        lines = [run_once(workload, args.seed + i, args.seconds, 0,
                          out / f"{workload}-seed{args.seed + i}.json")
                 for i in range(args.runs)]
        traced = run_once(workload, args.seed, args.seconds, 1,
                          out / f"{workload}-seed{args.seed}-trace.json")
        collected[workload] = (lines, traced)
    problems = []
    for workload, (lines, traced) in collected.items():
        problems += summarize(workload, lines, traced, spec)
    for problem in problems:
        print(f"purpose not shown: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
