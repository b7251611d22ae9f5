"""Helpers shared by run.py, suite.py and compare.py: summaries, environment."""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper_default", "large_cohort", "score_saved")

# The speed of a shared machine drifts: on the 2-core host these figures
# were measured on, each core flips between a fast state and one about 1.7x
# slower every second or so. So every time the benchmark reports is in
# reference seconds. While timed work runs, a timer signal runs
# speed_sample() every SAMPLE_INTERVAL_S, between two bytecodes of whatever
# is running, and the work's wall time (minus the samples' own time) is
# scaled by SAMPLE_REF_S over the samples' mean. A reference second is a
# second on a machine that runs speed_sample() in SAMPLE_REF_S.
SAMPLE_INTERVAL_S = 0.05
SAMPLE_REF_S = 0.0002


def speed_sample() -> float:
    """Wall time of a fixed, pure-Python piece of work of about 0.2 ms:
    formatting, splitting and parsing numbers, like CSV ingest. It calls no
    earlypd code. The garbage collector is off while it runs, so a collection
    that the program's heap makes costly lands on the program's time, not on
    the sample's."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0.0
        for i in range(60):
            cells = f"{i},{i * 0.731:.9g},{i / 7:.9g}".split(",")
            total += sum(float(cell) for cell in cells) + len({i: cells})
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class SpeedSampler:
    """Samples the machine's speed while timed work runs, from SIGALRM.
    Use from the main thread only; it restores the previous handler."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(speed_sample())

    def start(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    __enter__ = start

    def __exit__(self, *exc_info):
        self.stop()
        return False


def reference_seconds(wall_s: float, samples) -> float:
    """wall_s, which includes the samples' own time, in reference seconds."""
    samples = list(samples) or [speed_sample()]  # work shorter than one interval
    return (wall_s - sum(samples)) * SAMPLE_REF_S / statistics.fmean(samples)


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def describe(values, unit: str) -> str:
    """Median and quartiles with the sample count; p90 only when at least ten
    samples lie beyond it."""
    q1, med, q3 = quartiles(values)
    text = f"median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
    if len(values) >= 100:
        text += f", p90 {statistics.quantiles(values, n=10)[-1]:.6g}"
    return text


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _git(*args):
    """Output of a git command about the checkout itself, or None when the
    checkout is not a git work tree (git is told not to look above it)."""
    if shutil.which("git") is None:
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=20, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Host facts recorded with every result. numpy facts come from the worker,
    which imports numpy anyway."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit.strip() if commit else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
    }
