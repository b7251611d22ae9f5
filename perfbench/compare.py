"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the files suite.py (or run.py --save) wrote, made with
the same benchmark code and settings. Untraced runs of the same workload and
seed form a pair. Per workload and end-to-end metric the comparison prints
each side's median and quartiles, the pair wins, and a verdict:

    improved    at least 10 pairs, the change wins at least 9 in 10 of them
                (ties count for neither side), and the medians differ by more
                than the parent's own spread (q3 - q1)
    unresolved  the spread of either side, as a share of its median, is wider
                than the metric's bound, and not every change run beats every
                parent run; or the change "improved" while failing more
                iterations than the parent
    regressed   the change's median is worse than the parent's by more than
                the bound (a share of the parent's median)
    unchanged   otherwise

Beside the verdicts it prints the median raw wall time per iteration, with
no verdict, so a change in reference seconds can be set against wall time.
Traced runs, where present, are summarized per layer without a verdict; use
them to show where a change's saving appears.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchlib import load_spec, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9
ENV_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas")


def load_results(directory: Path) -> dict:
    """{(workload, trace): {seed: saved result}}"""
    out = {}
    for path in sorted(directory.glob("*.json")):
        saved = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(saved, dict) or "result" not in saved:
            continue
        out.setdefault((saved["workload"], saved["trace"]), {})[saved["seed"]] = saved
    return out


def wall_s(saved: dict) -> float:
    """A run's median raw wall time per iteration, as run_s is in reference
    seconds."""
    iterations = saved["run"]["iterations"]
    good = [it for it in iterations if it["ok"]]
    return quartiles([it["wall_s"] for it in good or iterations])[1]


def verdict(parent: list, change: list, pairs: list, better: str, bound: float,
            more_failures: bool) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1p, mp, q3p = quartiles(parent)
    q1c, mc, q3c = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    spread = max((q3p - q1p) / abs(mp) if mp else 0.0,
                 (q3c - q1c) / abs(mc) if mc else 0.0)
    every_run_better = (min(change) > max(parent) if sign > 0
                        else max(change) < min(parent))
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (mc - mp) > q3p - q1p):
        return "unresolved" if more_failures else "improved"
    if spread > bound and not every_run_better:
        return "unresolved"
    if sign * (mc - mp) < -bound * abs(mp):
        return "regressed"
    return "unchanged"


def compare_workload(workload: str, parent: dict, change: dict, spec: dict) -> list:
    seeds = sorted(set(parent) & set(change))
    failed_p = sum(r["result"]["failed"] for r in parent.values())
    failed_c = sum(r["result"]["failed"] for r in change.values())
    attempted_p = sum(r["result"]["attempted"] for r in parent.values())
    attempted_c = sum(r["result"]["attempted"] for r in change.values())
    print(f"\n== {workload}: {len(parent)} parent runs, {len(change)} change runs, "
          f"{len(seeds)} pairs (seeds {seeds[0] if seeds else '-'}..{seeds[-1] if seeds else '-'})")
    print(f"  failed iterations: parent {failed_p}/{attempted_p}, change {failed_c}/{attempted_c}")
    verdicts = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p_values = [r["result"]["metrics"][name]["value"] for r in parent.values()]
        c_values = [r["result"]["metrics"][name]["value"] for r in change.values()]
        pairs = [(parent[s]["result"]["metrics"][name]["value"],
                  change[s]["result"]["metrics"][name]["value"]) for s in seeds]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        losses = sum(sign * (c - p) < 0 for p, c in pairs)
        result = verdict(p_values, c_values, pairs, metric["better"], metric["bound"],
                         failed_c > failed_p)
        verdicts.append(result)
        q1p, mp, q3p = quartiles(p_values)
        q1c, mc, q3c = quartiles(c_values)
        delta = (mc - mp) / abs(mp) if mp else 0.0
        print(f"  {name:<14} parent {mp:.6g} [{q1p:.6g}, {q3p:.6g}]  "
              f"change {mc:.6g} [{q1c:.6g}, {q3c:.6g}] {metric['unit']}  "
              f"{delta:+.2%}  wins {wins}/{len(pairs)} losses {losses}  "
              f"bound {metric['bound']}  -> {result}")
    q1p, mp, q3p = quartiles([wall_s(r) for r in parent.values()])
    q1c, mc, q3c = quartiles([wall_s(r) for r in change.values()])
    print(f"  {'wall_s':<14} parent {mp:.6g} [{q1p:.6g}, {q3p:.6g}]  "
          f"change {mc:.6g} [{q1c:.6g}, {q3c:.6g}] s  {(mc - mp) / mp:+.2%}  "
          f"(raw wall time per iteration, no verdict)")
    return verdicts


def compare_layers(workload: str, parent: dict, change: dict) -> None:
    p_runs, c_runs = list(parent.values()), list(change.values())
    names = p_runs[0]["result"]["metrics"]
    print(f"  per layer, traced ({len(p_runs)} parent, {len(c_runs)} change run(s)):")
    for name, entry in names.items():
        p = quartiles([r["result"]["metrics"][name]["value"] for r in p_runs])[1]
        c_values = [r["result"]["metrics"][name]["value"]
                    for r in c_runs if name in r["result"]["metrics"]]
        if not c_values:
            print(f"    {name:<24} parent {p:.6g} {entry['unit']}  change: absent")
            continue
        c = quartiles(c_values)[1]
        change = f"{(c - p) / abs(p):+.1%}" if p else ""
        print(f"    {name:<24} parent {p:.6g}  change {c:.6g} {entry['unit']}  {change}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    parent, change = load_results(args.parent), load_results(args.change)
    for label, results in (("parent", parent), ("change", change)):
        envs = {json.dumps({k: r["env"].get(k) for k in ENV_KEYS}, sort_keys=True)
                for runs in results.values() for r in runs.values()}
        commits = {r["env"].get("git_commit") for runs in results.values() for r in runs.values()}
        print(f"{label}: commits {sorted(map(str, commits))}, environments: {sorted(envs)}")
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if trace:
            continue
        verdicts = compare_workload(workload, parent[key], change[key], spec)
        regressed |= "regressed" in verdicts
        if (workload, 1) in parent and (workload, 1) in change:
            compare_layers(workload, parent[(workload, 1)], change[(workload, 1)])
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
