"""Summarise or compare benchmark results written by run.py.

    python3 perfbench/compare.py RESULT.json...
    python3 perfbench/compare.py --before RESULT.json... --after RESULT.json...

The first form prints, per workload and metric, the median, the quartiles
and the spread (interquartile range over median) of the given runs, with
the run stamp they share, as JSON: one point of trajectory.json.
The second form compares two sets of runs metric by metric: it prints both
medians, the change in the worse direction as a share of the before median,
and whether that change is within the metric's bound in BENCHMARK.json.
Runs of different kernel backends or random streams are never compared: the
script exits with status 2 instead.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
STAMP_KEYS = ("backend", "stream", "corebound", "numpy", "python", "nproc", "harness_commit")


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def refuse_mixed(results: list[dict]) -> str | None:
    """Why the results may not be compared, or None if they may."""
    kinds = {(r["stamp"]["backend"], r["stamp"]["stream"]) for r in results}
    if len(kinds) > 1:
        return "results mix kernel backends or random streams: " + ", ".join(
            f"{b}/{s}" for b, s in sorted(kinds))
    return None


def summarise(results: list[dict]) -> dict:
    """The stamp fields all results share, and per workload and metric the
    median, quartiles, spread and run count: one point of the trajectory."""
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    for r in results:
        for name, m in r["metrics"].items():
            values[r["stamp"]["workload"]][name].append(m["value"])
            units[name] = m["unit"]
    workloads = {}
    for workload, metrics in sorted(values.items()):
        workloads[workload] = {}
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            workloads[workload][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals),
                                         "spread": (q3 - q1) / med if med else 0.0,
                                         "unit": units[name]}
    stamp = {key: results[0]["stamp"].get(key) for key in STAMP_KEYS
             if len({str(r["stamp"].get(key)) for r in results}) == 1}
    return {"stamp": stamp, "workloads": workloads}


def compare(before: list[dict], after: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric found on both sides."""
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    old, new = summarise(before)["workloads"], summarise(after)["workloads"]
    rows = []
    for workload in sorted(old.keys() & new.keys()):
        for name in (n for n in spec if n in old[workload] and n in new[workload]):
            a, b = old[workload][name]["median"], new[workload][name]["median"]
            worse = (b - a) if spec[name]["better"] == "lower" else (a - b)
            share = worse / a if a else 0.0
            rows.append({"workload": workload, "metric": name, "before": a, "after": b,
                         "worse_by": share, "bound": spec[name]["bound"],
                         "within_bound": share <= spec[name]["bound"],
                         "before_spread": old[workload][name]["spread"]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*", help="result files to summarise")
    parser.add_argument("--before", nargs="+", default=[])
    parser.add_argument("--after", nargs="+", default=[])
    args = parser.parse_args(argv)
    if bool(args.before) != bool(args.after) or bool(args.results) == bool(args.before):
        parser.error("give result files, or both --before and --after")
    before, after = load(args.before), load(args.after)
    results = load(args.results) + before + after
    reason = refuse_mixed(results)
    if reason:
        print(f"compare: refusing: {reason}", file=sys.stderr)
        return 2
    if args.results:
        print(json.dumps(summarise(results), indent=1))
        return 0
    for row in compare(before, after):
        verdict = "ok" if row["within_bound"] else "WORSE THAN BOUND"
        print(f"{row['workload']:12} {row['metric']:12} before={row['before']:.6g} "
              f"after={row['after']:.6g} worse_by={row['worse_by']:+.3f} "
              f"bound={row['bound']} spread_before={row['before_spread']:.3f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
