"""Run one corebound benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the benchmark imports corebound from the
checkout's ``src/`` and nowhere else, and exits with status 2 when it is not
there.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name the run stamp and every metric with its unit.  Workloads, metrics and
bounds are listed in BENCHMARK.json; the harness is described in
``harness.py`` and the output checks in ``workloads.py``.

Self-tests: ``python3 -m pytest perfbench``.  Compare two sets of runs:
``python3 perfbench/compare.py``.  Re-record reference outputs (only when
a change alters outputs on purpose): ``python3 perfbench/record.py``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False if corebound is not there."""
    if not (SRC / "corebound" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a few ops of the workload (for self-tests)")
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print(f"perfbench: no corebound sources at {SRC}", file=sys.stderr)
        return 2
    import harness  # needs the checkout's src/ on sys.path

    if not Path(harness.corebound.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: corebound imported from {harness.corebound.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.smoke)
    harness.report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
