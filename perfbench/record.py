"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs every op of every workload once at the default workload seed and
writes its stdout (and, for Monte Carlo ops, its seed) to reference.json.
Re-record only in a change that alters outputs on purpose, and say so.
"""
from __future__ import annotations

import json
import sys

from run import use_checkout_sources

if not use_checkout_sources():
    sys.exit("record: corebound sources not found")

import harness  # noqa: E402  (needs the checkout's src/ on sys.path)
import workloads  # noqa: E402


def main() -> None:
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        entries = reference[name] = {}
        for op in workload.ops(workloads.DEFAULT_SEED):
            _, code, stdout, stderr = harness.run_op(op)
            if code != 0:
                sys.exit(f"record: {op.label} failed: {stderr}")
            entries[op.label] = {"seed": op.seed, "stdout": stdout}
        print(f"{name}: {len(entries)} ops recorded")
    harness.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
