"""Benchmark harness: runs one workload in a closed loop and reports its metrics.

Load model: one caller, one process, no threads.  Each op runs to completion
before the next starts.  A run is a fixed number of passes over the
workload's ops (see :meth:`workloads.Workload.passes`), so the parent commit
and a change measure identical work.  ``hypergraph.candidate_edges`` is
cleared before each op, because a CLI user pays candidate enumeration once
per process.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced.  ``--trace 1`` alternates untraced and traced passes, as many of
each as half a run holds, and reports the per-layer metrics from the traced
passes, with ``trace.overhead_ratio`` = traced op time / untraced op time.
Every run writes its full result (run stamp, all metrics, per-op latencies,
failures) to ``.perfbench/results/`` and, when traced, its spans to
``.perfbench/traces/``, both at the root of the checkout.
"""
from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

import numpy as np

import corebound
from corebound import cli, hypergraph, kernels, montecarlo

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
REFERENCE_PATH = HERE / "reference.json"
SETUP_LAUNCHES = 7
SETUP_PROBES = 3  # speed probes after each set-up launch

# The host's speed drifts by 10-30% over seconds to minutes (other tenants
# share its cores and caches), which swamps the changes the benchmark must
# detect.  So after every op the harness runs a fixed speed probe, which does
# not touch corebound, for about PROBE_DUTY of the op's time, and scales each
# op's latency by PROBE_REF_S / (median probe time of the ops within
# PROBE_WINDOW of it), and set-up time likewise by the probes run between
# set-up launches: timings are "at the reference speed".  The unscaled
# times and every probe sample are kept in the result file.
PROBE_REF_S = 0.004
PROBE_DUTY = 0.05
PROBE_WINDOW = 2

# sample_edge_mask(64, 0.5, trial_seed(1, 0)) under the v1 stream (splitmix64
# counter stream), as packed bits; a different stream gives other bits.
STREAM_FINGERPRINTS = {"a9c934cd2f288afe": "v1"}

# Captured before any tracer patches the module attribute.
CANDIDATE_EDGES = hypergraph.candidate_edges

SETUP_SNIPPET = """\
import contextlib, io, sys
import corebound.cli
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(corebound.cli.main({argv!r}))
"""


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def stream_version() -> str:
    mask = kernels.sample_edge_mask(64, 0.5, kernels.trial_seed(1, 0))
    bits = np.packbits(mask).tobytes().hex()
    return STREAM_FINGERPRINTS.get(bits, f"unknown-{bits}")


def _harness_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def run_stamp(workload: str, seed: int) -> dict:
    """What ran: backend, stream, versions, machine, seed and harness identity."""
    digest = sha256()
    for path in sorted(HERE.glob("*.py")) + [REFERENCE_PATH]:
        digest.update(path.read_bytes())
    backend = kernels.backend()
    return {
        "workload": workload,
        "seed": seed,
        "backend": backend,
        "stream": stream_version(),
        "corebound": corebound.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "harness_commit": _harness_commit(),
        "harness_sha256": digest.hexdigest(),
        "inner_kernel_spans": backend == "numpy",
        "note": None if backend == "numpy" else
        "numba runs the inner kernels in compiled code: their spans are missing",
    }


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i
    arr = np.arange(1 << 17, dtype=np.uint64)  # 1 MiB: adds little to peak RSS
    for _ in range(6):
        arr = (arr ^ (arr >> np.uint64(7))) * np.uint64(0x9E3779B97F4A7C15)
    return time.perf_counter() - t0


def run_op(op: workloads.Op) -> tuple[float, int, str, str]:
    """Run one op: (latency in s, exit code, stdout, stderr)."""
    CANDIDATE_EDGES.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        if op.kind == "exact_local":
            u, k, p, r = op.argv
            value = montecarlo.exact_local(int(u), int(k), float(p), int(r))
            latency, code = time.perf_counter() - t0, 0
            print(repr(value))
        else:
            try:
                code = cli.main(op.cli_argv)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 2
            latency = time.perf_counter() - t0
    return latency, code, out.getvalue(), err.getvalue()


def run_passes(ops, passes: int, reference: dict, tracer=None, probe=False) -> list[dict]:
    """Run ``passes`` passes over ``ops``, checking every output.  With a
    ``tracer``, every second pass runs traced, so that host drift weighs on
    traced and untraced passes alike; with ``probe``, the speed probe runs
    after each op."""
    records, first_output = [], {}
    for pass_no in range(passes):
        traced = tracer is not None and pass_no % 2 == 1
        with tracer.installed() if traced else nullcontext():
            for op in ops:
                if traced:
                    tracer.op_id = len(records)
                try:
                    latency, code, stdout, stderr = run_op(op)
                except Exception:  # an op that raises is a failed op; keep measuring
                    records.append({"label": op.label, "pass": pass_no, "traced": traced,
                                    "latency_s": None, "work": 0,
                                    "error": traceback.format_exc()})
                    continue
                key = tuple(op.cli_argv)
                if code != 0:
                    error = f"exit code {code}: {stderr.strip()}"
                elif first_output.setdefault(key, stdout) != stdout:
                    error = "output differs from an earlier run of the same argv"
                else:
                    error = workloads.check(op, stdout, reference)
                records.append({"label": op.label, "pass": pass_no, "traced": traced,
                                "latency_s": latency, "error": error,
                                "work": 0 if error else workloads.work(op, stdout)})
                if probe:
                    n = max(1, round(PROBE_DUTY * latency / PROBE_REF_S))
                    records[-1]["probes_s"] = [speed_probe() for _ in range(n)]
    return records


def measure_setup(argv, launches: int = SETUP_LAUNCHES) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import corebound and run
    ``argv``, and the speed probes run between them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = SETUP_SNIPPET.format(argv=list(argv))
    times, probes = [], []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up op {list(argv)} failed: {proc.stderr.strip()}")
        probes += [speed_probe() for _ in range(SETUP_PROBES)]
    return times, probes


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten ops beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n > 10:
        tail, pct = lat[n - 11], 100.0 * (n - 10) / n
    else:  # too few ops for ten beyond any percentile: report the maximum
        tail, pct = lat[-1], 100.0
    return {"p50_s": statistics.median(lat), "tail_s": tail, "tail_percentile": pct, "ops": n}


def scaled_latencies(records: list[dict]) -> list[float]:
    """Each timed op's latency at the reference speed, from the probes taken
    after the ops within PROBE_WINDOW of it."""
    timed = [r for r in records if r["latency_s"] is not None]
    scaled = []
    for i, r in enumerate(timed):
        near = timed[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        speed = statistics.median(p for n in near for p in n["probes_s"])
        scaled.append(r["latency_s"] * PROBE_REF_S / speed)
    return scaled


def end_to_end(records: list[dict], setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """End-to-end metrics, timings at the reference speed; and the latency
    summary, with the unscaled latencies' median and total."""
    scaled = scaled_latencies(records)
    failed = sum(1 for r in records if r["error"])
    lat = latency_summary(scaled)
    unscaled = [r["latency_s"] for r in records if r["latency_s"] is not None]
    lat["unscaled_p50_s"] = statistics.median(unscaled)
    lat["unscaled_total_s"] = sum(unscaled)
    return {
        "work_per_s": (sum(r["work"] for r in records) / sum(scaled), "work/s"),
        "op_p50_ms": (lat["p50_s"] * 1e3, "ms"),
        "op_tail_ms": (lat["tail_s"] * 1e3, "ms"),
        "setup_s": (statistics.median(setup[0]) * PROBE_REF_S / statistics.median(setup[1]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_rate": (1.0 - failed / len(records), "ratio"),
    }, lat


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, reference: dict | None = None) -> dict:
    """Run one workload and return the full result (not yet printed)."""
    spec = benchmark_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    workload = workloads.WORKLOADS[name]
    reference = load_reference()[name] if reference is None else reference
    ops = workload.ops(seed, smoke)
    # a traced run spends half its time on untraced passes, for the overhead
    passes = workload.passes(seconds / 2 if trace else seconds)
    result = {"stamp": run_stamp(name, seed), "passes": passes, "ops_per_pass": len(ops),
              "work_unit": workload.work_unit, "trace": trace}

    warm = run_op(workloads.Op("warmup", workload.warmup))
    if warm[1] != 0:
        raise RuntimeError(f"warm-up op failed: {warm[3].strip()}")
    if trace:
        tracer = spans.Tracer()
        records = run_passes(ops, 2 * passes, reference, tracer)
        metrics = tracer.layer_metrics()
        traced_s, untraced_s = (sum(r["latency_s"] or 0.0 for r in records if r["traced"] == t)
                                for t in (True, False))
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        result["spans"] = len(tracer.start)
        OUT_DIR.joinpath("traces").mkdir(parents=True, exist_ok=True)
        trace_path = (OUT_DIR / "traces" /
                      f"{name}_seed{seed}_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}.json.gz")
        tracer.dump(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        setup = measure_setup(workload.warmup, 3 if smoke else SETUP_LAUNCHES)
        records = run_passes(ops, passes, reference, probe=True)
        metrics, result["latency"] = end_to_end(records, setup)
        result["setup_launches_s"], result["setup_probes_s"] = setup

    result["attempted"] = len(records)
    result["failed"] = sum(1 for r in records if r["error"])
    result["failures"] = [r for r in records if r["error"]]
    result["all_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["metrics"] = {m["name"]: result["all_metrics"][m["name"]] for m in wanted}
    for m in wanted:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']} is measured in {result['metrics'][m['name']]['unit']}, "
                               f"not in {m['unit']} as BENCHMARK.json says")
    result["ops"] = [{k: r.get(k) for k in ("label", "latency_s", "probes_s")} for r in records]
    return result


def report(result: dict) -> None:
    """Human-readable lines, the result file, and the final JSON line."""
    stamp = result["stamp"]
    print("run " + " ".join(f"{k}={v}" for k, v in stamp.items() if v is not None))
    print(f"passes={result['passes']} ops_per_pass={result['ops_per_pass']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"work_unit={result['work_unit']!r}")
    if "latency" in result:
        lat = result["latency"]
        print(f"op_tail_ms is p{lat['tail_percentile']:.1f} of {lat['ops']} ops; unscaled "
              f"op p50 {lat['unscaled_p50_s'] * 1e3:.6g} ms, ops total {lat['unscaled_total_s']:.6g} s")
    for failure in result["failures"][:10]:
        print(f"FAILED {failure['label']} (pass {failure['pass']}): {failure['error']}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    OUT_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = (OUT_DIR / "results" /
            f"{stamp['workload']}_seed{stamp['seed']}_trace{int(result['trace'])}_"
            f"{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}.json")
    path.write_text(json.dumps(result, indent=1))
    print(f"result written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
