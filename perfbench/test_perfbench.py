"""Self-tests of the benchmark harness, at smoke size.

    python3 -m pytest perfbench
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.use_checkout_sources(), "corebound sources not found"

import compare  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from corebound import hypergraph, kernels, montecarlo  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,seed", [(0, workloads.DEFAULT_SEED), (1, 7)])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def _corrupt(stdout: str) -> str:
    """Change the last digit of the last number in the output."""
    i = max(i for i, ch in enumerate(stdout) if ch.isdigit())
    return stdout[:i] + str((int(stdout[i]) + 5) % 10) + stdout[i + 1:]


@pytest.mark.parametrize("workload", ["mc-small-v", "formula", "oracle"])
def test_corrupted_reference_raises_error_rate(workload):
    reference = harness.load_reference()[workload]
    ops = workloads.WORKLOADS[workload].ops(workloads.DEFAULT_SEED, smoke=True)
    victim = next(op for op in ops if op.kind != "breakdown")
    if workload == "formula":  # move a valid value far beyond the tolerance
        entry = reference[victim.label]
        entry["stdout"] = entry["stdout"].replace("0.0041552", "0.0051552")
    else:
        reference[victim.label]["stdout"] = _corrupt(reference[victim.label]["stdout"])
    records = harness.run_passes(ops, 2, reference, probe=True)
    metrics, _ = harness.end_to_end(records, ([1.0], [1.0]))
    failures = [r for r in records if r["error"]]
    assert {r["label"] for r in failures} == {victim.label}
    assert len(failures) == 2
    assert metrics["ok_rate"][0] == 1.0 - 2 / len(records)


def test_formula_check_semantics():
    header = "v,p,covering,covering_valid,interleaved_lower,interleaved_lower_valid\n"
    ref = {"seed": None, "stdout": header + "20,0.01,1.2,1,0.5,1\n"}
    op = workloads.Op("formula", ("global",))
    reference = {op.label: ref}
    # a vacuous upper bound above 1 is a true bound; tiny drift is within tolerance
    assert workloads.check(op, header + "20,0.01,1.2,1,0.5000000000001,1\n", reference) is None
    assert "validity flag" in workloads.check(op, header + "20,0.01,1.2,0,0.5,1\n", reference)
    ref["stdout"] = header + "20,0.01,1.2,1,1.5,1\n"
    assert "outside [0, 1]" in workloads.check(op, ref["stdout"], reference)


def test_span_tree_of_one_mc_global_op():
    op = workloads.Op("mc", ("global", "--v", "8", "--k", "3", "--e-v", "6", "--r", "2",
                             "--method", "mc", "--trials", "25"), seed=3)
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.op_id = 0
        latency, code, _, _ = harness.run_op(op)
    assert code == 0
    assert montecarlo.candidate_edges is hypergraph.candidate_edges  # patches undone
    assert kernels.sample_edge_mask.__module__ == "corebound.kernels"

    names = [tracer.labels[i] for i in tracer.name]
    parent = list(tracer.parent)
    children = {i: [j for j, p in enumerate(parent) if p == i] for i in range(len(names))}
    (root,) = [i for i, p in enumerate(parent) if p == -1]
    assert names[root] == "cli.main"
    (mc,) = children[root]
    assert names[mc] == "montecarlo.mc_global"
    assert sorted(names[j] for j in children[mc]) == [
        "hypergraph.candidate_edges", "kernels.mc_global_successes"]
    (succ,) = [j for j in children[mc] if names[j] == "kernels.mc_global_successes"]
    below = [names[j] for j in children[succ]]
    assert sorted(set(below)) == ["kernels.peel_survivor_mask", "kernels.sample_edge_mask"]
    assert below.count("kernels.sample_edge_mask") == 25
    assert set(tracer.op) == {0}

    self_s = tracer.self_times()
    root_s = tracer.end[root] - tracer.start[root]
    assert min(self_s) >= 0.0
    assert sum(self_s) == pytest.approx(root_s, rel=1e-9)
    assert sum(self_s) == pytest.approx(latency, abs=1e-3)
    metrics = tracer.layer_metrics()
    assert metrics["kernels.mc_global_successes.trials"] == (25, "count")
    assert metrics["hypergraph.candidate_edges.rows"] == (56, "count")


def test_tail_is_highest_percentile_with_ten_beyond():
    lat = harness.latency_summary([float(i) for i in range(1, 31)])
    assert lat["tail_s"] == 20.0 and lat["ops"] == 30
    assert lat["tail_percentile"] == pytest.approx(100 * 20 / 30)


def test_compare_refuses_mixed_backends(tmp_path, capsys):
    def result(backend, value):
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps({
            "stamp": {"workload": "oracle", "backend": backend, "stream": "v1"},
            "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}}}))
        return str(path)

    numpy_run, numba_run = result("numpy", 10.0), result("numba", 5.0)
    assert compare.main(["--before", numpy_run, "--after", numba_run]) == 2
    assert "refusing" in capsys.readouterr().err
    assert compare.main(["--before", numpy_run, "--after", numpy_run]) == 0
