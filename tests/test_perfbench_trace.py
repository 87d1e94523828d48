"""The benchmark under ``perfbench/`` can still trace this source.

Its tracer patches corebound's functions by module attribute and reads their
signatures, and its run stamp names the random stream by a fingerprint; a
refactor under ``src/`` that renames or reshapes one of them breaks traced
runs, and ``perfbench/``'s own tests lie outside the tier-1 suite.
"""
from pathlib import Path

import pytest

from corebound import choose, cli, kernels, mc_global, mc_local

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import spans
    return harness, spans


def test_tracer_installs_and_restores(perfbench):
    harness, spans = perfbench
    targets = {**{label: (owner, attr) for label, (owner, attr, _) in spans._targets().items()},
               **spans.COUNTED_ONLY}
    before = {label: spans._holders(owner, attr, getattr(owner, attr))
              for label, (owner, attr) in targets.items()}
    originals = {label: getattr(owner, attr) for label, (owner, attr) in targets.items()}
    assert all(before.values())  # every target is found where callers look it up

    tracer = spans.Tracer()
    with tracer.installed():
        assert harness.stream_version() == "v1"
        mc_global(8, 3, 0.1, 2, trials=5, seed=3)
    metrics = tracer.layer_metrics()
    assert metrics["kernels.sample_edge_mask.draws"] == (64, "count")
    assert metrics["kernels.mc_global_successes.trials"] == (5, "count")

    for label, (owner, attr) in targets.items():
        for holder in before[label]:
            assert getattr(holder, attr) is originals[label], label


def test_tracer_counts_one_formula_point(perfbench, capsys):
    # the provider's memo is the one cache of local values: one miss per size
    # k..v, read through the "pre" hook that inspects LocalProvider._memo
    _, spans = perfbench
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli.main(["global", "--v", "20", "--k", "3", "--e-v", "12.5", "--r", "2",
                         "--method", "connectivity"]) == 0
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    misses, _ = metrics["global_prob.LocalProvider.value.misses"]
    calls, _ = metrics["global_prob.LocalProvider.value.calls"]
    assert misses == 20 - 3 + 1 and misses <= calls
    assert metrics["global_prob.exactly_one_core.calls"] == (1, "count")


def test_tracer_counts_the_oracles(perfbench, capsys):
    # the "masks" counters read the oracles' argument names v and k: C(4, 3) = 4
    # candidate edges give 2^4 edge subsets per oracle
    _, spans = perfbench
    tracer = spans.Tracer()
    oracle = ["oracle", "--v", "4", "--k", "3", "--p", "0.5", "--r", "1"]
    with tracer.installed():
        assert cli.main([*oracle, "--exactly-one", "minimal"]) == 0
        assert cli.main(oracle) == 0
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    assert metrics["montecarlo.exact_exactly_one.masks"] == (16, "count")
    assert metrics["montecarlo.exact_global.masks"] == (16, "count")
    assert metrics["kernels.exhaustive_global_prob.calls"] == (1, "count")


def test_worker_threads_call_no_traced_function(perfbench, monkeypatch):
    # the tracer keeps one span stack, so only the calling thread may enter
    # a wrapped function: three workers, two or three trial blocks each
    _, spans = perfbench
    monkeypatch.setattr(kernels, "WORKERS", 3)
    tracer = spans.Tracer()
    with tracer.installed():
        mc_global(40, 3, 33 / choose(40, 3), 2, trials=3000, seed=7)
        mc_local(24, 3, 24 / choose(24, 3), 1, "connectivity", trials=3000, seed=7)
    assert (tracer.self_times() >= 0).all()
    metrics = tracer.layer_metrics()
    assert metrics["kernels.mc_global_successes.trials"] == (3000, "count")
    assert metrics["kernels.mc_local_successes.trials"] == (3000, "count")
    assert metrics["kernels.peel_survivor_mask.calls"] == (0, "count")
