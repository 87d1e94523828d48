"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps corebound's public functions at the module attributes their
callers look up (``kernels.sample_edge_mask``, ``montecarlo.candidate_edges``
and so on), so nothing under ``src/`` changes.  Each span records its name,
start, end, parent span and op id in flat arrays; the spans stay in memory
until :meth:`Tracer.dump` writes them out.  A span's self time is its
duration minus the durations of its child spans (calls are single-threaded,
so children never overlap).

With the numba backend the inner kernels run inside compiled code and are
never called through Python, so their spans are missing; the run stamp says so.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from corebound import (cli, global_prob, hypergraph, kernels, local_prob,
                       montecarlo, numerics, sweep)
from corebound.numerics import choose


def _arg(fn, name):
    """Getter for argument ``name`` of ``fn`` from a call's (args, kwargs)."""
    pos = fn.__code__.co_varnames[:fn.__code__.co_argcount].index(name)
    return lambda args, kwargs: args[pos] if len(args) > pos else kwargs[name]


def _arg_count(fn, name):
    get = _arg(fn, name)
    return lambda args, kwargs, out, pre: get(args, kwargs)


def _mask_count(fn):
    """Edge subsets an exhaustive oracle enumerates: 2^C(v, k)."""
    get_v, get_k = _arg(fn, fn.__code__.co_varnames[0]), _arg(fn, "k")
    return lambda args, kwargs, out, pre: 2 ** choose(get_v(args, kwargs), get_k(args, kwargs))


def _targets():
    """label -> (owner, attribute, counters).

    A counter maps (args, kwargs, result, pre) to a number added to
    "<label>.<counter>"; ``pre`` is what the optional "pre" hook returned
    just before the call.
    """
    cand = hypergraph.candidate_edges
    computed = lambda pre: cand.cache_info().misses - pre  # 1 on a cache miss, else 0
    provider_u = _arg(global_prob.LocalProvider.value, "u")
    return {
        "cli.main": (cli, "main", {}),
        "sweep.find_breakdown": (sweep, "find_breakdown", {}),
        "hypergraph.candidate_edges": (hypergraph, "candidate_edges", {
            "pre": lambda args, kwargs: cand.cache_info().misses,
            "misses": lambda args, kwargs, out, pre: computed(pre),
            "rows": lambda args, kwargs, out, pre: computed(pre) * len(out),
            "bytes_computed": lambda args, kwargs, out, pre: computed(pre) * out.nbytes,
        }),
        "kernels.sample_edge_mask": (kernels, "sample_edge_mask", {
            "draws": lambda args, kwargs, out, pre: out.size,
            "kept": lambda args, kwargs, out, pre: int(np.count_nonzero(out)),
        }),
        "kernels.peel_survivor_mask": (kernels, "peel_survivor_mask", {}),
        "kernels.connected_all": (kernels, "connected_all", {}),
        "kernels.mc_global_successes": (kernels, "mc_global_successes", {
            "trials": _arg_count(kernels.mc_global_successes, "trials")}),
        "kernels.mc_local_successes": (kernels, "mc_local_successes", {
            "trials": _arg_count(kernels.mc_local_successes, "trials")}),
        "kernels.exhaustive_global_prob": (kernels, "exhaustive_global_prob", {}),
        "montecarlo.mc_global": (montecarlo, "mc_global", {}),
        "montecarlo.mc_local": (montecarlo, "mc_local", {}),
        "montecarlo.exact_global": (montecarlo, "exact_global", {
            "masks": _mask_count(montecarlo.exact_global)}),
        "montecarlo.exact_exactly_one": (montecarlo, "exact_exactly_one", {
            "masks": _mask_count(montecarlo.exact_exactly_one)}),
        "montecarlo.exact_local": (montecarlo, "exact_local", {
            "masks": _mask_count(montecarlo.exact_local)}),
        "global_prob.exactly_one_core": (global_prob, "exactly_one_core", {}),
        "global_prob.LocalProvider.value": (global_prob.LocalProvider, "value", {
            "pre": lambda args, kwargs: provider_u(args, kwargs) not in args[0]._memo,
            "misses": lambda args, kwargs, out, pre: int(pre),
        }),
        "local_prob.ConnectivityTable.prob": (local_prob.ConnectivityTable, "prob", {}),
        "local_prob.covering_prob": (local_prob, "covering_prob", {}),
    }


# Called millions of times per formula op: counted, never given spans.
COUNTED_ONLY = {"numerics.choose_float": (numerics, "choose_float")}


def _holders(owner, attr, original):
    """Every place a caller looks ``attr`` up: the class itself, or each
    loaded corebound module that binds the original function under that name."""
    if isinstance(owner, type):
        return [owner]
    return [mod for name, mod in list(sys.modules.items())
            if (name == "corebound" or name.startswith("corebound."))
            and vars(mod).get(attr) is original]


class Tracer:
    """Span and counter store; :meth:`installed` patches corebound while active."""

    def __init__(self) -> None:
        self.labels = list(_targets())
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack = [-1]

    def _span_wrapper(self, label, fn, counters):
        name_id = self.labels.index(label)
        pre_hook = counters.get("pre")
        post = [(f"{label}.{key}", f) for key, f in counters.items() if key != "pre"]
        stack, counts = self._stack, self.counts
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op

        def wrapper(*args, **kwargs):
            pre = pre_hook(args, kwargs) if pre_hook else None
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            for key, count in post:
                counts[key] += count(args, kwargs, out, pre)
            return out

        return wrapper

    def _count_wrapper(self, label, fn):
        counts, key = self.counts, f"{label}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        wrappers = [(owner, attr, self._span_wrapper(label, getattr(owner, attr), counters))
                    for label, (owner, attr, counters) in _targets().items()]
        wrappers += [(owner, attr, self._count_wrapper(label, getattr(owner, attr)))
                     for label, (owner, attr) in COUNTED_ONLY.items()]
        patched = []
        try:
            for owner, attr, wrapper in wrappers:
                original = getattr(owner, attr)
                for holder in _holders(owner, attr, original):
                    setattr(holder, attr, wrapper)
                    patched.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(patched):
                setattr(holder, attr, original)

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of its children."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - children

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Metric name -> (value, unit): calls and self_s of every span label,
        every counter, and the ratios derived from them."""
        names = np.frombuffer(self.name, dtype=np.int32)
        self_s = np.bincount(names, weights=self.self_times(), minlength=len(self.labels))
        calls = np.bincount(names, minlength=len(self.labels))
        out: dict[str, tuple[float, str]] = {}
        for i, label in enumerate(self.labels):
            out[f"{label}.calls"] = (int(calls[i]), "count")
            out[f"{label}.self_s"] = (float(self_s[i]), "s")
        for label, (_, _, counters) in _targets().items():
            for key in counters.keys() - {"pre"}:
                unit = "bytes" if key == "bytes_computed" else "count"
                out[f"{label}.{key}"] = (int(self.counts[f"{label}.{key}"]), unit)
        for label in COUNTED_ONLY:
            out[f"{label}.calls"] = (int(self.counts[f"{label}.calls"]), "count")
        ratio = lambda num, den: out[num][0] / out[den][0] if out[den][0] else 0.0
        out["kernels.sample_edge_mask.kept_per_draw"] = (
            ratio("kernels.sample_edge_mask.kept", "kernels.sample_edge_mask.draws"), "ratio")
        out["global_prob.LocalProvider.value.miss_ratio"] = (
            ratio("global_prob.LocalProvider.value.misses", "global_prob.LocalProvider.value.calls"),
            "ratio")
        return out

    def dump(self, path) -> None:
        """Write every span as gzipped JSON columns; times in ns from the first span."""
        start = np.frombuffer(self.start, dtype=np.float64)
        t0 = float(start.min()) if len(start) else 0.0

        def ns(col):
            return np.rint((np.frombuffer(col, dtype=np.float64) - t0) * 1e9).astype(np.int64).tolist()

        doc = {"labels": self.labels, "name": self.name.tolist(), "start_ns": ns(self.start),
               "end_ns": ns(self.end), "parent": self.parent.tolist(), "op": self.op.tolist()}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
