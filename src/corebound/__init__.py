"""Core-formation probabilities in k-uniform random hypergraphs.

Formulas (connectivity recursion, covering heuristic, interleaving bounds),
a seeded Monte Carlo simulator, and exhaustive desk-scale oracles that keep
the formulas honest.
"""
from .global_prob import (
    GlobalResult,
    exactly_one_core,
)
from .hypergraph import (
    HypergraphParams,
    candidate_edges,
    generate,
)
from .local_prob import (
    ConnectivityTable,
    LocalProvider,
    connectivity_prob,
    covering_prob,
    cross_edge_count,
    gilbert_prob,
)
from .montecarlo import (
    McEstimate,
    exact_exactly_one,
    exact_global,
    exact_local,
    mc_global,
    mc_local,
)
from .numerics import (
    PROB_TOL,
    ProbValue,
    binom_pmf,
    choose,
    choose_float,
    stable_sum,
)
from .sweep import BreakdownDetector, SweepSpec, find_breakdown, interleaving_bounds, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BreakdownDetector",
    "ConnectivityTable",
    "GlobalResult",
    "HypergraphParams",
    "LocalProvider",
    "McEstimate",
    "PROB_TOL",
    "ProbValue",
    "SweepSpec",
    "binom_pmf",
    "candidate_edges",
    "choose",
    "choose_float",
    "connectivity_prob",
    "covering_prob",
    "cross_edge_count",
    "exact_exactly_one",
    "exact_global",
    "exact_local",
    "exactly_one_core",
    "find_breakdown",
    "generate",
    "gilbert_prob",
    "interleaving_bounds",
    "mc_global",
    "mc_local",
    "run_sweep",
    "stable_sum",
    "__version__",
]
