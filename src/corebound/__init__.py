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
    candidate_edges,
    generate,
)
from .local_prob import (
    ConnectivityTable,
    LocalProvider,
    covering_prob,
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
from .sweep import SweepSpec, find_breakdown, first_failure, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ConnectivityTable",
    "GlobalResult",
    "LocalProvider",
    "McEstimate",
    "PROB_TOL",
    "ProbValue",
    "SweepSpec",
    "binom_pmf",
    "candidate_edges",
    "choose",
    "choose_float",
    "covering_prob",
    "exact_exactly_one",
    "exact_global",
    "exact_local",
    "exactly_one_core",
    "find_breakdown",
    "first_failure",
    "generate",
    "gilbert_prob",
    "mc_global",
    "mc_local",
    "run_sweep",
    "stable_sum",
    "__version__",
]
