"""Bipartite matching and flow substrate, implemented from scratch.

This package contains the combinatorial machinery the assignment
solvers are built on:

* :mod:`graph` — a residual flow network;
* :mod:`mincost_flow` — successive-shortest-path min-cost max-flow with
  Johnson potentials (the workhorse behind the flow-optimal solver);
* :mod:`hungarian` — the O(n³) Hungarian algorithm for square
  assignment (independent implementation used to cross-validate flow);
* :mod:`hopcroft_karp` — maximum-cardinality bipartite matching;
* :mod:`auction` — Bertsekas' ε-scaling auction algorithm (a third
  independent optimum for cross-validation);
* :mod:`reference` — scalar-loop reference implementations the
  vectorized hot paths are cross-validated and benchmarked against;
* :mod:`b_matching` — capacitated maximum-weight b-matching via flow;
* :mod:`online` — online bipartite matching: greedy, Ranking, and a
  two-phase sample-then-match algorithm.
"""

from repro.matching.auction import auction_assignment
from repro.matching.b_matching import max_weight_b_matching
from repro.matching.graph import FlowNetwork
from repro.matching.hopcroft_karp import hopcroft_karp
from repro.matching.hungarian import hungarian
from repro.matching.mincost_flow import MinCostFlowResult, min_cost_flow
from repro.matching.online import (
    online_greedy_matching,
    ranking_matching,
    two_phase_matching,
)
from repro.matching.reference import hungarian_reference

__all__ = [
    "FlowNetwork",
    "MinCostFlowResult",
    "auction_assignment",
    "hopcroft_karp",
    "hungarian",
    "hungarian_reference",
    "max_weight_b_matching",
    "min_cost_flow",
    "online_greedy_matching",
    "ranking_matching",
    "two_phase_matching",
]
