"""Cross-validation of the vectorized matching hot paths.

Three independent implementations of the assignment optimum exist —
the vectorized Hungarian, its scalar reference, and the ε-scaling
auction — plus min-cost flow one level up.
These tests drive them over random and degenerate instances and
require bit-for-bit agreement on the optimal *total* (assignments may
differ only between algorithms when optima tie; the vectorized
Hungarian must reproduce the reference's exact assignment because it
keeps the reference's lowest-index tie-breaks).
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.matching.auction import auction_assignment
from repro.matching.hungarian import hungarian
from repro.matching.mincost_flow import min_cost_flow
from repro.matching.graph import FlowNetwork
from repro.matching.reference import hungarian_reference
from repro.utils.rng import as_rng


def _flow_assignment_total(weights: np.ndarray) -> float:
    """Max-weight perfect-on-rows assignment via min-cost flow."""
    n, m = weights.shape
    network = FlowNetwork(n + m + 2)
    source, sink = n + m, n + m + 1
    for i in range(n):
        network.add_edge(source, i, 1.0, 0.0)
    for j in range(m):
        network.add_edge(n + j, sink, 1.0, 0.0)
    for i in range(n):
        for j in range(m):
            network.add_edge(i, n + j, 1.0, -float(weights[i, j]))
    result = min_cost_flow(network, source, sink)
    return -result.cost


def _instances():
    rng = as_rng(20240806)
    cases = []
    for trial in range(12):
        n = int(rng.integers(1, 14))
        m = int(rng.integers(n, n + 9))
        cases.append((f"uniform-{trial}", rng.random((n, m))))
    for trial in range(6):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(n, n + 6))
        # Coarse integer weights force massive optimum ties.
        cases.append(
            (f"duplicates-{trial}", rng.integers(0, 4, (n, m)).astype(float))
        )
    for trial in range(6):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(n, n + 6))
        cases.append((f"negative-{trial}", rng.random((n, m)) * 4.0 - 2.0))
    cases.append(("constant", np.ones((5, 7))))
    cases.append(("single", np.asarray([[3.5]])))
    return cases


@pytest.mark.parametrize(
    "weights", [c[1] for c in _instances()], ids=[c[0] for c in _instances()]
)
class TestOptimaAgree:
    def test_hungarian_matches_reference_exactly(self, weights):
        cost = -weights
        assignment, total = hungarian(cost)
        ref_assignment, ref_total = hungarian_reference(cost)
        assert assignment == ref_assignment
        assert total == pytest.approx(ref_total, abs=1e-9)

    def test_auction_modes_agree_with_hungarian(self, weights):
        _, hungarian_total = hungarian(-weights)
        assignment, total = auction_assignment(weights)
        assert total == pytest.approx(-hungarian_total, abs=1e-6)
        # A valid perfect matching on the rows.
        assert len(assignment) == weights.shape[0]
        assert len(set(assignment)) == weights.shape[0]
        recomputed = sum(weights[i, j] for i, j in enumerate(assignment))
        assert total == pytest.approx(recomputed, abs=1e-9)

    def test_flow_agrees(self, weights):
        if weights.size > 80:  # keep the O(n·m) flow builds cheap
            pytest.skip("flow cross-check runs on the small instances")
        _, hungarian_total = hungarian(-weights)
        assert _flow_assignment_total(weights) == pytest.approx(
            -hungarian_total, abs=1e-6
        )


class TestDegenerateInstances:
    def test_empty_rows(self):
        assert hungarian(np.empty((0, 4))) == ([], 0.0)
        assert hungarian_reference(np.empty((0, 4))) == ([], 0.0)
        assert auction_assignment(np.empty((0, 4))) == ([], 0.0)

    def test_more_rows_than_columns_rejected(self):
        bad = np.ones((4, 2))
        with pytest.raises(ValidationError):
            hungarian(bad)
        with pytest.raises(ValidationError):
            hungarian_reference(bad)
        with pytest.raises(ValidationError):
            auction_assignment(bad)

    def test_non_finite_rejected(self):
        bad = np.asarray([[1.0, np.inf]])
        with pytest.raises(ValidationError):
            hungarian(bad)
        with pytest.raises(ValidationError):
            auction_assignment(bad)

    def test_rectangular_rows_all_assigned_distinctly(self):
        rng = as_rng(4)
        weights = rng.random((6, 30))
        assignment, _total = auction_assignment(weights)
        assert len(assignment) == 6
        assert len(set(assignment)) == 6
