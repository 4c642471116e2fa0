"""RowwiseBenefit slices, the full matrices and an independent oracle.

The matrices, rows, columns and edges all evaluate the side models'
one ``block`` formula, so "rows equal the matrix" alone no longer
checks the formula.  The oracle below recomputes every edge from the
entity methods and the documented formulas, one scalar at a time, and
all four views must match it exactly.
"""

import numpy as np
import pytest

from repro.benefit import (
    LinearCombiner,
    NetRewardBenefit,
    NormalizedBenefit,
    QualityGainBenefit,
    RowwiseBenefit,
    build_benefit_matrices,
)
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from repro.market.wage import FlatCost, LinearEffortCost, WageModel


def _market(seed=0, **kwargs):
    defaults = dict(n_workers=25, n_tasks=14)
    defaults.update(kwargs)
    return generate_market(SyntheticConfig(**defaults), seed=seed)


class _QuadraticCost(WageModel):
    """A custom wage model written in array form."""

    def costs(self, skills, efforts):
        return 0.1 * efforts * efforts * (1.5 - skills)


# -- the oracle: one edge at a time, from the entity methods -------------

#: Scalar transcriptions of each wage model's documented formula.
_WAGE_FORMULAS = {
    LinearEffortCost: lambda m, skill, effort: (
        m.rate * effort * (1.0 + m.skill_discount * (1.0 - skill))
    ),
    FlatCost: lambda m, skill, effort: m.amount,
    _QuadraticCost: lambda m, skill, effort: (
        0.1 * effort * effort * (1.5 - skill)
    ),
}


def _reference_edge(market, w, t, requester_model, worker_model, lam):
    """(requester, worker, combined) benefit of edge ``(w, t)``."""
    worker, task = market.workers[w], market.tasks[t]
    accuracy = worker.accuracy_on(task.category, task.difficulty)
    requester = (
        requester_model.value_scale * task.payment * (accuracy - 0.5) * 2.0
    )
    wage = worker_model.wage_model
    cost = _WAGE_FORMULAS[type(wage)](
        wage, worker.skill_for(task.category), task.effort
    )
    shortfall = max(worker.reservation_wage - task.payment, 0.0)
    interest = float(worker.interests[task.category])
    net = (
        task.payment - cost - shortfall + worker_model.interest_weight * interest
    )
    return requester, net, lam * requester + (1.0 - lam) * net


_CONFIGS = [
    # (seed, market kwargs, value_scale, wage model, interest_weight, λ)
    (0, {}, 1.0, LinearEffortCost(), 0.3, 0.5),
    (1, {}, 2.5, LinearEffortCost(rate=0.35, skill_discount=1.2), 0.8, 0.2),
    (2, {"n_categories": 3}, 0.7, FlatCost(0.15), 0.0, 0.9),
    (3, {"n_workers": 17, "n_tasks": 31}, 1.0, _QuadraticCost(), 0.5, 0.65),
    (4, {}, 0.0, FlatCost(0.0), 1.0, 1.0),
]


@pytest.mark.parametrize(
    "config", _CONFIGS, ids=[f"seed{c[0]}" for c in _CONFIGS]
)
class TestOracle:
    @staticmethod
    def _setup(config):
        seed, kwargs, value_scale, wage, interest_weight, lam = config
        market = _market(seed=seed, **kwargs)
        requester_model = QualityGainBenefit(value_scale=value_scale)
        worker_model = NetRewardBenefit(
            wage_model=wage, interest_weight=interest_weight
        )
        models = dict(
            combiner=LinearCombiner(lam),
            requester_model=requester_model,
            worker_model=worker_model,
        )
        reference = np.array(
            [
                [
                    _reference_edge(
                        market, w, t, requester_model, worker_model, lam
                    )
                    for t in range(market.n_tasks)
                ]
                for w in range(market.n_workers)
            ]
        )
        return market, models, reference

    def test_matrices_match_reference(self, config):
        market, models, reference = self._setup(config)
        matrices = build_benefit_matrices(market, **models)
        assert np.array_equal(matrices.requester, reference[:, :, 0])
        assert np.array_equal(matrices.worker, reference[:, :, 1])
        assert np.array_equal(matrices.combined, reference[:, :, 2])

    def test_rows_columns_edges_match_reference(self, config):
        market, models, reference = self._setup(config)
        rows = RowwiseBenefit(market, **models)
        combined = reference[:, :, 2]
        tasks = np.arange(market.n_tasks)
        workers = np.arange(market.n_workers)
        for w in workers:
            assert np.array_equal(rows.row(w, tasks), combined[w])
        for t in tasks:
            assert np.array_equal(rows.column(t, workers), combined[:, t])
        for w in workers:
            for t in tasks:
                assert rows.edge(w, t) == combined[w, t]


class TestFastPath:
    """Slices under the default models against the full matrices."""

    def test_every_row_matches_full_matrix(self):
        market = _market()
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        tasks = np.arange(market.n_tasks)
        for wi in range(market.n_workers):
            assert np.array_equal(
                rows.row(wi, tasks), matrices.combined[wi]
            )

    def test_every_column_matches_full_matrix(self):
        market = _market()
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        workers = np.arange(market.n_workers)
        for tj in range(market.n_tasks):
            assert np.array_equal(
                rows.column(tj, workers), matrices.combined[:, tj]
            )

    def test_subset_slices(self):
        market = _market(seed=3)
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        tasks = np.array([4, 1, 9])
        assert np.array_equal(
            rows.row(2, tasks), matrices.combined[2, tasks]
        )
        workers = np.array([7, 0, 11])
        assert np.array_equal(
            rows.column(5, workers), matrices.combined[workers, 5]
        )

    def test_side_rows_match_per_side_matrices(self):
        market = _market(seed=1)
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        tasks = np.arange(market.n_tasks)
        for wi in range(market.n_workers):
            req = rows.requester_model.block(rows.arrays, wi, tasks)
            wrk = rows.worker_model.block(rows.arrays, wi, tasks)
            assert np.array_equal(req, matrices.requester[wi])
            assert np.array_equal(wrk, matrices.worker[wi])

    def test_edge_scalar(self):
        market = _market()
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        assert rows.edge(3, 5) == float(matrices.combined[3, 5])

    def test_empty_selection(self):
        rows = RowwiseBenefit(_market())
        assert rows.row(0, np.zeros(0, dtype=np.int64)).size == 0
        assert rows.column(0, np.zeros(0, dtype=np.int64)).size == 0

    def test_nondefault_combiner(self):
        market = _market(seed=2)
        combiner = LinearCombiner(0.8)
        rows = RowwiseBenefit(market, combiner=combiner)
        matrices = build_benefit_matrices(market, combiner=combiner)
        tasks = np.arange(market.n_tasks)
        assert np.array_equal(rows.row(0, tasks), matrices.combined[0])


class TestCustomWageModel:
    def test_array_form_wage_model_is_exact(self):
        market = _market(seed=4)
        worker_model = NetRewardBenefit(wage_model=_QuadraticCost())
        rows = RowwiseBenefit(market, worker_model=worker_model)
        matrices = build_benefit_matrices(market, worker_model=worker_model)
        tasks = np.arange(market.n_tasks)
        workers = np.arange(market.n_workers)
        for wi in range(market.n_workers):
            assert np.array_equal(rows.row(wi, tasks), matrices.combined[wi])
        for tj in range(market.n_tasks):
            assert np.array_equal(
                rows.column(tj, workers), matrices.combined[:, tj]
            )


class TestMarketWideModels:
    """A normalized model scales by the whole matrix, so a row scaled
    on its own disagrees with the matrix's row; such models are
    refused instead of being sliced wrongly."""

    def test_normalized_worker_model_rejected(self):
        with pytest.raises(ValidationError, match="per-edge"):
            RowwiseBenefit(
                _market(), worker_model=NormalizedBenefit(NetRewardBenefit())
            )

    def test_normalized_requester_model_rejected(self):
        with pytest.raises(ValidationError, match="per-edge"):
            RowwiseBenefit(
                _market(),
                requester_model=NormalizedBenefit(QualityGainBenefit()),
            )

    def test_normalized_matrices_still_build(self):
        market = _market()
        raw = build_benefit_matrices(market)
        normalized = build_benefit_matrices(
            market, worker_model=NormalizedBenefit(NetRewardBenefit())
        )
        scale = np.abs(raw.worker).max()
        assert np.array_equal(normalized.worker, raw.worker / scale)
