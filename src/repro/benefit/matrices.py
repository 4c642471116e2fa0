"""One-call construction of all benefit matrices for a market.

Solvers consume a :class:`BenefitMatrices` bundle — the requester
matrix, the worker matrix, and the combined per-edge matrix under a
chosen combiner — so that the expensive vectorized computation happens
exactly once per market snapshot, from entity arrays both side
models share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.benefit.base import BenefitModel
from repro.benefit.mutual import LinearCombiner, MutualCombiner
from repro.benefit.requester_benefit import QualityGainBenefit
from repro.benefit.worker_benefit import NetRewardBenefit
from repro.errors import ValidationError
from repro.market.market import LaborMarket


@dataclass(frozen=True)
class BenefitMatrices:
    """All per-edge benefit views of one market snapshot.

    Attributes
    ----------
    requester:
        ``(n_workers, n_tasks)`` requester-side benefit.
    worker:
        ``(n_workers, n_tasks)`` worker-side benefit.
    combined:
        Per-edge combined score under the chosen combiner (exact for
        the linear combiner, a surrogate otherwise).
    combiner:
        The combiner that produced ``combined``.
    """

    requester: np.ndarray
    worker: np.ndarray
    combined: np.ndarray
    combiner: MutualCombiner

    def __post_init__(self) -> None:
        if not (
            self.requester.shape == self.worker.shape == self.combined.shape
        ):
            raise ValidationError(
                "benefit matrices must share one shape, got "
                f"{self.requester.shape}, {self.worker.shape}, "
                f"{self.combined.shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.requester.shape  # type: ignore[return-value]

    def side_totals(self, edges: list[tuple[int, int]]) -> tuple[float, float]:
        """(requester_total, worker_total) over a set of edges.

        Called on every objective evaluation inside greedy/local-search
        loops, so the per-edge lookups run as one fancy-indexed gather
        per side instead of a Python generator over scalars.
        """
        if not edges:
            return 0.0, 0.0
        edge_array = np.asarray(edges, dtype=np.int64)
        rows = edge_array[:, 0]
        cols = edge_array[:, 1]
        req = float(self.requester[rows, cols].sum())
        wrk = float(self.worker[rows, cols].sum())
        return req, wrk

    def combined_total(self, edges: list[tuple[int, int]]) -> float:
        """Combined objective of a set of edges under the combiner."""
        req, wrk = self.side_totals(edges)
        return self.combiner.total(req, wrk)


def default_models(
    combiner: MutualCombiner | None = None,
    requester_model: BenefitModel | None = None,
    worker_model: BenefitModel | None = None,
) -> tuple[MutualCombiner, BenefitModel, BenefitModel]:
    """Fill unset arguments with the library defaults.

    Defaults: :class:`QualityGainBenefit`, :class:`NetRewardBenefit`,
    and a λ=0.5 :class:`LinearCombiner` — the configuration every
    example starts from.
    """
    return (
        combiner if combiner is not None else LinearCombiner(0.5),
        requester_model if requester_model is not None else QualityGainBenefit(),
        worker_model if worker_model is not None else NetRewardBenefit(),
    )


def build_benefit_matrices(
    market: LaborMarket,
    combiner: MutualCombiner | None = None,
    requester_model: BenefitModel | None = None,
    worker_model: BenefitModel | None = None,
) -> BenefitMatrices:
    """Build the matrix bundle (library defaults for unset arguments)."""
    combiner, requester_model, worker_model = default_models(
        combiner, requester_model, worker_model
    )
    with obs.span(
        "benefit.matrix", workers=market.n_workers, tasks=market.n_tasks
    ):
        arrays = market.entity_arrays()
        requester = requester_model.matrix(market, arrays)
        worker = worker_model.matrix(market, arrays)
        combined = combiner.edge_matrix(requester, worker)
    return BenefitMatrices(
        requester=requester, worker=worker, combined=combined, combiner=combiner
    )
