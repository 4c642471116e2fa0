"""On-demand row/column benefit computation for large markets.

:func:`repro.benefit.matrices.build_benefit_matrices` materializes the
full ``(n_workers, n_tasks)`` matrices — the right call for the
round-based solvers, and hopeless at streaming scale: a 10^5 × 10^5
market is 10^10 entries.  The streaming dispatcher only ever needs the
benefits of *one* arriving entity against a bounded active set, so
:class:`RowwiseBenefit` evaluates each side model's
:meth:`~repro.benefit.base.EdgeBenefitModel.block` over exactly that
slice, from entity arrays built once per market.

A row or column is the formula the full matrix evaluates, over other
index arrays, so it agrees **bit-identically** with the matching slice
of the matrices.  Market-wide models such as
:class:`~repro.benefit.normalization.NormalizedBenefit` have no
per-edge block and are rejected at construction.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.benefit.base import EdgeBenefitModel
from repro.benefit.matrices import default_models
from repro.benefit.mutual import MutualCombiner
from repro.errors import ValidationError
from repro.market.market import LaborMarket


class RowwiseBenefit:
    """Combined-benefit rows and columns without the full matrices.

    Parameters mirror :func:`build_benefit_matrices`; the defaults are
    the same library defaults, so the two constructions describe the
    same market.
    """

    def __init__(
        self,
        market: LaborMarket,
        combiner: MutualCombiner | None = None,
        requester_model: EdgeBenefitModel | None = None,
        worker_model: EdgeBenefitModel | None = None,
    ) -> None:
        self.market = market
        self.combiner, self.requester_model, self.worker_model = default_models(
            combiner, requester_model, worker_model
        )
        for model in (self.requester_model, self.worker_model):
            if not isinstance(model, EdgeBenefitModel):
                raise ValidationError(
                    f"{type(model).__name__} has no per-edge block, so its "
                    "rows are not slices of its matrix"
                )
        self.arrays = market.entity_arrays()

    def row(
        self, worker_index: int, task_indices: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Combined benefit of one worker against selected tasks."""
        return self._combined(worker_index, np.asarray(task_indices, dtype=np.int64))

    def column(
        self, task_index: int, worker_indices: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Combined benefit of one task against selected workers."""
        return self._combined(np.asarray(worker_indices, dtype=np.int64), task_index)

    def edge(self, worker_index: int, task_index: int) -> float:
        """Combined benefit of one edge."""
        return float(self._combined(worker_index, task_index))

    def _combined(self, workers, tasks) -> np.ndarray:
        return self.combiner.edge_matrix(
            self.requester_model.block(self.arrays, workers, tasks),
            self.worker_model.block(self.arrays, workers, tasks),
        )
