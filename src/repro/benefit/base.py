"""The benefit-model interface.

A benefit model maps a whole market to a dense ``(n_workers, n_tasks)``
matrix.  A *per-edge* model (:class:`EdgeBenefitModel`), whose benefit
of ``(w, t)`` reads only ``w`` and ``t``, writes its formula once as
:meth:`~EdgeBenefitModel.block` over broadcasting index arrays: the
matrix is that block over every pair, and
:class:`repro.benefit.rows.RowwiseBenefit` evaluates it over a slice.
A market-wide model such as
:class:`repro.benefit.normalization.NormalizedBenefit` has a matrix only.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.market.market import EntityArrays, LaborMarket

#: A worker or task index: a scalar or an array of them.
Index = np.ndarray | int


class BenefitModel(abc.ABC):
    """Maps a market to a per-edge benefit matrix for one side."""

    @abc.abstractmethod
    def matrix(
        self, market: LaborMarket, arrays: EntityArrays | None = None
    ) -> np.ndarray:
        """Dense ``(n_workers, n_tasks)`` benefit matrix.

        ``arrays`` are ``market.entity_arrays()`` when the caller has
        already built them.  Entries may be negative (an edge can be
        net-harmful for a side); solvers treat negative mutual benefit
        as "leave unassigned".
        """


class EdgeBenefitModel(BenefitModel):
    """A side model whose edge benefit reads only that edge's entities."""

    @abc.abstractmethod
    def block(self, arrays: EntityArrays, workers: Index, tasks: Index) -> np.ndarray:
        """Benefit of every (worker, task) pair the indices broadcast to."""

    def matrix(
        self, market: LaborMarket, arrays: EntityArrays | None = None
    ) -> np.ndarray:
        return self.block(
            arrays if arrays is not None else market.entity_arrays(),
            np.arange(market.n_workers)[:, np.newaxis],
            np.arange(market.n_tasks)[np.newaxis, :],
        )
