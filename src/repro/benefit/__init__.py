"""Benefit models: how much each side gains from an edge (worker, task).

The requester side values *quality* (the worker's marginal contribution
to the task's aggregated-answer accuracy); the worker side values
*payment minus effort cost plus interest match*.  The
:mod:`repro.benefit.mutual` module combines the two sides into the
objective the core solvers maximize.

Each side's formula is written once, as the model's ``block`` over
broadcasting worker and task index arrays (:mod:`repro.benefit.base`).
The full matrices (:func:`build_benefit_matrices`) are that block over
every pair; the streaming rows and columns (:class:`RowwiseBenefit`)
are the same block over a slice.
"""

from repro.benefit.base import BenefitModel, EdgeBenefitModel
from repro.benefit.matrices import BenefitMatrices, build_benefit_matrices
from repro.benefit.mutual import (
    EgalitarianCombiner,
    LinearCombiner,
    MutualCombiner,
    NashCombiner,
    make_combiner,
)
from repro.benefit.normalization import NormalizedBenefit, normalized_problem
from repro.benefit.requester_benefit import QualityGainBenefit
from repro.benefit.rows import RowwiseBenefit
from repro.benefit.worker_benefit import NetRewardBenefit

__all__ = [
    "BenefitMatrices",
    "BenefitModel",
    "EdgeBenefitModel",
    "EgalitarianCombiner",
    "LinearCombiner",
    "MutualCombiner",
    "NashCombiner",
    "NetRewardBenefit",
    "NormalizedBenefit",
    "QualityGainBenefit",
    "RowwiseBenefit",
    "build_benefit_matrices",
    "make_combiner",
    "normalized_problem",
]
