"""Worker-side benefit: net reward plus interest match.

``benefit = payment - cost(w, t) - reservation_penalty + interest_weight * interest``

* ``payment`` is the task's per-worker reward;
* ``cost`` comes from the market's wage model (effort priced in money,
  :meth:`repro.market.wage.WageModel.costs`);
* if the payment is below the worker's reservation wage the shortfall
  is charged again as a penalty — under-paying a worker is worse than
  neutral because it signals the platform undervalues them;
* ``interest`` is the worker's affinity for the task's category, the
  non-monetary component of willingness.
"""

from __future__ import annotations

import numpy as np

from repro.benefit.base import EdgeBenefitModel, Index
from repro.market.market import EntityArrays
from repro.market.wage import LinearEffortCost, WageModel
from repro.utils.validation import check_nonnegative


class NetRewardBenefit(EdgeBenefitModel):
    """Payment − effort cost − reservation shortfall + interest bonus."""

    def __init__(
        self,
        wage_model: WageModel | None = None,
        interest_weight: float = 0.3,
    ) -> None:
        self.wage_model = wage_model if wage_model is not None else LinearEffortCost()
        self.interest_weight = check_nonnegative("interest_weight", interest_weight)

    def block(self, arrays: EntityArrays, workers: Index, tasks: Index) -> np.ndarray:
        categories = arrays.categories[tasks]
        payments = arrays.payments[tasks]
        costs = self.wage_model.costs(
            arrays.skills[workers, categories], arrays.efforts[tasks]
        )
        shortfall = np.maximum(arrays.reservation_wages[workers] - payments, 0.0)
        interests = arrays.interests[workers, categories]
        return payments - costs - shortfall + self.interest_weight * interests
