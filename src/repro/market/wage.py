"""Wage and effort-cost models for the worker side.

The worker-side benefit of an edge (w, t) is::

    payment(t) - cost(w, t) + interest_bonus(w, t)

This module supplies the ``cost`` part.  Different markets price effort
differently (micro-task platforms pay cents for seconds of work;
freelance markets pay for hours), so cost is a pluggable strategy.

A model is written once, in array form (:meth:`WageModel.costs`): the
benefit matrices, the streaming rows and task pricing all call it.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.validation import check_nonnegative


class WageModel(abc.ABC):
    """Strategy interface converting task effort into worker cost."""

    @abc.abstractmethod
    def costs(self, skills: np.ndarray, efforts: np.ndarray) -> np.ndarray:
        """Monetary-equivalent cost of each (worker, task) pair, given the
        worker's skill in the task's category and the task's effort as
        arrays that broadcast together."""


class LinearEffortCost(WageModel):
    """Cost grows linearly in task effort, discounted by skill.

    ``cost = rate * effort * (1 + skill_discount * (1 - skill))``

    A skilled worker completes the task faster, so their cost is lower;
    ``skill_discount`` controls how much skill matters (0 disables the
    effect).
    """

    def __init__(self, rate: float = 0.2, skill_discount: float = 0.5) -> None:
        self.rate = check_nonnegative("rate", rate)
        self.skill_discount = check_nonnegative("skill_discount", skill_discount)

    def costs(self, skills: np.ndarray, efforts: np.ndarray) -> np.ndarray:
        return self.rate * efforts * (1.0 + self.skill_discount * (1.0 - skills))


class FlatCost(WageModel):
    """Every task costs the same fixed amount — the simplest baseline."""

    def __init__(self, amount: float = 0.1) -> None:
        self.amount = check_nonnegative("amount", amount)

    def costs(self, skills: np.ndarray, efforts: np.ndarray) -> np.ndarray:
        shape = np.broadcast_shapes(np.shape(skills), np.shape(efforts))
        return np.full(shape, self.amount)
