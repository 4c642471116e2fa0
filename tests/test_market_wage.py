"""Tests for wage/cost models."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.market.wage import FlatCost, LinearEffortCost


class TestLinearEffortCost:
    def test_scales_with_effort(self):
        model = LinearEffortCost(rate=0.5, skill_discount=0.0)
        cheap, dear = model.costs(np.array([0.8, 0.8]), np.array([1.0, 3.0]))
        assert dear == pytest.approx(3.0 * cheap)

    def test_skilled_workers_pay_less(self):
        model = LinearEffortCost(rate=0.5, skill_discount=1.0)
        skilled, unskilled = model.costs(np.array([0.9, 0.3]), 1.0)
        assert skilled < unskilled

    def test_zero_discount_ignores_skill(self):
        model = LinearEffortCost(rate=0.5, skill_discount=0.0)
        skilled, unskilled = model.costs(np.array([0.9, 0.1]), 2.0)
        assert skilled == unskilled

    def test_rejects_negative_rate(self):
        with pytest.raises(ValidationError):
            LinearEffortCost(rate=-0.1)

    def test_broadcasts_workers_against_tasks(self):
        model = LinearEffortCost(rate=0.2, skill_discount=0.5)
        skills = np.array([[0.9], [0.4]])
        efforts = np.array([[1.0, 2.5, 4.0]])
        costs = model.costs(skills, efforts)
        assert costs.shape == (2, 3)
        assert costs[1, 2] == 0.2 * 4.0 * (1.0 + 0.5 * (1.0 - 0.4))


class TestFlatCost:
    def test_constant(self):
        model = FlatCost(amount=0.25)
        costs = model.costs(np.array([0.5, 0.5]), np.array([1.0, 9.0]))
        assert costs.tolist() == [0.25, 0.25]

    def test_broadcast_shape(self):
        costs = FlatCost(amount=0.25).costs(np.zeros((4, 1)), np.ones((1, 3)))
        assert costs.shape == (4, 3)
