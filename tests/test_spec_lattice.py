"""Lattice expansion: checker-clean points only, durable ids, seeded
sampling, and the eval.sweep integration."""

from __future__ import annotations

import pytest

from repro.eval.sweep import sweep_spec
from repro.spec import SpecError, expand, normalize, sample, scenario_id
from repro.spec.constraints import RegistryView


@pytest.fixture(scope="module")
def view():
    return RegistryView.live()


def payload(**sections) -> dict:
    base = {
        "schema": "repro-spec/1",
        "market": {
            "workload": "synthetic-uniform",
            "workers": 10,
            "tasks": 10,
        },
    }
    for section, body in sections.items():
        base.setdefault(section, {}).update(body)
    return base


class TestExpand:
    def test_full_product_in_deterministic_order(self, view):
        spec = payload()
        spec["axes"] = {
            "scenario.solver": ["flow", "greedy"],
            "scenario.lam": [0.25, 0.75],
        }
        lattice = expand(spec, view=view)
        assert len(lattice.points) == 4
        assert lattice.enumerated == 4
        # Axes iterate sorted by knob name: lam varies slowest.
        assert [p.axis_values["scenario.lam"] for p in lattice.points] == [
            0.25, 0.25, 0.75, 0.75,
        ]

    def test_invalid_corners_dropped_and_counted(self, view):
        spec = payload(drift={"enabled": True, "ceiling": 0.6})
        spec["axes"] = {"drift.floor": [0.5, 0.9]}
        lattice = expand(spec, view=view)
        # A floor of 0.5 survives; 0.9 sits above the ceiling (C206).
        assert len(lattice.points) == 1
        assert len(lattice.dropped) == 1
        assert lattice.points[0].axis_values == {"drift.floor": 0.5}
        dropped = lattice.dropped[0]
        assert {d.code for d in dropped.diagnostics} == {"C206"}

    def test_axisless_spec_yields_one_point(self, view):
        lattice = expand(payload(), view=view)
        assert len(lattice.points) == 1
        assert lattice.points[0].axis_values == {}

    def test_structural_errors_refuse_to_expand(self, view):
        spec = payload()
        spec["axes"] = {"scenario.solver": ["flow", "warp-drive"]}
        with pytest.raises(SpecError, match="D105"):
            expand(spec, view=view)

    def test_point_payloads_recompile_to_the_same_spec(self, view):
        spec = payload()
        spec["axes"] = {"scenario.lam": [0.25, 0.75]}
        lattice = expand(spec, view=view)
        for point in lattice.points:
            normalized, diagnostics = normalize(point.payload)
            assert not diagnostics
            assert normalized == point.spec


class TestScenarioIds:
    def test_ids_are_stable_across_expansions(self, view):
        spec = payload()
        spec["axes"] = {"scenario.lam": [0.25, 0.75]}
        first = [p.id for p in expand(spec, view=view).points]
        second = [p.id for p in expand(spec, view=view).points]
        assert first == second
        assert all(i.startswith("sc-") for i in first)
        assert len(set(first)) == len(first)

    def test_id_ignores_explicit_default_spelling(self, view):
        terse, _ = normalize(payload())
        verbose, _ = normalize(
            payload(scenario={"aggregator": "majority"})
        )
        assert scenario_id(terse) == scenario_id(verbose)

    def test_id_changes_with_any_knob(self, view):
        base, _ = normalize(payload())
        tweaked, _ = normalize(payload(scenario={"n_rounds": 11}))
        assert scenario_id(base) != scenario_id(tweaked)


class TestSample:
    def _spec(self):
        spec = payload()
        spec["axes"] = {
            "scenario.solver": ["flow", "greedy"],
            "scenario.lam": [0.1, 0.5, 0.9],
        }
        return spec

    def test_seeded_and_deterministic(self, view):
        first = sample(self._spec(), 3, seed=11, view=view)
        second = sample(self._spec(), 3, seed=11, view=view)
        assert [p.id for p in first.points] == [
            p.id for p in second.points
        ]
        assert len(first.points) == 3

    def test_oversized_k_returns_everything(self, view):
        lattice = sample(self._spec(), 99, seed=11, view=view)
        assert len(lattice.points) == 6

    def test_subsample_preserves_enumeration_order(self, view):
        full = [p.id for p in expand(self._spec(), view=view).points]
        chosen = [
            p.id for p in sample(self._spec(), 4, seed=7, view=view).points
        ]
        assert chosen == [i for i in full if i in set(chosen)]


class TestSweepSpec:
    def test_sweeps_only_valid_points_and_maps_ids(self):
        spec = {
            "schema": "repro-spec/1",
            "market": {
                "workload": "synthetic-uniform",
                "workers": 12,
                "tasks": 6,
            },
            "scenario": {"n_rounds": 2},
            "retention": {"enabled": False},
            "axes": {"scenario.lam": [0.25, 0.75]},
        }
        result = sweep_spec(spec, repetitions=1, seed=0)
        assert len(result.lattice.points) == 2
        assert len(result.points) == 2
        by_scenario = result.by_scenario()
        assert set(by_scenario) == {
            p.id for p in result.lattice.points
        }
        for mean_value, _elapsed in by_scenario.values():
            assert 0.0 <= mean_value <= 1.0
