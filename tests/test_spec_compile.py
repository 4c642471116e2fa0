"""Spec loading, structural diagnostics, round-trips, compilation."""

from __future__ import annotations

import json

import pytest

from repro.benefit.mutual import LinearCombiner
from repro.errors import ConfigurationError
from repro.spec import (
    SpecError,
    check_spec,
    compile_spec,
    dump_spec,
    load_spec,
    normalize,
)
from repro.spec.constraints import RegistryView


@pytest.fixture(scope="module")
def view():
    return RegistryView.live()


def payload(**sections) -> dict:
    base = {
        "schema": "repro-spec/1",
        "market": {
            "workload": "synthetic-uniform",
            "workers": 24,
            "tasks": 12,
        },
    }
    for section, body in sections.items():
        base.setdefault(section, {}).update(body)
    return base


def codes(diagnostics) -> set[str]:
    return {diagnostic.code for diagnostic in diagnostics}


class TestLoadSpec:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload()))
        assert load_spec(path)["market"]["workers"] == 24

    def test_toml(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            'schema = "repro-spec/1"\n'
            "[market]\n"
            'workload = "synthetic-uniform"\n'
            "workers = 24\ntasks = 12\n"
        )
        assert load_spec(path)["market"]["workers"] == 24

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("nope")
        with pytest.raises(ConfigurationError, match="suffix"):
            load_spec(path)


class TestStructuralDiagnostics:
    def test_d101_missing_schema_header(self):
        spec = payload()
        del spec["schema"]
        _, diagnostics = normalize(spec)
        assert "D101" in codes(diagnostics)

    def test_d102_unknown_section_and_knob(self):
        spec = payload(scenario={"solvr": "flow"})
        spec["mysteries"] = {"x": 1}
        _, diagnostics = normalize(spec)
        d102 = [d for d in diagnostics if d.code == "D102"]
        assert {d.knob for d in d102} == {"mysteries", "scenario.solvr"}
        # The unknown-knob message lists the section's real knobs.
        assert any("scenario.solver" in d.message for d in d102)

    def test_d103_missing_required_workload(self):
        spec = payload()
        del spec["market"]["workload"]
        _, diagnostics = normalize(spec)
        assert "D103" in codes(diagnostics)

    def test_d104_wrong_type(self):
        _, diagnostics = normalize(
            payload(scenario={"n_rounds": "ten"})
        )
        assert "D104" in codes(diagnostics)

    def test_d104_bool_is_not_an_int(self):
        _, diagnostics = normalize(payload(scenario={"n_rounds": True}))
        assert "D104" in codes(diagnostics)

    def test_d105_out_of_range(self):
        _, diagnostics = normalize(payload(scenario={"lam": 1.5}))
        assert "D105" in codes(diagnostics)

    def test_d105_unregistered_name(self, view):
        result = check_spec(
            payload(scenario={"solver": "warp-drive"}), view=view
        )
        assert "D105" in codes(result.diagnostics)
        message = next(
            d.message for d in result.diagnostics if d.code == "D105"
        )
        assert "flow" in message  # points at the registered names

    def test_d106_axis_scalar_conflict(self):
        spec = payload(scenario={"lam": 0.5})
        spec["axes"] = {"scenario.lam": [0.2, 0.8]}
        _, diagnostics = normalize(spec)
        assert "D106" in codes(diagnostics)

    def test_d106_axis_on_table_knob(self):
        spec = payload()
        spec["axes"] = {"scenario.solver_kwargs": [{"scaling": 2.0}]}
        _, diagnostics = normalize(spec)
        assert "D106" in codes(diagnostics)

    def test_d106_axis_values_domain_checked(self):
        spec = payload()
        spec["axes"] = {"scenario.lam": [0.2, 3.0]}
        _, diagnostics = normalize(spec)
        assert "D106" in codes(diagnostics)

    def test_nested_axes_tables_flatten(self):
        spec = payload()
        spec["axes"] = {"scenario": {"lam": [0.2, 0.8]}}
        normalized, diagnostics = normalize(spec)
        assert not diagnostics
        assert normalized.axes == {"scenario.lam": [0.2, 0.8]}


class TestRoundTrip:
    def test_normalize_dump_normalize_is_identity(self):
        spec = payload(
            scenario={"solver": "greedy", "gold_fraction": 0.2},
            estimator={"enabled": True},
            faults={"rate": 0.1, "seed": 3},
        )
        spec["axes"] = {"scenario.lam": [0.25, 0.75]}
        first, diagnostics = normalize(spec)
        assert not diagnostics
        second, diagnostics = normalize(dump_spec(first))
        assert not diagnostics
        assert second == first

    def test_dump_is_sparse(self):
        normalized, _ = normalize(payload())
        dumped = dump_spec(normalized)
        # Only the explicitly set knobs reappear — defaults stay
        # implicit so explicitness-keyed constraints survive the trip.
        assert set(dumped) == {"schema", "market"}

    def test_compile_dump_recompile_identical(self, view):
        spec = payload(scenario={"solver": "greedy", "n_rounds": 4})
        first = compile_spec(spec, view=view)
        normalized, _ = normalize(spec)
        second = compile_spec(dump_spec(normalized), view=view)
        assert first.solver_name == second.solver_name
        assert first.n_rounds == second.n_rounds
        assert len(first.market.workers) == len(second.market.workers)


class TestCompile:
    def test_builds_the_described_scenario(self, view):
        scenario = compile_spec(
            payload(
                scenario={
                    "solver": "greedy",
                    "lam": 0.3,
                    "n_rounds": 4,
                    "workers_decline": True,
                },
                retention={"enabled": False},
                estimator={"enabled": True, "prior_a": 4.0},
                drift={"enabled": True, "learning_rate": 0.2},
            ),
            view=view,
        )
        assert scenario.solver_name == "greedy"
        assert isinstance(scenario.combiner, LinearCombiner)
        assert scenario.combiner.lam == pytest.approx(0.3)
        assert scenario.n_rounds == 4
        assert scenario.retention is None
        assert scenario.workers_decline
        assert scenario.estimator is not None
        assert scenario.estimator.prior_a == pytest.approx(4.0)
        assert scenario.drift is not None
        assert scenario.drift.learning_rate == pytest.approx(0.2)
        assert scenario.fault_plan is None
        assert scenario.resilience is None

    def test_fault_plan_uniform_with_overrides(self, view):
        scenario = compile_spec(
            payload(
                faults={
                    "rate": 0.2,
                    "seed": 17,
                    "task_cancel_rate": 0.05,
                }
            ),
            view=view,
        )
        plan = scenario.fault_plan
        assert plan is not None
        assert plan.seed == 17
        assert plan.no_show_rate == pytest.approx(0.2)
        # Explicit per-kind rate overrides the uniform rate/2 rule.
        assert plan.task_cancel_rate == pytest.approx(0.05)
        assert plan.solver_failure_rate == pytest.approx(0.1)

    def test_resilience_profile_resolves(self, view):
        scenario = compile_spec(
            payload(
                scenario={"resilience": "failfast"},
                retention={"enabled": False},
            ),
            view=view,
        )
        assert scenario.resilience == "failfast"

    def test_invalid_spec_raises_before_compilation(self, view):
        with pytest.raises(SpecError) as excinfo:
            compile_spec(
                payload(scenario={"gold_fraction": 0.4}), view=view
            )
        assert "C201" in str(excinfo.value)
        assert excinfo.value.result.errors

    def test_compiles_from_a_file_path(self, tmp_path, view):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload()))
        scenario = compile_spec(path, view=view)
        assert len(scenario.market.workers) == 24

    def test_compiled_scenario_simulates(self, view):
        from repro.sim.engine import Simulation

        scenario = compile_spec(
            payload(scenario={"n_rounds": 2}), view=view
        )
        result = Simulation(scenario).run(seed=0)
        assert len(result.rounds) == 2


class TestCommittedCorpus:
    def test_shipped_specs_are_checker_clean(self, view):
        pytest.importorskip("tomllib")
        from pathlib import Path

        specs = sorted(Path("specs").glob("*.toml"))
        assert len(specs) >= 4
        for path in specs:
            result = check_spec(path, view=view)
            assert result.ok, f"{path}: {result.render()}"


class TestCompileStream:
    def test_compiles_market_config_and_combiner(self, view):
        from repro.spec import compile_stream

        compiled = compile_stream(
            payload(
                stream={
                    "policy": "sample-price",
                    "task_rate": 7.0,
                    "sample_fraction": 0.25,
                }
            ),
            view=view,
        )
        assert compiled.market.n_workers == 24
        assert compiled.config.policy == "sample-price"
        assert compiled.config.task_rate == 7.0
        assert compiled.config.sample_fraction == 0.25
        assert isinstance(compiled.combiner, LinearCombiner)
        # Online policies never compile the full engine scenario.
        assert compiled.scenario is None

    def test_round_policy_compiles_the_scenario(self, view):
        from repro.spec import compile_stream

        compiled = compile_stream(
            payload(
                scenario={"solver": "greedy", "n_rounds": 2},
                stream={"policy": "round"},
            ),
            view=view,
        )
        assert compiled.scenario is not None
        assert compiled.scenario.solver_name == "greedy"
        assert compiled.config.round_solver == "greedy"

    def test_invalid_stream_spec_raises(self, view):
        from repro.spec import compile_stream

        with pytest.raises(SpecError) as excinfo:
            compile_stream(
                payload(stream={"batch_window": 2.0}), view=view
            )
        assert "C211" in str(excinfo.value)

    def test_compiled_stream_dispatches(self, view):
        from repro.spec import compile_stream
        from repro.stream import StreamDispatcher

        compiled = compile_stream(
            payload(stream={"deadline": 4.0, "session_length": 3.0}),
            view=view,
        )
        result = StreamDispatcher(
            compiled.market, compiled.config, combiner=compiled.combiner
        ).run(seed=0)
        assert result.posted_tasks == 12
