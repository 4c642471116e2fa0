"""The benchmark's workloads: inputs from a seed, one run, checks.

Each workload turns the benchmark seed into its inputs (market,
scenario, arrival traces) and a run seed; the program under test only
ever sees those generated inputs.  ``run`` executes what a user runs
(``Simulation.run`` or a full ``StreamDispatcher`` drain into a JSONL
file), ``check`` verifies the outputs, and ``layers`` turns one traced
run's :class:`~layers.LayerClock` into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

from repro.benefit.mutual import LinearCombiner
from repro.benefit.rows import RowwiseBenefit
from repro.crowd.estimation import BetaSkillEstimator
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.market.arrivals import TraceArrivals
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.stream import BatchWriter, DispatchConfig, StreamDispatcher

from layers import wrap_writer

perf_counter = time.perf_counter

#: The seed later performance claims are checked on.  Never tune or
#: develop against it.
HELD_OUT_SEED = 9173

#: Workload names in a fixed order; the index salts the seed so two
#: workloads run with one seed still draw unrelated inputs.
WORKLOAD_NAMES = ("rounds-greedy", "rounds-auction-learn", "stream-rush")

MB = float(2**20)


def derive_seeds(
    seed: int, name: str, instance: int = 0
) -> tuple[int, int, int]:
    """(market seed, arrival seed, run seed) for one workload instance."""
    salt = WORKLOAD_NAMES.index(name)
    state = np.random.SeedSequence([seed, salt, instance]).generate_state(3)
    return tuple(int(s) for s in state)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


#: Every per-layer metric and its unit.  A layer a workload does not
#: run reports 0 (see README.md for which layers each one exercises).
LAYER_UNITS = {
    "benefit.matrix_s": "s",
    "benefit.matrix_cells": "count",
    "benefit.matrix_alloc_mb": "MB",
    "benefit.rows_s": "s",
    "benefit.rows_calls": "count",
    "benefit.rows_cells": "count",
    "problem.self_s": "s",
    "core.assignment_s": "s",
    "solver.solve_s": "s",
    "solver.edges": "count",
    "solver.candidates": "count",
    "solver.useful_ratio": "ratio",
    "solver.gap_ub": "fraction",
    "solver.alloc_mb": "MB",
    "matching.auction_s": "s",
    "matching.auction_bids": "count",
    "matching.auction_phases": "count",
    "matching.bids_per_edge": "ratio",
    "crowd.answers_s": "s",
    "crowd.answers": "count",
    "crowd.aggregate_s": "s",
    "crowd.estimate_s": "s",
    "market.snapshot_s": "s",
    "market.retention_s": "s",
    "sim.self_share": "fraction",
    "stream.pool_s": "s",
    "stream.pool_entries": "count",
    "stream.decide_s": "s",
    "stream.notify_s": "s",
    "stream.commit_s": "s",
    "stream.ledger_s": "s",
    "stream.ledger_calls": "count",
    "stream.bus_events": "count",
    "stream.loop_share": "fraction",
    "stream.open_peak": "count",
    "stream.writer_s": "s",
    "stream.writer_bytes": "bytes",
    "stream.wait_p95": "tick",
    "stream.offpeak_gap_p50_us": "us",
    "stream.rush_gap_p50_us": "us",
    "stream.emit_gap_p99_us": "us",
    "obs.trace_overhead": "ratio",
    "obs.telemetry_s": "s",
    "host.calib_s": "s",
}

#: Count metrics that must repeat exactly between runs of one seed.
EXACT_COUNTS = (
    "benefit.matrix_cells",
    "benefit.rows_cells",
    "solver.candidates",
    "solver.edges",
    "matching.auction_bids",
    "stream.pool_entries",
    "stream.bus_events",
    "stream.open_peak",
)


def common_layers(clock, tracer) -> dict[str, float]:
    """The layer metrics every workload reports the same way."""
    s, work, calls = clock.self_s, clock.work, clock.calls
    counters = tracer.metrics.counters
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    metrics.update({
        "benefit.matrix_s": s["benefit.matrix"],
        "benefit.matrix_cells": work["benefit.matrix"],
        "benefit.rows_s": s["benefit.rows"] + s["benefit.rows_build"],
        "benefit.rows_calls": calls["benefit.rows"],
        "benefit.rows_cells": work["benefit.rows"],
        "problem.self_s": s["problem"],
        "core.assignment_s": s["core.assignment"],
        "solver.solve_s": s["solver"],
        "matching.auction_s": s["matching.auction"],
        "matching.auction_bids": counters.get("auction.bids", 0.0),
        "matching.auction_phases": counters.get("auction.phases", 0.0),
        "crowd.answers_s": s["crowd.answers"],
        "crowd.answers": work["crowd.answers"],
        "crowd.aggregate_s": s["crowd.aggregate"],
        "crowd.estimate_s": s["crowd.estimate"],
        "market.snapshot_s": s["market.snapshot"],
        "market.retention_s": s["market.retention"],
        "obs.telemetry_s": s["obs.telemetry"],
    })
    return metrics


class RoundsWorkload:
    """``Simulation.run`` on default synthetic markets.

    The workload holds :attr:`markets` markets drawn from its seed,
    each with its own run seed.  The quality metrics are means over all
    of them, so one market's luck does not set a seed's figures.  The
    untraced pass times the first :attr:`instances` of them; the traced
    pass uses the first.
    """

    markets = 16
    instances = 8

    def __init__(
        self,
        name: str,
        seed: int,
        n_workers: int,
        n_tasks: int,
        solver: str,
        n_rounds: int,
        aggregator: str,
        learn: bool,
    ) -> None:
        self.name = name
        seeds = [derive_seeds(seed, name, k) for k in range(self.markets)]
        self.market_seeds = [market for market, _unused, _run in seeds]
        self.run_seeds = [run for _market, _unused, run in seeds]
        self.config = SyntheticConfig(n_workers=n_workers, n_tasks=n_tasks)
        self.solver = solver
        self.n_rounds = n_rounds
        self.aggregator = aggregator
        self.learn = learn
        self.scenarios: list[Scenario] = []
        #: First result of each instance, which later runs must repeat.
        self.references: dict[int, object] = {}

    def setup(self) -> None:
        self.scenarios = [
            Scenario(
                market=generate_market(self.config, seed=market_seed),
                solver_name=self.solver,
                combiner=LinearCombiner(0.5),
                n_rounds=self.n_rounds,
                aggregator=self.aggregator,
                estimator=BetaSkillEstimator() if self.learn else None,
            )
            for market_seed in self.market_seeds
        ]

    def run(self, k: int, clock=None):
        return Simulation(self.scenarios[k]).run(seed=self.run_seeds[k])

    @staticmethod
    def _fingerprint(result) -> list[str]:
        # Everything but the host's solve wall time; repr keeps NaN
        # accuracies (empty rounds) comparable.
        return [
            repr(dataclasses.replace(r, solver_wall_time=0.0))
            for r in result.rounds
        ]

    def check(self, k: int, result) -> tuple[int, int]:
        """(rounds attempted, rounds failed) of one run of instance ``k``.

        A round fails when no solver tier served it or when it differs
        from the same round of the instance's first run.
        """
        reference = self.references.setdefault(k, result)
        ours = self._fingerprint(result)
        theirs = self._fingerprint(reference)
        failed = sum(
            1
            for i, r in enumerate(result.rounds)
            if r.fallback_tier == -1 or ours[i:i + 1] != theirs[i:i + 1]
        )
        return len(ours), failed + max(len(theirs) - len(ours), 0)

    def quality(self) -> dict[str, float]:
        """Quality metrics, each the mean over the markets."""
        per_instance = []
        for k, result in sorted(self.references.items()):
            slots = self.n_rounds * int(
                self.scenarios[k].market.task_replications().sum()
            )
            assigned = sum(r.n_assigned_edges for r in result.rounds)
            per_instance.append({
                "combined_benefit": float(
                    sum(r.combined_benefit for r in result.rounds)
                ),
                "fill_rate": assigned / slots,
                "mean_accuracy": result.mean_accuracy,
                "final_participation": result.final_participation,
            })
        return {
            name: float(np.mean([q[name] for q in per_instance]))
            for name in per_instance[0]
        }

    def layers(self, clock, tracer, result, wall: float):
        """Per-layer metrics of one traced run, and its failed rounds."""
        metrics = common_layers(clock, tracer)
        solves = clock.stash["solve"]
        edges = candidates = 0
        bound = achieved = 0.0
        infeasible = 0
        for problem, assignment in solves:
            n_edges, n_candidates, ub, value, ok = solve_audit(
                problem, assignment
            )
            edges += n_edges
            candidates += n_candidates
            bound += ub
            achieved += value
            infeasible += not ok
        metrics["solver.edges"] = edges
        metrics["solver.candidates"] = candidates
        metrics["solver.useful_ratio"] = (
            edges / candidates if candidates else 0.0
        )
        metrics["solver.gap_ub"] = (bound - achieved) / bound if bound else 0.0
        if edges:
            metrics["matching.bids_per_edge"] = (
                metrics["matching.auction_bids"] / edges
            )
        metrics["sim.self_share"] = max(wall - clock.covered, 0.0) / wall
        return metrics, infeasible


def solve_audit(problem, assignment):
    """(edges, usable positive edges, capacity-relaxed UB, value, ok).

    The bound relaxes one side's capacities at a time: every task
    takes its best ``replication`` usable edges, or every worker its
    best ``capacity`` ones; the smaller total bounds any feasible
    assignment.  ``ok`` is False on a duplicate pair or an exceeded
    capacity.
    """
    combined = problem.benefits.combined
    caps_w = problem.worker_capacities()
    caps_t = problem.task_capacities()
    usable = np.where(
        (combined > 0)
        & (caps_w[:, None] > 0)
        & (caps_t[None, :] > 0),
        combined,
        0.0,
    )
    by_column = -np.sort(-usable, axis=0)
    ranks = np.arange(usable.shape[0])[:, None]
    ub_tasks = float(by_column[ranks < caps_t[None, :]].sum())
    by_row = -np.sort(-usable, axis=1)
    ranks = np.arange(usable.shape[1])[None, :]
    ub_workers = float(by_row[ranks < caps_w[:, None]].sum())
    edges = list(assignment.edges)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    value = float(combined[pairs[:, 0], pairs[:, 1]].sum())
    load_w = np.bincount(pairs[:, 0], minlength=combined.shape[0])
    load_t = np.bincount(pairs[:, 1], minlength=combined.shape[1])
    ok = (
        len(set(edges)) == len(edges)
        and bool((load_w <= caps_w).all())
        and bool((load_t <= caps_t).all())
    )
    return (
        len(edges),
        int((usable > 0).sum()),
        min(ub_tasks, ub_workers),
        value,
        ok,
    )


class StreamWorkload:
    """A greedy ``StreamDispatcher`` drain through a demand spike."""

    #: One market: at this size the quality metrics barely move
    #: between seeds.
    markets = instances = 1

    #: Tasks: a quarter over [0, 100), half in the rush [100, 150),
    #: a quarter over [150, 250); workers uniform over [0, 250).
    SPAN = 250.0
    RUSH = (100.0, 150.0)

    def __init__(
        self,
        name: str,
        seed: int,
        n_workers: int,
        n_tasks: int,
        deadline: float,
        session: float,
        out_dir: Path,
    ) -> None:
        self.name = name
        self.market_seed, self.arrival_seed, self.run_seed = derive_seeds(
            seed, name
        )
        self.n_workers = n_workers
        self.n_tasks = n_tasks
        self.config = DispatchConfig(
            policy="greedy", deadline=deadline, session_length=session
        )
        self.out_path = out_dir / f"{name}.jsonl"
        self.dispatcher: StreamDispatcher | None = None
        #: Wall-clock stamp of every ``on_record`` call of the last run.
        self.stamps: list[float] = []
        self.reference = None

    def _traces(self) -> tuple[TraceArrivals, TraceArrivals]:
        rng = np.random.default_rng(self.arrival_seed)
        lo, hi = self.RUSH
        quarter = self.n_tasks // 4
        rush = self.n_tasks - 2 * quarter
        task_times = np.sort(np.concatenate([
            rng.uniform(0.0, lo, quarter),
            rng.uniform(lo, hi, rush),
            rng.uniform(hi, self.SPAN, quarter),
        ]))
        worker_times = np.sort(rng.uniform(0.0, self.SPAN, self.n_workers))
        tasks = TraceArrivals(rng.permutation(self.n_tasks), task_times)
        workers = TraceArrivals(
            rng.permutation(self.n_workers), worker_times
        )
        return tasks, workers

    def setup(self) -> None:
        market = generate_market(
            SyntheticConfig(n_workers=self.n_workers, n_tasks=self.n_tasks),
            seed=self.market_seed,
        )
        tasks, workers = self._traces()
        self.dispatcher = StreamDispatcher(
            market,
            self.config,
            combiner=LinearCombiner(0.5),
            task_arrivals=tasks,
            worker_arrivals=workers,
        )

    def run(self, k: int, clock=None):
        """One drain into a fresh JSONL file, as ``repro stream`` does."""
        self.out_path.unlink(missing_ok=True)
        stamps: list[float] = []
        stamp = stamps.append
        with BatchWriter(
            self.out_path, batch_size=self.config.writer_batch
        ) as writer:
            if clock is not None:
                wrap_writer(clock, writer)
            write = writer.write

            def on_record(record) -> None:
                stamp(perf_counter())
                write(record)

            result = self.dispatcher.run(seed=self.run_seed, on_record=on_record)
        self.stamps = stamps
        return result

    @staticmethod
    def _rows(result) -> list[tuple]:
        return [
            (r.time, r.worker_index, r.task_index, r.benefit, r.wait)
            for r in result.records
        ]

    def check(self, k: int, result) -> tuple[int, int]:
        """(records attempted, records failed) of one drain.

        The first drain is audited record by record; later drains must
        reproduce it exactly.
        """
        records = result.records
        if self.reference is None:
            self.reference = result
            return len(records), self._audit(result)
        ours, theirs = self._rows(result), self._rows(self.reference)
        failed = sum(1 for a, b in zip(ours, theirs) if a != b)
        return len(records), failed + abs(len(ours) - len(theirs))

    def _audit(self, result) -> int:
        market = self.dispatcher.market
        rows = RowwiseBenefit(market, combiner=self.dispatcher.combiner)
        deadline = self.config.deadline
        taken: set[int] = set()
        load: dict[int, int] = {}
        failed = 0
        for r in result.records:
            w, t = r.worker_index, r.task_index
            load[w] = load.get(w, 0) + 1
            bad = (
                r.benefit != rows.edge(w, t)
                or t in taken
                or load[w] > market.workers[w].capacity
                or not 0.0 <= r.wait <= deadline
            )
            taken.add(t)
            failed += bad
        with self.out_path.open() as lines:
            written = sum(1 for _line in lines)
        return failed + abs(written - len(result.records))

    def quality(self) -> dict[str, float]:
        result = self.reference
        market = self.dispatcher.market
        accuracy = [
            market.workers[r.worker_index].accuracy_on(
                market.tasks[r.task_index].category,
                market.tasks[r.task_index].difficulty,
            )
            for r in result.records
        ]
        served = {r.worker_index for r in result.records}
        return {
            "combined_benefit": float(result.combined_benefit),
            "fill_rate": result.fill_rate,
            "mean_accuracy": float(np.mean(accuracy)),
            "final_participation": len(served) / result.logins,
        }

    def latency(self, result) -> dict[str, float]:
        """Simulated wait and wall gaps between records, by phase."""
        stamps = np.asarray(self.stamps)
        gaps = np.diff(stamps) * 1e6
        times = np.array([r.time for r in result.records[1:]])
        lo, hi = self.RUSH
        rush = (times >= lo) & (times < hi)
        waits = [r.wait for r in result.records]
        return {
            "stream.wait_p95": percentile(waits, 95),
            "stream.offpeak_gap_p50_us": percentile(gaps[~rush], 50),
            "stream.rush_gap_p50_us": percentile(gaps[rush], 50),
            "stream.emit_gap_p99_us": percentile(gaps, 99),
        }

    def layers(self, clock, tracer, result, wall: float):
        metrics = common_layers(clock, tracer)
        s, work, calls = clock.self_s, clock.work, clock.calls
        metrics.update({
            "stream.pool_s": s["stream.pool"],
            "stream.pool_entries": work["stream.pool"],
            "stream.decide_s": s["stream.decide"],
            "stream.notify_s": s["stream.notify"],
            "stream.commit_s": s["stream.commit"],
            "stream.ledger_s": s["stream.ledger"],
            "stream.ledger_calls": calls["stream.ledger"],
            "stream.bus_events": calls["stream.decide"]
            + calls["stream.notify"],
            "stream.loop_share": max(wall - clock.covered, 0.0) / wall,
            "stream.open_peak": result.max_queue_depth,
            "stream.writer_s": s["stream.writer"],
            "stream.writer_bytes": self.out_path.stat().st_size,
        })
        return metrics, 0


def make_workload(name: str, seed: int, out_dir: Path):
    """The named workload at its benchmark size."""
    if name == "rounds-greedy":
        return RoundsWorkload(
            name, seed, n_workers=500, n_tasks=100, solver="greedy",
            n_rounds=5, aggregator="majority", learn=False,
        )
    if name == "rounds-auction-learn":
        return RoundsWorkload(
            name, seed, n_workers=300, n_tasks=75, solver="auction",
            n_rounds=4, aggregator="dawid-skene", learn=True,
        )
    if name == "stream-rush":
        return StreamWorkload(
            name, seed, n_workers=6_000, n_tasks=12_000, deadline=10.0,
            session=5.0, out_dir=out_dir,
        )
    raise ValueError(f"unknown workload {name!r}")
