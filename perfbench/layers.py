"""Per-layer timing from outside the program.

The traced pass wraps the public entry points of each ``repro`` module
at the name its caller looks up (a module global such as
``repro.sim.engine.simulate_answers``, or an instance/class attribute
for methods) and records, per layer:

* self time: the call's own wall time minus the time of the wrapped
  calls it encloses, so nested layers are never counted twice;
* calls and work counts (cells scored, pool entries, answers, ...);
* optionally (the separate allocation pass) the ``tracemalloc`` peak
  of each call, with the peak reset around every wrapped call.

Nothing under ``src/`` changes; :func:`instrument` patches for the
duration of a ``with`` block and restores every original on exit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import tracemalloc
from collections import defaultdict

perf_counter = time.perf_counter


class LayerClock:
    """Self time, calls, work counts and allocation peaks per layer."""

    def __init__(self, alloc: bool = False) -> None:
        self.alloc = alloc
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, float] = defaultdict(float)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        #: Wall time inside outermost wrapped calls (everything else in
        #: a run is the caller's own, unattributed time).
        self.covered = 0.0
        #: Objects a layer hands to post-run analysis (kept out of the
        #: timed calls so the analysis never shows up as layer time).
        self.stash: dict[str, list] = defaultdict(list)
        self._stack: list[list[float]] = []

    def wrap(self, layer: str, fn, work=None, layer_of=None):
        """``fn`` timed as ``layer``.

        ``work(result, *args, **kwargs)`` returns a count added to
        ``self.work[layer]``; ``layer_of(*args)`` picks the layer per
        call (used for the event bus, whose cost depends on the kind).
        """
        if self.alloc:
            return self._wrap_alloc(layer, fn, layer_of)
        clock = self
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        works = self.work

        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                name = layer if layer_of is None else layer_of(*args)
                self_s[name] += elapsed - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    clock.covered += elapsed
            if work is not None:
                works[layer] += work(result, *args, **kwargs)
            return result

        return timed

    def _wrap_alloc(self, layer: str, fn, layer_of):
        """``fn`` with its own ``tracemalloc`` peak recorded per call.

        The peak is reset on entry, so a call's figure is its own; the
        enclosing call's running peak is saved first and merged back
        on its exit, so resetting inside a child never hides the
        parent's earlier high-water mark.
        """
        stack = self._stack
        peaks = self.alloc_peak

        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                parent = stack[-1]
                parent[1] = max(parent[1], peak)
            tracemalloc.reset_peak()
            frame = [float(current), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                _current, peak = tracemalloc.get_traced_memory()
                peak = max(peak, frame[1])
                name = layer if layer_of is None else layer_of(*args)
                peaks[name] = max(peaks[name], int(peak - frame[0]))
                if stack:
                    stack[-1][1] = max(stack[-1][1], peak)

        return traced


class Patches:
    """Attribute patches undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def method(self, clock: LayerClock, cls, name: str, layer: str, **kw):
        self.set(cls, name, clock.wrap(layer, cls.__dict__[name], **kw))

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _cells(result, *args, **kwargs) -> int:
    return int(result.combined.size)


def _first_len(result, _self, indices, *args, **kwargs) -> int:
    return len(indices)


def _edges_arg(result, market, edges, *args, **kwargs) -> int:
    return len(edges)


def _pool_len(result, *args, **kwargs) -> int:
    return len(result[0]) if isinstance(result, tuple) else len(result)


_DECIDE_KINDS = frozenset({"task-posted", "worker-login"})


def _bus_layer(event, *args) -> str:
    return "stream.decide" if event.kind in _DECIDE_KINDS else "stream.notify"


@contextlib.contextmanager
def instrument(clock: LayerClock):
    """Patch every layer boundary the workloads cross."""
    import repro.core.problem as problem_mod
    import repro.core.solvers.auction_solver as auction_mod
    import repro.sim.engine as engine
    import repro.stream.dispatch as dispatch
    from repro.core.problem import MBAProblem
    from repro.crowd.estimation import BetaSkillEstimator
    from repro.market.retention import RetentionModel

    patches = Patches()

    # -- the round loop (repro.sim.engine and what it calls) -------------
    patches.set(
        engine, "LaborMarket",
        clock.wrap("market.snapshot", engine.LaborMarket),
    )
    patches.set(engine, "MBAProblem", clock.wrap("problem", MBAProblem))
    patches.method(
        clock, MBAProblem, "require_nonempty_feasible", "problem"
    )
    patches.set(
        problem_mod, "build_benefit_matrices",
        clock.wrap(
            "benefit.matrix", problem_mod.build_benefit_matrices,
            work=_cells,
        ),
    )
    real_get_solver = engine.get_solver

    def get_solver(name, **kwargs):
        solver = real_get_solver(name, **kwargs)

        def stash(result, problem, *args, **kwargs) -> int:
            clock.stash["solve"].append((problem, result))
            return 0

        solver.solve = clock.wrap("solver", solver.solve, work=stash)
        return solver

    patches.set(engine, "get_solver", get_solver)
    patches.set(
        auction_mod, "auction_assignment",
        clock.wrap("matching.auction", auction_mod.auction_assignment),
    )
    patches.set(
        engine, "simulate_answers",
        clock.wrap(
            "crowd.answers", engine.simulate_answers, work=_edges_arg
        ),
    )
    real_get_aggregator = engine.get_aggregator

    def get_aggregator(name):
        spec = real_get_aggregator(name)
        return dataclasses.replace(
            spec, run=clock.wrap("crowd.aggregate", spec.run)
        )

    patches.set(engine, "get_aggregator", get_aggregator)
    patches.set(
        engine, "Assignment",
        clock.wrap("core.assignment", engine.Assignment),
    )
    patches.set(
        engine, "benefit_gini",
        clock.wrap("core.assignment", engine.benefit_gini),
    )
    for name in ("estimated_market", "record_answers"):
        patches.method(clock, BetaSkillEstimator, name, "crowd.estimate")
    for name in ("record_round", "apply"):
        patches.method(clock, RetentionModel, name, "market.retention")

    # -- the stream drain (repro.stream.dispatch and what it builds) -----
    real_rows = dispatch.RowwiseBenefit
    real_bus = dispatch.EventBus
    real_runtime = dispatch.DispatchRuntime
    real_ledger = dispatch.SessionLedger

    def rowwise_benefit(*args, **kwargs):
        rows = clock.wrap("benefit.rows_build", real_rows)(*args, **kwargs)
        for name in ("row", "column"):
            setattr(
                rows, name,
                clock.wrap(
                    "benefit.rows", getattr(rows, name), work=_first_len
                ),
            )
        return rows

    class _Bus(real_bus):
        """The program's bus, with an instance ``__dict__`` to patch."""

    def event_bus():
        bus = _Bus()
        bus.publish = clock.wrap(
            "stream.decide", bus.publish, layer_of=_bus_layer
        )
        return bus

    def session_ledger():
        ledger = real_ledger()
        for name in ("login", "logout", "capacity", "consume", "online"):
            setattr(
                ledger, name,
                clock.wrap("stream.ledger", getattr(ledger, name)),
            )
        return ledger

    def dispatch_runtime(*args, **kwargs):
        runtime = real_runtime(*args, **kwargs)
        for name in ("open_arrays", "online_array"):
            setattr(
                runtime, name,
                clock.wrap(
                    "stream.pool", getattr(runtime, name), work=_pool_len
                ),
            )
        runtime.assign = clock.wrap("stream.commit", runtime.assign)
        return runtime

    patches.set(dispatch, "RowwiseBenefit", rowwise_benefit)
    patches.set(dispatch, "EventBus", event_bus)
    patches.set(dispatch, "SessionLedger", session_ledger)
    patches.set(dispatch, "DispatchRuntime", dispatch_runtime)
    try:
        yield clock
    finally:
        patches.restore()


def wrap_store(clock: LayerClock, store) -> None:
    """Time the live-telemetry store's public methods as one layer."""
    for name in ("count", "gauge", "observe", "extend", "bucket_time"):
        setattr(
            store, name, clock.wrap("obs.telemetry", getattr(store, name))
        )


def wrap_writer(clock: LayerClock, writer) -> None:
    """Time the record writer's public methods as one layer."""
    for name in ("write", "flush", "close"):
        setattr(
            writer, name, clock.wrap("stream.writer", getattr(writer, name))
        )
