"""Linter configuration: rule selection, layering table, whitelists.

The defaults encode this repository's invariants; tests construct
custom configs to exercise rules in isolation.  Inline suppression
uses a pragma comment on the offending line::

    value = rng.random()  # lint: allow[R105]

``allow`` with no bracket suppresses every rule on that line.  The
pragma is deliberately loud — greppable, reviewable, and counted by
``python -m repro lint --stats``-style tooling later.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field

#: Layers that must never be imported by the algorithmic core.  Keys
#: are the top package component under ``repro``; values are forbidden
#: component sets.  ``eval``/``sim``/``benchmarks`` sit *above* the
#: core in the dependency DAG: letting the core reach up would create
#: cycles and drag plotting/IO machinery into every solver import.
DEFAULT_FORBIDDEN_IMPORTS: Mapping[str, frozenset[str]] = {
    "core": frozenset(
        {"eval", "sim", "benchmarks", "resilience", "perf", "spec", "stream"}
    ),
    "matching": frozenset(
        {"eval", "sim", "benchmarks", "resilience", "perf", "spec", "stream"}
    ),
    "benefit": frozenset(
        {"eval", "sim", "benchmarks", "resilience", "perf", "spec", "stream"}
    ),
    # ``repro.stream`` sits beside ``repro.sim``: it may use the core,
    # matching, benefit, market, and (lazily) sim layers, but nothing
    # operational above it — the CLI drives it, the eval/bench layers
    # measure it, the lint layer audits it.
    "stream": frozenset({"eval", "benchmarks", "cli", "lint"}),
    # ``repro.obs`` must be importable from *anywhere* — solvers and
    # simulators alike call into it — so it may depend on nothing above
    # the utils layer: only ``utils``, ``errors``, and itself.
    "obs": frozenset({
        "benchmarks", "benefit", "cli", "core", "crowd", "datagen",
        "eval", "io", "lint", "market", "matching", "perf",
        "resilience", "sim", "spec", "stream", "types",
    }),
}

#: Modules (package prefixes) where broad ``except Exception`` is the
#: *job*: the resilience layer exists to contain arbitrary solver
#: crashes and convert them into recorded, degraded rounds.  Everywhere
#: else R501 demands catching concrete :class:`repro.errors.ReproError`
#: subtypes.
DEFAULT_BROAD_EXCEPT_ALLOWED: frozenset[str] = frozenset(
    {"repro.resilience"}
)

#: Modules that produce *durable* artifacts (saved markets and
#: results, BENCH json, registered traces, checkpoints).  R503 forbids
#: raw write-mode ``open`` / ``Path.write_text`` / ``write_bytes``
#: there: a crash mid-write leaves a truncated file that a later
#: ``--resume`` or ``obs diff`` trusts, so every durable write must go
#: through :mod:`repro.utils.atomic` (write-then-rename).  Append-mode
#: opens stay legal — appending one line is the correct primitive for
#: the registry's index log.
DEFAULT_DURABLE_WRITE_MODULES: frozenset[str] = frozenset(
    {
        "repro.io",
        "repro.perf",
        "repro.obs.export",
        "repro.obs.registry",
        # Alert logs and collapsed-stack profiles are CI artifacts and
        # monitor-gate evidence; a truncated one reads as "no alerts".
        "repro.obs.slo",
        "repro.obs.profile",
        "repro.resilience.runtime",
    }
)

#: Packages whose inner loops are performance-critical: R601 flags
#: scalar Python accumulation over array subscripts there, because the
#: same reduction written as a numpy gather is orders of magnitude
#: faster and these modules sit inside every solver call.  The perf
#: harness is included because its reference reductions time the shard
#: suites at n=10k, where a scalar loop would dominate the measurement.
DEFAULT_PERF_HOT_MODULES: frozenset[str] = frozenset(
    {
        "repro.matching",
        "repro.core.solvers",
        "repro.obs",
        "repro.perf",
        # The dispatch loop runs per arrival event at |W|,|T| = 1e5;
        # a scalar accumulation there multiplies by the event count.
        "repro.stream",
        # Every round's benefit matrices and every streamed row come
        # from one broadcast formula per side; a per-pair loop there
        # multiplies by |W|·|T|.
        "repro.benefit",
    }
)

#: Module prefixes inside the hot set where scalar loops are the
#: *point* — reference implementations kept deliberately loop-shaped
#: so the vectorized hot paths have an independent oracle.
DEFAULT_PERF_LOOP_ALLOWED: frozenset[str] = frozenset(
    {"repro.matching.reference"}
)

#: ``repro.utils`` is the bottom layer: it may import other ``utils``
#: modules and the shared exception hierarchy, nothing else.
DEFAULT_UTILS_ALLOWED: frozenset[str] = frozenset({"utils", "errors"})

_PRAGMA = re.compile(
    r"#\s*lint:\s*allow(?:\[(?P<ids>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass(frozen=True)
class LintConfig:
    """Immutable knob set threaded through the engine and every rule."""

    #: When non-``None``, only these rule ids run.
    select: frozenset[str] | None = None
    #: Rule ids that never run (applied after ``select``).
    ignore: frozenset[str] = frozenset()
    #: The one module allowed to touch raw RNG constructors.
    rng_module: str = "repro.utils.rng"
    #: Layer -> forbidden top-level components under ``repro``.
    forbidden_imports: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_FORBIDDEN_IMPORTS)
    )
    #: Components ``repro.utils`` may import from ``repro``.
    utils_allowed: frozenset[str] = DEFAULT_UTILS_ALLOWED
    #: Modules where float ``==`` is accepted wholesale (rarely right;
    #: prefer the line pragma).
    float_eq_modules: frozenset[str] = frozenset()
    #: Module/package prefixes exempt from R501's broad-except ban.
    broad_except_allowed: frozenset[str] = DEFAULT_BROAD_EXCEPT_ALLOWED
    #: Module/package prefixes whose file writes R503 requires to be
    #: atomic (write-then-rename via ``repro.utils.atomic``).
    durable_write_modules: frozenset[str] = DEFAULT_DURABLE_WRITE_MODULES
    #: Package prefixes R601 watches for scalar accumulation loops.
    perf_hot_modules: frozenset[str] = DEFAULT_PERF_HOT_MODULES
    #: Prefixes inside the hot set exempt from R601 (reference
    #: implementations that are scalar on purpose).
    perf_loop_allowed: frozenset[str] = DEFAULT_PERF_LOOP_ALLOWED
    #: Module holding the ``Scenario`` dataclass R701/R704 audit
    #: against the spec schema.
    spec_scenario_module: str = "repro.sim.scenario"
    #: Module holding the CLI parser R702 audits for unbound flags.
    spec_cli_module: str = "repro.cli"
    #: Module holding the constraint catalogue R703 audits for
    #: undeclared knob references.
    spec_constraints_module: str = "repro.spec.constraints"

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        if self.select is not None:
            return rule_id in self.select
        return True

    @staticmethod
    def line_suppresses(source_line: str, rule_id: str) -> bool:
        """True when the line carries a pragma covering ``rule_id``."""
        match = _PRAGMA.search(source_line)
        if match is None:
            return False
        ids = match.group("ids")
        if ids is None:
            return True
        return rule_id in {part.strip() for part in ids.split(",")}
