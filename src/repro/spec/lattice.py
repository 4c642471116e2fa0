"""Enumerate and sample the valid scenario lattice of a spec.

A spec's ``[axes]`` section turns scalar knobs into swept dimensions;
the lattice is their cartesian product.  :func:`expand` enumerates it,
runs the full static checker on every point, and returns only the
checker-clean scenarios — invalid corners (a drift floor above its
ceiling, gold without an estimator) are *dropped and counted*, never
silently emitted.  :func:`sample` draws a seeded subset for CI smoke
runs where the full product is too much.

Every point carries a durable content-addressed id (``sc-`` plus
:func:`repro.obs.registry.content_id` over the effective knob values)
so sweep results, traces, and registry entries from different runs and
machines agree on which scenario they describe, plus a sparse payload
that recompiles to the identical scenario via
:func:`repro.spec.compile.compile_spec`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

from repro.obs.registry import content_id
from repro.spec.compile import (
    CheckResult,
    SpecError,
    _registry_diagnostics,
    check_spec,
    dump_spec,
    load_spec,
    normalize,
)
from repro.spec.constraints import RegistryView, SpecDiagnostic
from repro.spec.schema import NormalizedSpec
from repro.utils.rng import SeedLike, as_rng


def scenario_id(spec: NormalizedSpec) -> str:
    """Durable id of a concrete (axis-free) scenario.

    Content-addressed over the *effective* values of every declared
    knob, so the id survives file formatting, knob ordering, and
    explicit-vs-default spelling of the same configuration.
    """
    return "sc-" + content_id(spec.values)


@dataclass(frozen=True)
class LatticePoint:
    """One checker-clean scenario from an expanded spec."""

    id: str
    axis_values: dict[str, object]
    payload: dict
    spec: NormalizedSpec
    warnings: tuple[SpecDiagnostic, ...] = ()


@dataclass(frozen=True)
class DroppedPoint:
    """An enumerated combination the checker rejected."""

    axis_values: dict[str, object]
    diagnostics: tuple[SpecDiagnostic, ...]


@dataclass(frozen=True)
class Lattice:
    """The outcome of expanding one spec's axes."""

    base: NormalizedSpec
    points: tuple[LatticePoint, ...]
    dropped: tuple[DroppedPoint, ...]

    @property
    def enumerated(self) -> int:
        return len(self.points) + len(self.dropped)


def _point_spec(
    base: NormalizedSpec, assignment: dict[str, object]
) -> NormalizedSpec:
    """The base spec with one axis assignment pinned (axes consumed)."""
    values = dict(base.values)
    values.update(assignment)
    return NormalizedSpec(
        values=values,
        explicit=base.explicit | frozenset(assignment),
        axes={},
    )


def expand(source, view: RegistryView | None = None) -> Lattice:
    """Enumerate the spec's axis product, keeping checker-clean points.

    The base spec must be structurally sound (D1xx clean, registry
    names resolved — including every axis value); cross-parameter
    constraints are then judged *per point*, because whether a corner
    is valid depends on the full assignment, not the base.  Points come
    back in deterministic order: axes sorted by knob name, values in
    file order.
    """
    if isinstance(source, NormalizedSpec):
        spec, diagnostics = source, []
    else:
        payload = (
            load_spec(source)
            if isinstance(source, (str, Path))
            else source
        )
        spec, diagnostics = normalize(payload)
    if view is None:
        view = RegistryView.live()
    diagnostics = list(diagnostics)
    if spec is not None:
        diagnostics.extend(_registry_diagnostics(spec, view))
    errors = [d for d in diagnostics if d.severity == "error"]
    if spec is None or errors:
        raise SpecError(
            CheckResult(spec=spec, diagnostics=tuple(diagnostics)),
            source=str(source)
            if isinstance(source, (str, Path))
            else "spec",
        )

    names = sorted(spec.axes)
    combos = itertools.product(*(spec.axes[name] for name in names))
    points: list[LatticePoint] = []
    dropped: list[DroppedPoint] = []
    for combo in combos:
        assignment = dict(zip(names, combo))
        candidate = _point_spec(spec, assignment)
        result = check_spec(candidate, view=view)
        if result.ok:
            points.append(
                LatticePoint(
                    id=scenario_id(candidate),
                    axis_values=assignment,
                    payload=dump_spec(candidate),
                    spec=candidate,
                    warnings=result.warnings,
                )
            )
        else:
            dropped.append(
                DroppedPoint(
                    axis_values=assignment, diagnostics=result.errors
                )
            )
    return Lattice(
        base=spec, points=tuple(points), dropped=tuple(dropped)
    )


def sample(
    source,
    k: int,
    seed: SeedLike = None,
    view: RegistryView | None = None,
) -> Lattice:
    """A seeded size-``k`` subsample of :func:`expand`'s clean points.

    Sampling is without replacement over the already-filtered valid
    points (so the draw never spends budget on rejected corners) and
    deterministic given ``seed``; order follows the full enumeration.
    """
    lattice = expand(source, view=view)
    if k >= len(lattice.points):
        return lattice
    rng = as_rng(seed)
    chosen = sorted(
        rng.choice(len(lattice.points), size=k, replace=False).tolist()
    )
    return Lattice(
        base=lattice.base,
        points=tuple(lattice.points[i] for i in chosen),
        dropped=lattice.dropped,
    )
