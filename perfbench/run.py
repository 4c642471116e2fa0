"""End-to-end and per-layer benchmark of the ``repro`` package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rounds-greedy --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` adds traced and allocation passes and reports
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any output
check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "combined_benefit": "benefit",
    "fill_rate": "fraction",
    "mean_accuracy": "fraction",
    "final_participation": "fraction",
}

#: Set-ups per invocation, at least (setup_s is their median).
SETUP_REPEATS = 5
#: Cycles per invocation, at least, however long they take; a cycle
#: runs every instance of the workload once.
MIN_CYCLES = 3

perf_counter = time.perf_counter


def calibrate() -> float:
    """Wall time of a fixed mix of pure-Python and numpy work.

    Recorded next to every run so host drift is visible; it never
    rescales a metric.
    """
    import numpy as np

    start = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    values = np.sin(np.arange(200_000, dtype=float))
    np.sort(values)
    (values[:400].reshape(20, 20) @ values[400:800].reshape(20, 20)).sum()
    return perf_counter() - start


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {error}")
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"perfbench: repro resolved to {origin}, not under {SRC}")


def timed(fn):
    gc.collect()
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


def median(values) -> float:
    import statistics

    return float(statistics.median(values))


def report(metrics: dict, units: dict) -> dict:
    return {
        name: {"value": float(metrics[name]), "unit": unit}
        for name, unit in units.items()
    }


def measure(workload, seconds: float) -> tuple[dict, dict, int, int]:
    """Untraced pass: (end-to-end metrics, extra lines, attempted, failed).

    Every market of the workload runs once, untimed: the first run is
    the warm-up, and each market's run is its reference for the checks
    and the quality metrics.  Then the pass runs in cycles until
    ``seconds`` have passed, at least ``MIN_CYCLES`` of them.  A cycle
    sets the workload up afresh (timed: ``setup_s`` is the median over
    the set-ups) and runs each of its timed instances once, so every
    instance is timed several times, spread over the whole pass.

    ``run_s`` is the mean over the instances of each one's fastest run.
    A run does a fixed, seeded amount of work; other tenants of a
    shared host only ever add to its wall time, for stretches of
    several seconds, so the fastest of runs spread over the pass is
    the steadiest estimate of the program's own cost.  The median over
    all runs is printed next to it.
    """
    workload.setup()
    attempted = failed = 0
    for k in range(workload.markets):
        more, bad = workload.check(k, workload.run(k))
        attempted += more
        failed += bad
    setups, calibs, latencies = [], [], []
    runs = [[] for _unused in range(workload.instances)]
    deadline = perf_counter() + seconds
    cycles = 0
    while cycles < MIN_CYCLES or perf_counter() < deadline:
        cycles += 1
        _unused, elapsed = timed(workload.setup)
        setups.append(elapsed)
        for k in range(workload.instances):
            calibs.append(calibrate())
            result, elapsed = timed(lambda: workload.run(k))
            runs[k].append(elapsed)
            more, bad = workload.check(k, result)
            attempted += more
            failed += bad
            if hasattr(workload, "latency"):
                latencies.append(workload.latency(result))
    while len(setups) < SETUP_REPEATS:
        _unused, elapsed = timed(workload.setup)
        setups.append(elapsed)
    every_run = [elapsed for times in runs for elapsed in times]
    metrics = {
        "setup_s": median(setups),
        "run_s": sum(min(times) for times in runs) / len(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **workload.quality(),
    }
    extra = {
        "markets": workload.markets,
        "instances": workload.instances,
        "cycles": cycles,
        "runs": len(every_run),
        "setups": len(setups),
        "host.calib_s": median(calibs),
        "run_s.median": median(every_run),
        "run_s.min": min(every_run),
        "run_s.max": max(every_run),
    }
    for key in latencies[0] if latencies else ():
        extra[key] = median([lat[key] for lat in latencies])
    return metrics, extra, attempted, failed


def measure_layers(workload, seconds: float) -> tuple[dict, dict, int, int]:
    """Traced pass: (per-layer metrics, extra lines, attempted, failed).

    Every run is of the workload's first instance.  Untraced and
    traced runs alternate until ``seconds`` have passed (at least one
    each); then one allocation pass runs under ``tracemalloc``.  Times
    are medians over the traced runs, counts come from the first one
    and must repeat exactly in the others.
    """
    from repro import obs

    from layers import LayerClock, instrument, wrap_store
    from workloads import EXACT_COUNTS, LAYER_UNITS

    workload.setup()
    attempted, failed = workload.check(0, workload.run(0))
    plain, traced, calibs, latencies = [], [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        calibs.append(calibrate())
        result, elapsed = timed(lambda: workload.run(0))
        plain.append(elapsed)
        if hasattr(workload, "latency"):
            latencies.append(workload.latency(result))
        more, bad = workload.check(0, result)
        attempted += more
        failed += bad

        calibs.append(calibrate())
        clock = LayerClock()
        tracer = obs.Tracer()
        with obs.tracing(tracer), instrument(clock):
            wrap_store(clock, obs.timeseries_store())
            result, elapsed = timed(lambda: workload.run(0, clock))
        layers, infeasible = workload.layers(clock, tracer, result, elapsed)
        layers["wall"] = elapsed
        traced.append(layers)
        more, bad = workload.check(0, result)
        attempted += more
        failed += max(bad, infeasible)

    clock = LayerClock(alloc=True)
    tracemalloc.start()
    try:
        with instrument(clock):
            workload.run(0, clock)
    finally:
        tracemalloc.stop()

    first = traced[0]
    for later in traced[1:]:
        failed += sum(first[name] != later[name] for name in EXACT_COUNTS)
    # Times and time shares vary run to run; everything else is a count
    # or a ratio of counts, which the exactness check above pins.
    metrics = {
        name: (
            median([t[name] for t in traced])
            if unit == "s" or name in ("sim.self_share", "stream.loop_share")
            else first[name]
        )
        for name, unit in LAYER_UNITS.items()
    }
    metrics["benefit.matrix_alloc_mb"] = (
        clock.alloc_peak["benefit.matrix"] / 2**20
    )
    metrics["solver.alloc_mb"] = clock.alloc_peak["solver"] / 2**20
    metrics["obs.trace_overhead"] = (
        median([t["wall"] for t in traced]) / median(plain) - 1.0
    )
    metrics["host.calib_s"] = median(calibs)
    for key in latencies[0] if latencies else ():
        metrics[key] = median([lat[key] for lat in latencies])
    extra = {
        "untraced_runs": len(plain),
        "traced_runs": len(traced),
        "traced_run_s": median([t["wall"] for t in traced]),
        "untraced_run_s": median(plain),
    }
    return metrics, extra, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import HELD_OUT_SEED, LAYER_UNITS, make_workload

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, out_dir)
        if args.trace:
            metrics, extra, attempted, failed = measure_layers(
                workload, args.seconds
            )
            units = LAYER_UNITS
        else:
            metrics, extra, attempted, failed = measure(
                workload, args.seconds
            )
            units = E2E_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    print(
        f"workload={args.workload} seed={args.seed} "
        f"held_out_seed={HELD_OUT_SEED} trace={args.trace} "
        f"seconds={args.seconds:g}"
    )
    for key, value in extra.items():
        print(f"  {key:<28} {value:.6g} {LAYER_UNITS.get(key, '')}".rstrip())
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:.6g} {unit}")
    correct = failed == 0 and all(
        math.isfinite(float(metrics[name])) for name in units
    )
    print(f"  attempted={attempted} failed={failed} correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report(metrics, units),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
