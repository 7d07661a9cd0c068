"""Hot-path regression benchmark: cached-artifact fast path vs reference.

Times steady-state ``FlashFFTStencil.apply()`` and ``run()`` on 1-D/2-D/3-D
Table-3 workloads (validation scale) against the preserved reference path
(`SegmentPlan._split_reference` / ``_fuse_reference`` / ``_stitch_reference``
plus per-call tail-plan reconstruction), writes ``BENCH_hotpath.json``
(ns/point, GStencil/s, speedups), and **asserts** the fast path wins by a
measured margin — a regression gate for the engine's hottest loop.

Each workload additionally runs once with a :class:`repro.observability.
Telemetry` sink attached: the per-stage breakdown (split/fuse/stitch/
boundary_fix/tail), counter-vs-geometry cross-check, cache stats, and the
telemetry-enabled overhead ratio land in each workload's ``telemetry``
block of the report.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full gate
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # CI smoke

The fast path's wins, mapped to the paper: cached split/stitch index sets
and cached spectra are the §3.1 aux-data-reuse discipline applied host-side;
the rFFT fuse halves transform flops the way the real-input Double-layer
packing (§3.2.3) halves passes; the plan cache amortises setup across
batched executions the way §3.3 amortises fragment loads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.kernels import spectrum_cache_clear, spectrum_cache_info
from repro.core.plan import FlashFFTStencil, plan_cache_clear, plan_cache_info
from repro.observability import Telemetry
from repro.workloads.configs import workload_by_name

from _workloads import HEAT_CASES

#: (workload name, tile override, fused steps) — one row per dimensionality
#: by default; ``--full`` adds the remaining Table-3 rows.  The heat rows
#: come from the shared benchmark workload table (``_workloads.py``).
_HEAT_1D, _HEAT_2D, _HEAT_3D = HEAT_CASES
HOTPATH_CASES: tuple[tuple[str, tuple[int, ...] | None, int], ...] = (
    _HEAT_1D,
    ("1D5P", None, 6),
    ("1D7P", None, 4),
    _HEAT_2D,
    ("Box-2D9P", (32, 32), 4),
    _HEAT_3D,
    ("Box-3D27P", (16, 16, 16), 2),
)
DEFAULT_CASES = tuple(name for name, _, _ in HEAT_CASES)


def _time_ms(fn, reps: int, warmup: int = 5) -> float:
    """Median wall time of ``fn()`` in milliseconds.

    Warmup iterations let caches fill and the allocator settle before any
    sample is taken; the median of ``reps`` samples (rather than a mean or
    a single shot) keeps one scheduler hiccup from flipping the speedup
    gate on shared CI runners.
    """
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _telemetry_section(
    plan: FlashFFTStencil,
    x,
    total_steps: int,
    fused_steps: int,
    run_fast_ms: float,
    reps: int,
    warmup: int,
) -> dict:
    """One telemetry-enabled ``run()``: per-stage breakdown + overhead.

    Returns the stage seconds (leaf spans), the span coverage of wall time,
    the geometry cross-check (windows == segments x applications, with the
    remainder tail counted at its own geometry), and the enabled-telemetry
    median overhead vs the plain fast path.
    """
    tel = Telemetry()
    t0 = time.perf_counter()
    plan.run(x, total_steps, telemetry=tel)
    wall_s = time.perf_counter() - t0
    stage_s = tel.stage_seconds()
    snap = tel.snapshot()

    full, rem = divmod(total_steps, fused_steps)
    windows_expected = full * plan.segments.total_segments
    if rem:
        from repro.core.plan import _cached_plan

        tail = _cached_plan(
            plan.grid_shape,
            plan.kernel,
            rem,
            plan.segments.boundary,
            plan.gpu,
            plan.config,
            plan._tile_override,
        )
        windows_expected += tail.segments.total_segments

    run_telemetry_ms = _time_ms(
        lambda: plan.run(x, total_steps, telemetry=Telemetry()), reps, warmup
    )
    return {
        "wall_ms": round(wall_s * 1e3, 4),
        "stage_ms": {k: round(v * 1e3, 4) for k, v in stage_s.items()},
        "stage_coverage": round(sum(stage_s.values()) / wall_s, 4) if wall_s else 0.0,
        "counters": snap["counters"],
        "caches": snap["caches"],
        "windows_expected": windows_expected,
        "windows_counted": snap["counters"].get("windows", 0),
        "geometry_ok": snap["counters"].get("windows", 0) == windows_expected,
        "enabled_overhead": round(run_telemetry_ms / run_fast_ms, 4)
        if run_fast_ms
        else None,
    }


def bench_case(
    name: str,
    tile: tuple[int, ...] | None,
    fused_steps: int,
    reps: int,
    warmup: int,
) -> dict:
    """Benchmark one workload: steady-state apply() and run()-with-remainder."""
    w = workload_by_name(name)
    shape = w.validation_shape
    x = np.random.default_rng(0xF457).standard_normal(shape)
    plan = FlashFFTStencil(shape, w.kernel, fused_steps=fused_steps, tile=tile)

    # Numerical gate first: the fast path must match the reference path.
    err = float(np.max(np.abs(plan.apply(x) - plan.apply_reference(x))))
    if err > 1e-12:
        raise AssertionError(f"{name}: fast path deviates from reference by {err:.3e}")

    points = int(np.prod(shape))
    total_steps = 2 * fused_steps + 1  # exercises the remainder tail plan

    apply_fast = _time_ms(lambda: plan.apply(x), reps, warmup)
    apply_ref = _time_ms(lambda: plan.apply_reference(x), reps, warmup)
    plan.run(x, total_steps)  # prime the tail-plan cache: steady state
    run_fast = _time_ms(lambda: plan.run(x, total_steps), reps, warmup)
    run_ref = _time_ms(lambda: plan.run_reference(x, total_steps), reps, warmup)

    def _rates(ms: float, steps: int) -> dict:
        stencil_updates = points * steps
        return {
            "ms": round(ms, 4),
            "ns_per_point": round(ms * 1e6 / stencil_updates, 3),
            "gstencil_per_s": round(stencil_updates / (ms * 1e-3) / 1e9, 4),
        }

    return {
        "name": w.name,
        "kernel": w.kernel_name,
        "ndim": len(shape),
        "grid_shape": list(shape),
        "fused_steps": fused_steps,
        "tile": list(tile) if tile is not None else None,
        "apply": {
            "fast": _rates(apply_fast, fused_steps),
            "reference": _rates(apply_ref, fused_steps),
            "speedup": round(apply_ref / apply_fast, 3),
        },
        "run": {
            "total_steps": total_steps,
            "fast": _rates(run_fast, total_steps),
            "reference": _rates(run_ref, total_steps),
            "speedup": round(run_ref / run_fast, 3),
        },
        "telemetry": _telemetry_section(
            plan, x, total_steps, fused_steps, run_fast, reps, warmup
        ),
        "max_abs_error_vs_reference": err,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="all Table-3 rows")
    ap.add_argument("--quick", action="store_true", help="CI smoke: fewer reps")
    ap.add_argument("--reps", type=int, default=None, help="timing repetitions")
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=1.2,
        help="hard floor every workload's run() speedup must clear",
    )
    ap.add_argument(
        "--no-target-check",
        action="store_true",
        help="skip the 2x 1-D/2-D steady-state target assertion",
    )
    ap.add_argument(
        "--warmup",
        type=int,
        default=None,
        help="warmup iterations before each timed section (default: 2 quick, 5 full)",
    )
    ap.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_hotpath.json",
    )
    args = ap.parse_args(argv)
    reps = args.reps if args.reps is not None else (3 if args.quick else 15)
    if reps < 1:
        ap.error(f"--reps must be >= 1, got {reps}")
    warmup = args.warmup if args.warmup is not None else (2 if args.quick else 5)
    if warmup < 0:
        ap.error(f"--warmup must be >= 0, got {warmup}")

    plan_cache_clear()
    spectrum_cache_clear()
    names = None if args.full else DEFAULT_CASES
    results = [
        bench_case(name, tile, fused, reps, warmup)
        for name, tile, fused in HOTPATH_CASES
        if names is None or name in names
    ]

    report = {
        "benchmark": "hotpath",
        "reps": reps,
        "warmup": warmup,
        "min_speedup_floor": args.min_speedup,
        "plan_cache": plan_cache_info(),
        "spectrum_cache": spectrum_cache_info(),
        "workloads": results,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    hdr = f"{'workload':<12}{'ndim':>5}{'apply x':>9}{'run x':>8}{'ns/pt':>9}{'GSt/s':>9}"
    print(hdr)
    print("-" * len(hdr))
    for r in results:
        print(
            f"{r['name']:<12}{r['ndim']:>5}{r['apply']['speedup']:>9.2f}"
            f"{r['run']['speedup']:>8.2f}{r['run']['fast']['ns_per_point']:>9.1f}"
            f"{r['run']['fast']['gstencil_per_s']:>9.3f}"
        )
    print(f"wrote {args.output}")

    failures = [
        f"{r['name']}: run speedup {r['run']['speedup']:.2f} < {args.min_speedup}"
        for r in results
        if r["run"]["speedup"] < args.min_speedup
    ]
    failures.extend(
        f"{r['name']}: telemetry windows counter {r['telemetry']['windows_counted']}"
        f" != plan geometry {r['telemetry']['windows_expected']}"
        for r in results
        if not r["telemetry"]["geometry_ok"]
    )
    if not args.no_target_check:
        # Acceptance target: >= 2x steady-state run() on at least one 1-D
        # and one 2-D Table-3 workload.
        for ndim in (1, 2):
            dim_best = max(
                (r["run"]["speedup"] for r in results if r["ndim"] == ndim),
                default=0.0,
            )
            if dim_best < 2.0:
                failures.append(
                    f"best {ndim}-D run() speedup {dim_best:.2f} < 2.0 target"
                )
    if failures:
        print("HOTPATH REGRESSION:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("hot-path gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
