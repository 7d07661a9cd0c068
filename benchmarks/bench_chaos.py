"""Chaos benchmark: deterministic fault injection under live serving load.

The fault-isolation acceptance gate for the serving layer.  Two
segments, one report (``BENCH_chaos.json``):

1. **Open-loop serving chaos** — a request stream is driven through a
   live :class:`~repro.serving.StencilServer` while poisoned requests
   (admission-passing grids that overflow mid-run) are injected.  Gates:
   availability (>= 99% of healthy requests answered), correctness
   (every answered response ``np.array_equal`` to the serial reference),
   and every poisoned request failed in isolation by bisection.
2. **Overhead gate** — the fault-tolerance plumbing must be free when
   unused, gated with the ``bench_robustness`` interleaved best-of <= 10%
   methodology: ``plan.run`` with a guards-off robustness config vs the
   plain ``robustness=None`` path, and ``serve_batch`` with output guards
   on vs off.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_chaos.py           # full gate
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil, plan_cache_clear
from repro.observability import Telemetry
from repro.parallel.batch import serve_batch
from repro.robustness import GUARDS_OFF, GuardPolicy, RobustnessConfig
from repro.serving import ServingConfig, StencilServer

#: Overhead ceiling for the plain serving path vs raw ``run_many``
#: (interleaved best-of ratio; quick mode loosens it for noisy CI boxes).
OVERHEAD_CEILING = 1.10
OVERHEAD_CEILING_QUICK = 1.35

#: The whole serving chaos run, bisections included, must finish within
#: this wall-time budget.
RECOVERY_CEILING_MS = 5_000.0
RECOVERY_CEILING_MS_QUICK = 10_000.0

#: Serving availability floor: fraction of healthy requests answered.
AVAILABILITY_FLOOR = 0.99

ENGINE_SHAPE = (256,)
ENGINE_TILE = (32,)
ENGINE_FUSED = 4

SERVE_SHAPE = (48, 48)
SERVE_FUSED = 2
SERVE_STEPS = 4
#: Open-loop requests arrive in bursts of this many.  The server
#: dispatches as soon as it is idle, so only requests that arrive
#: together (or during a running batch) share a batch; bursts make the
#: multi-request batches that bisection must undo.
SERVE_BURST = 4


def _engine_plan() -> FlashFFTStencil:
    return FlashFFTStencil(
        ENGINE_SHAPE,
        kz.heat_1d(),
        fused_steps=ENGINE_FUSED,
        tile=ENGINE_TILE,
        boundary="periodic",
        workers=1,
    )


# ------------------------------------------------------------ segment 1


async def _drive_open_loop(
    server: StencilServer,
    healthy: list,
    poison_at: set,
    poison_grid,
    steps: int,
    gap_s: float,
):
    """Open-loop arrivals: submissions never wait for completions.

    Requests arrive in bursts of ``SERVE_BURST``, ``gap_s`` apart.
    """
    futs, pfuts = [], []
    slot = 0

    async def tick() -> None:
        nonlocal slot
        slot += 1
        if slot % SERVE_BURST == 0:
            await asyncio.sleep(gap_s)

    for g in healthy:
        if slot in poison_at:
            pfuts.append(server.submit_nowait(poison_grid, steps))
            await tick()
        futs.append(server.submit_nowait(g, steps))
        await tick()
    answers = await asyncio.gather(*futs, return_exceptions=True)
    perrs = await asyncio.gather(*pfuts, return_exceptions=True)
    return answers, perrs


def serving_chaos(
    n_requests: int, failures: list[str], recovery_ceiling_ms: float
) -> dict:
    """Open-loop load with poisoned requests."""
    rng = np.random.default_rng(0x0DD5)
    plan = FlashFFTStencil(
        SERVE_SHAPE, kz.heat_2d(), fused_steps=SERVE_FUSED, workers=1
    )
    healthy = [rng.standard_normal(SERVE_SHAPE) for _ in range(n_requests)]
    refs = [plan.run(g, SERVE_STEPS) for g in healthy]
    poison = np.full(SERVE_SHAPE, 1e300)  # admission-passing, overflows live
    poison_at = {n_requests // 3, 2 * n_requests // 3}
    tel = Telemetry()
    cfg = ServingConfig(
        max_batch=8,
        guards=GuardPolicy(),
        request_timeout_ms=30_000.0,
        inline_below_ms=0.0,
    )
    t0 = time.perf_counter()

    async def body():
        async with StencilServer(plan, cfg, telemetry=tel) as srv:
            answers, perrs = await _drive_open_loop(
                srv, healthy, poison_at, poison, SERVE_STEPS, gap_s=0.002
            )
            return answers, perrs, srv.health()

    answers, perrs, health = asyncio.run(body())
    wall_ms = (time.perf_counter() - t0) * 1e3

    answered = [
        (g, r) for g, r in zip(healthy, answers) if not isinstance(r, Exception)
    ]
    availability = len(answered) / max(1, len(healthy))
    exact = sum(
        1
        for (g, r), ref in zip(zip(healthy, answers), refs)
        if not isinstance(r, Exception) and np.array_equal(r, ref)
    )
    correct = exact == len(answered)
    poison_isolated = all(isinstance(e, Exception) for e in perrs)

    lat = tel.observation("serve_latency_ms") or {}
    report = {
        "requests_healthy": len(healthy),
        "requests_poisoned": len(perrs),
        "answered": len(answered),
        "availability": round(availability, 4),
        "bit_identical_answers": exact,
        "poison_isolated": poison_isolated,
        "wall_ms": round(wall_ms, 1),
        "latency_p50_ms": lat.get("p50"),
        "latency_p99_ms": lat.get("p99"),
        "health": health,
        "counters": {
            k: tel.counter(k)
            for k in (
                "serving_bisections",
                "serving_poisoned_requests",
                "admission_invalid",
                "requests_expired",
            )
        },
    }
    if availability < AVAILABILITY_FLOOR:
        failures.append(
            f"serving availability {availability:.4f} < {AVAILABILITY_FLOOR}"
        )
    if not correct:
        failures.append(
            f"serving correctness: {exact}/{len(answered)} answered "
            "responses bit-identical to serial"
        )
    if not poison_isolated:
        failures.append("a poisoned request was answered instead of failed")
    if report["counters"]["serving_poisoned_requests"] < len(perrs):
        failures.append("bisection did not isolate every poisoned request")
    if wall_ms > max(recovery_ceiling_ms, 1e3 * 0.01 * len(healthy) * 10):
        failures.append(
            f"serving chaos run took {wall_ms:.0f} ms (unbounded recovery?)"
        )
    return report


# ------------------------------------------------------------ segment 2


def _time_interleaved_ms(fns: dict, reps: int, warmup: int) -> dict:
    """Best-of wall time per labelled thunk, sampled round-robin (the
    ``bench_robustness`` ratio methodology: shared noise, best-of)."""
    for _ in range(warmup):
        for fn in fns.values():
            fn()
    best = {k: float("inf") for k in fns}
    for _ in range(reps):
        for k, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[k] = min(best[k], (time.perf_counter() - t0) * 1e3)
    return best


def bench_overhead(reps: int, warmup: int, ceiling: float, failures: list[str]) -> dict:
    """Unused fault-tolerance plumbing must cost nothing measurable.

    Two interleaved ratios, both gated at ``ceiling``:

    * ``plan.run`` with a guards-off robustness config vs the plain
      ``robustness=None`` fast path;
    * ``serve_batch`` with output guards enabled vs disabled (the one
      per-batch check the serving isolation path added).
    """
    rng = np.random.default_rng(0xFA57)
    eplan = _engine_plan()
    x = rng.standard_normal(ENGINE_SHAPE)
    total = 2 * ENGINE_FUSED + 1  # remainder tail included
    rb_off = RobustnessConfig(guards=GUARDS_OFF)
    splan = FlashFFTStencil(
        SERVE_SHAPE, kz.heat_2d(), fused_steps=SERVE_FUSED, workers=1
    )
    grids = [rng.standard_normal(SERVE_SHAPE) for _ in range(8)]
    times = _time_interleaved_ms(
        {
            "plain_run": lambda: eplan.run(x, total),
            "robust_off_run": lambda: eplan.run(x, total, robustness=rb_off),
            "serve_unguarded": lambda: serve_batch(splan, grids, SERVE_STEPS),
            "serve_guarded": lambda: serve_batch(
                splan, grids, SERVE_STEPS, guards=GuardPolicy()
            ),
        },
        reps,
        warmup,
    )
    robust_ratio = (
        times["robust_off_run"] / times["plain_run"]
        if times["plain_run"] else None
    )
    guard_ratio = (
        times["serve_guarded"] / times["serve_unguarded"]
        if times["serve_unguarded"] else None
    )
    if robust_ratio is not None and robust_ratio > ceiling:
        failures.append(
            f"guards-off robust run overhead {robust_ratio:.3f}x > {ceiling}x"
        )
    if guard_ratio is not None and guard_ratio > ceiling:
        failures.append(
            f"serving guard-check overhead {guard_ratio:.3f}x > {ceiling}x"
        )
    return {
        "plain_run_ms": round(times["plain_run"], 4),
        "robust_off_run_ms": round(times["robust_off_run"], 4),
        "robust_off_overhead": (
            round(robust_ratio, 4) if robust_ratio is not None else None
        ),
        "serve_unguarded_ms": round(times["serve_unguarded"], 4),
        "serve_guarded_ms": round(times["serve_guarded"], 4),
        "guard_overhead": (
            round(guard_ratio, 4) if guard_ratio is not None else None
        ),
        "ceiling": ceiling,
    }


# ----------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="CI smoke: smaller load")
    ap.add_argument("--reps", type=int, default=None, help="overhead timing rounds")
    ap.add_argument(
        "--requests", type=int, default=None, help="healthy open-loop requests"
    )
    ap.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_chaos.json",
    )
    args = ap.parse_args(argv)
    reps = args.reps if args.reps is not None else (10 if args.quick else 30)
    n_requests = (
        args.requests if args.requests is not None else (24 if args.quick else 96)
    )
    if reps < 1:
        ap.error(f"--reps must be >= 1, got {reps}")
    if n_requests < 6:
        ap.error(f"--requests must be >= 6, got {n_requests}")
    ceiling = OVERHEAD_CEILING_QUICK if args.quick else OVERHEAD_CEILING
    recovery_ceiling = (
        RECOVERY_CEILING_MS_QUICK if args.quick else RECOVERY_CEILING_MS
    )

    failures: list[str] = []
    plan_cache_clear()
    serving = serving_chaos(n_requests, failures, recovery_ceiling)
    overhead = bench_overhead(reps, 2 if args.quick else 5, ceiling, failures)

    report = {
        "benchmark": "chaos",
        "quick": bool(args.quick),
        "availability_floor": AVAILABILITY_FLOOR,
        "recovery_ceiling_ms": recovery_ceiling,
        "serving": serving,
        "overhead": overhead,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"serving: {serving['answered']}/{serving['requests_healthy']} answered "
        f"({serving['availability']:.2%}), "
        f"{serving['requests_poisoned']} poisoned isolated="
        f"{serving['poison_isolated']}, "
        f"p99={serving['latency_p99_ms']} ms"
    )
    print(
        f"plain-path overhead: robust-off {overhead['robust_off_overhead']}x, "
        f"serving guard {overhead['guard_overhead']}x (ceiling {ceiling}x)"
    )
    print(f"wrote {args.output}")

    if failures:
        print("CHAOS GATE FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("chaos gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
