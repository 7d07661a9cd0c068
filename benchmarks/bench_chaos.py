"""Chaos benchmark: deterministic fault injection under live serving load.

The fault-tolerance acceptance gate for the process-failure recovery
layer.  Three segments, one report (``BENCH_chaos.json``):

1. **Engine chaos matrix** — each process-level fault class (rank crash
   mid-FFT, rank crash at the halo exchange, rank hang, shared-memory
   halo corruption, chunk crash in the batched scale-out path) is
   injected deterministically and must be recovered *bit-identically* to
   the serial reference, with telemetry counters proving which recovery
   path ran, within a bounded recovery time.
2. **Open-loop serving chaos** — a request stream is driven through a
   live :class:`~repro.serving.StencilServer` while poisoned requests
   (admission-passing grids that overflow mid-run) and real worker
   crashes (``os._exit`` in a scale-out chunk) are injected.  Gates:
   availability (>= 99% of healthy requests answered), correctness
   (every answered response ``np.array_equal`` to the serial reference),
   every poisoned request failed in isolation, and no shared-memory
   segment leaked.
3. **Overhead gate** — the fault-tolerance plumbing must be free when
   unused, gated with the ``bench_robustness`` interleaved best-of <= 10%
   methodology: ``plan.run`` with a guards-off robustness config (which
   now threads injector/rank-timeout plumbing into every chunk) vs the
   plain ``robustness=None, processes=None`` path, and ``serve_batch``
   with output guards on vs off.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_chaos.py           # full gate
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil, plan_cache_clear
from repro.distributed import ProcessEngine, run_many_processes
from repro.errors import WorkerCrashError
from repro.observability import Telemetry
from repro.parallel.batch import serve_batch
from repro.robustness import (
    GUARDS_OFF,
    FaultInjector,
    FaultSpec,
    GuardPolicy,
    RobustnessConfig,
)
from repro.serving import ServingConfig, StencilServer

#: Overhead ceiling for the plain serving path vs raw ``run_many``
#: (interleaved best-of ratio; quick mode loosens it for noisy CI boxes).
OVERHEAD_CEILING = 1.10
OVERHEAD_CEILING_QUICK = 1.35

#: Every injected fault must be fully recovered within this wall-time
#: budget (includes hang-detection waits, pool teardown, and the redo).
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
#: multi-request batches that the injected scale-out crash targets and
#: that bisection must undo.
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


def _shm_entries() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-tmpfs platform
        return set()


# ------------------------------------------------------------ segment 1


def chaos_matrix(failures: list[str], recovery_ceiling_ms: float) -> list[dict]:
    """Deterministic engine-level fault scenarios, each gated on
    bit-identity, counter evidence, and bounded recovery time."""
    rng = np.random.default_rng(0xC4A05)
    plan = _engine_plan()
    x = rng.standard_normal(ENGINE_SHAPE)
    want2 = plan.run(x, 2 * ENGINE_FUSED)
    rows: list[dict] = []

    def record(scenario, fn, evidence):
        tel = Telemetry()
        before = _shm_entries()
        t0 = time.perf_counter()
        try:
            ok = bool(fn(tel))
        except Exception as exc:  # noqa: BLE001 - report, don't abort
            ok = False
            failures.append(f"{scenario}: raised {type(exc).__name__}: {exc}")
        ms = (time.perf_counter() - t0) * 1e3
        leaked = sorted(_shm_entries() - before)
        counters = {k: tel.counter(k) for k in evidence}
        row = {
            "scenario": scenario,
            "recovered": ok,
            "recovery_ms": round(ms, 2),
            "counters": counters,
            "shm_leaked": leaked,
        }
        rows.append(row)
        if not ok:
            failures.append(f"{scenario}: recovery produced a wrong answer")
        if any(counters[k] < 1 for k in evidence):
            failures.append(f"{scenario}: no counter evidence ({counters})")
        if ms > recovery_ceiling_ms:
            failures.append(
                f"{scenario}: recovery took {ms:.0f} ms "
                f"> {recovery_ceiling_ms:.0f} ms"
            )
        if leaked:
            failures.append(f"{scenario}: leaked shared memory {leaked}")
        return row

    def crash(stage):
        def fn(tel):
            eng = ProcessEngine(plan.segments, 2)
            try:
                inj = FaultInjector(
                    [FaultSpec(stage=stage, kind="rank_crash", rank=0)]
                )
                got = eng.run(x, 2, telemetry=tel, injector=inj)
                return np.array_equal(got, want2)
            finally:
                eng.close()

        return fn

    record("rank_crash@fuse", crash("fuse"), ("rank_crashes", "rank_recoveries"))
    record(
        "rank_crash@exchange",
        crash("exchange"),
        ("rank_crashes", "rank_recoveries"),
    )

    def hang(tel):
        eng = ProcessEngine(plan.segments, 2, rank_timeout=0.5)
        try:
            inj = FaultInjector(
                [FaultSpec(stage="fuse", kind="rank_hang", rank=1)]
            )
            got = eng.run(x, 2, telemetry=tel, injector=inj)
            return np.array_equal(got, want2)
        finally:
            eng.close()

    record("rank_hang", hang, ("rank_hangs", "rank_recoveries"))

    def halo(tel):
        # Corrupt a halo row in shared memory mid-exchange; the *existing*
        # numerical guards must catch it and the stage retry heal it —
        # the layered-defence claim.
        hp = FlashFFTStencil(
            (96, 96), kz.heat_2d(), fused_steps=2, tile=(16, 16), workers=1
        )
        hx = rng.standard_normal((96, 96))
        rb = RobustnessConfig(
            guards=GuardPolicy(),
            injector=FaultInjector(
                [FaultSpec(stage="exchange", kind="halo_corrupt", rank=0)]
            ),
        )
        try:
            got = hp.run(hx, 8, robustness=rb, telemetry=tel, processes=2)
            return np.array_equal(got, hp.run(hx, 8))
        finally:
            hp.close_processes()

    record("halo_corrupt", halo, ("guard_violations", "stage_retries"))

    def chunk_crash(tel):
        grids = [rng.standard_normal(ENGINE_SHAPE) for _ in range(4)]
        want = np.stack([plan.run(g, 2 * ENGINE_FUSED) for g in grids])
        inj = FaultInjector(
            [FaultSpec(stage="fuse", kind="rank_crash", apply_index=2, rank=1)]
        )
        got = run_many_processes(
            plan, grids, 2 * ENGINE_FUSED, 2, telemetry=tel, injector=inj
        )
        return np.array_equal(got, want)

    record(
        "chunk_crash@run_many",
        chunk_crash,
        ("chunk_crashes", "chunk_recoveries"),
    )

    def escalation(tel):
        eng = ProcessEngine(plan.segments, 2, max_rank_restarts=0)
        try:
            inj = FaultInjector(
                [FaultSpec(stage="fuse", kind="rank_crash", rank=0)]
            )
            try:
                eng.run(x, 2, telemetry=tel, injector=inj)
            except WorkerCrashError as e:
                return e.ranks == (0,) and e.restarts == 1
            return False
        finally:
            eng.close()

    record(
        "escalation@budget_0", escalation, ("rank_crash_escalations",)
    )
    return rows


# ------------------------------------------------------------ segment 2


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
    """Open-loop load with poisoned requests + a real worker crash."""
    rng = np.random.default_rng(0x0DD5)
    plan = FlashFFTStencil(
        SERVE_SHAPE, kz.heat_2d(), fused_steps=SERVE_FUSED, workers=1
    )
    healthy = [rng.standard_normal(SERVE_SHAPE) for _ in range(n_requests)]
    refs = [plan.run(g, SERVE_STEPS) for g in healthy]
    poison = np.full(SERVE_SHAPE, 1e300)  # admission-passing, overflows live
    poison_at = {n_requests // 3, 2 * n_requests // 3}
    # One real rank crash (os._exit inside a scale-out chunk) armed for
    # the first multi-chunk batch; processes=2 routes batches of >= 2
    # requests through the shared-memory scale-out path.
    injector = FaultInjector(
        [FaultSpec(stage="fuse", kind="rank_crash", rank=0)]
    )
    tel = Telemetry()
    cfg = ServingConfig(
        max_batch=8,
        processes=2,
        guards=GuardPolicy(),
        max_execution_retries=2,
        retry_backoff_ms=0.5,
        request_timeout_ms=30_000.0,
        inline_below_ms=0.0,
    )
    before = _shm_entries()
    t0 = time.perf_counter()

    async def body():
        async with StencilServer(plan, cfg, telemetry=tel, injector=injector) as srv:
            answers, perrs = await _drive_open_loop(
                srv, healthy, poison_at, poison, SERVE_STEPS, gap_s=0.002
            )
            return answers, perrs, srv.health()

    answers, perrs, health = asyncio.run(body())
    wall_ms = (time.perf_counter() - t0) * 1e3
    leaked = sorted(_shm_entries() - before)

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
                "serving_retries",
                "chunk_crashes",
                "chunk_recoveries",
                "admission_invalid",
                "requests_expired",
            )
        },
        "shm_leaked": leaked,
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
    if report["counters"]["chunk_crashes"] < 1:
        failures.append("injected worker crash never fired in the scale-out path")
    if wall_ms > max(recovery_ceiling_ms, 1e3 * 0.01 * len(healthy) * 10):
        failures.append(
            f"serving chaos run took {wall_ms:.0f} ms (unbounded recovery?)"
        )
    if leaked:
        failures.append(f"serving chaos leaked shared memory: {leaked}")
    return report


# ------------------------------------------------------------ segment 3


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

    * ``plan.run`` with a guards-off robustness config (exercising the
      new injector/rank-timeout threading through every chunk) vs the
      plain ``robustness=None, processes=None`` fast path;
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
    matrix = chaos_matrix(failures, recovery_ceiling)
    serving = serving_chaos(n_requests, failures, recovery_ceiling)
    overhead = bench_overhead(reps, 2 if args.quick else 5, ceiling, failures)

    report = {
        "benchmark": "chaos",
        "quick": bool(args.quick),
        "availability_floor": AVAILABILITY_FLOOR,
        "recovery_ceiling_ms": recovery_ceiling,
        "chaos_matrix": matrix,
        "serving": serving,
        "overhead": overhead,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    hdr = f"{'scenario':<22}{'recovered':>10}{'ms':>9}"
    print(hdr)
    print("-" * len(hdr))
    for row in matrix:
        print(
            f"{row['scenario']:<22}{str(row['recovered']):>10}"
            f"{row['recovery_ms']:>9.1f}"
        )
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
