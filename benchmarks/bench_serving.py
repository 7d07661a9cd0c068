"""Serving front-end benchmark: open-loop micro-batching + warm-start cache.

Measures the two load-bearing claims of :mod:`repro.serving` and writes
``BENCH_serving.json``:

* **open-loop micro-batching** — a burst of N independent requests is
  submitted to a running :class:`~repro.serving.StencilServer` (arrivals
  do not wait for completions — open loop), against a sequential
  per-request ``run()`` baseline over the same grids.  Batched responses
  are checked bit-identical to the serial loop; p50/p99 request latency
  comes from the server's own telemetry distributions.
* **warm-start planning** — cold plan construction (auto-tune + spectrum
  derivation + disk write) vs a fresh-process-equivalent warm start from
  the :class:`~repro.serving.PlanDiskCache` (in-memory plan/spectrum
  caches cleared between measurements) over 1-D/2-D/3-D heat workloads.

Gates (``--no-target-check`` records only; ``--quick`` shrinks the burst
for CI):

* micro-batched open-loop throughput >= 2x the sequential loop at B≈8;
* p99 request latency <= a fixed 200 ms limit;
* every served response ``np.array_equal`` to the serial reference;
* summed warm-start planning time < 50% of summed cold planning time.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py           # full gate
    PYTHONPATH=src python benchmarks/bench_serving.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import kernels as kz
from repro.core.kernels import spectrum_cache_clear
from repro.core.plan import FlashFFTStencil, plan_cache_clear
from repro.observability import Telemetry
from repro.parallel import cpu_count
from repro.serving import PlanDiskCache, ServingConfig, StencilServer

#: The serving workload: small grids where per-call overhead dominates —
#: the regime micro-batching exists for (same shape family as the
#: ``bench_throughput`` batched-serving section, sized so batching wins
#: stay well clear of the irreducible per-request event-loop cost).
SHAPE = (512,)
TILE = (64,)
FUSED = 8
STEPS = 48

#: Fixed latency limit the p99 gate is measured against.
P99_LIMIT_MS = 200.0
BATCH = 8

#: Warm-start workloads: one per dimensionality; the 3-D case dominates
#: the planning bill and therefore the gate.
WARM_CASES = (
    ("heat1d", (4096,), kz.heat_1d, 8),
    ("heat2d", (96, 96), kz.heat_2d, 4),
    ("heat3d", (48, 48, 48), kz.heat_3d, 2),
)


def bench_open_loop(
    burst: int, reps: int, failures: list[str], *, check_speedup: bool = True
) -> dict:
    """Burst of ``burst`` requests through the server vs a run() loop.

    Both sides take the minimum over ``reps`` measured passes — the
    standard low-noise estimator for sub-ms work (matching the
    ``bench_throughput`` serving section).
    """
    rng = np.random.default_rng(0x5EF)
    plan = FlashFFTStencil(SHAPE, kz.heat_1d(), fused_steps=FUSED, tile=TILE)
    grids = [rng.standard_normal(SHAPE) for _ in range(burst)]

    # Serial reference (also warms the plan caches for both sides).
    serial = [plan.run(g, STEPS) for g in grids]

    tel = Telemetry()
    cfg = ServingConfig(max_batch=BATCH)

    def seq_pass() -> float:
        t0 = time.perf_counter()
        for g in grids:
            plan.run(g, STEPS)
        return time.perf_counter() - t0

    async def serve() -> tuple[list[np.ndarray], float, float]:
        async with StencilServer(plan, cfg, telemetry=tel) as server:
            async def burst_pass() -> tuple[list[np.ndarray], float]:
                t0 = time.perf_counter()
                # Open loop: the whole burst is in flight at once; no
                # arrival waits for any completion.  Raw futures, not
                # wrapped tasks — the client pattern submit_nowait is for.
                outs = await asyncio.gather(
                    *[
                        server.submit_nowait(g, STEPS, tenant=f"t{i % 4}")
                        for i, g in enumerate(grids)
                    ]
                )
                return list(outs), time.perf_counter() - t0

            # Warmup: first-batch executor dispatch and the service-time
            # EWMA (inline vs executor) settle before anything is measured.
            await burst_pass()
            seq_pass()
            # Interleaved min-over-reps: alternating passes (with the
            # within-pair order flipping) give both sides the same
            # allocator / frequency / scheduler environment, which
            # matters when the gate is a throughput ratio.
            seq_best = float("inf")
            served_best = float("inf")
            outs: list[np.ndarray] = []
            for i in range(reps):
                if i % 2 == 0:
                    seq_best = min(seq_best, seq_pass())
                    outs, served = await burst_pass()
                    served_best = min(served_best, served)
                else:
                    outs, served = await burst_pass()
                    served_best = min(served_best, served)
                    seq_best = min(seq_best, seq_pass())
            return outs, seq_best, served_best

    outs, seq_s, served_s = asyncio.run(serve())

    mismatches = sum(
        1 for got, want in zip(outs, serial) if not np.array_equal(got, want)
    )
    if mismatches:
        failures.append(
            f"serving: {mismatches}/{burst} responses != serial run() loop"
        )

    seq_rps = burst / seq_s if seq_s else 0.0
    served_rps = burst / served_s if served_s else 0.0
    ratio = served_rps / seq_rps if seq_rps else 0.0
    if check_speedup and ratio < 2.0:
        failures.append(
            f"serving: open-loop throughput {ratio:.2f}x sequential < 2.0x"
        )
    p50 = tel.percentile("serve_latency_ms", 50.0)
    p99 = tel.percentile("serve_latency_ms", 99.0)
    if p99 is None or p99 > P99_LIMIT_MS:
        failures.append(
            f"serving: p99 latency {p99} ms exceeds {P99_LIMIT_MS} ms limit"
        )
    batch_sizes = tel.observation("serve_batch_size") or {}
    return {
        "grid_shape": list(SHAPE),
        "burst": burst,
        "total_steps": STEPS,
        "p99_limit_ms": P99_LIMIT_MS,
        "max_batch": BATCH,
        "sequential_rps": round(seq_rps, 1),
        "served_rps": round(served_rps, 1),
        "speedup_vs_sequential": round(ratio, 3),
        "latency_ms": {
            "p50": None if p50 is None else round(p50, 3),
            "p99": None if p99 is None else round(p99, 3),
        },
        "mean_batch_size": round(batch_sizes.get("mean", 0.0), 2),
        "responses_equal_serial": mismatches == 0,
    }


def bench_warm_start(failures: list[str]) -> dict:
    """Cold vs disk-warm planning time over the 1/2/3-D heat workloads."""
    tmp = Path(tempfile.mkdtemp(prefix="repro-plancache-"))
    rows = {}
    cold_total = 0.0
    warm_total = 0.0
    try:
        cache = PlanDiskCache(tmp)
        for name, shape, kf, fused in WARM_CASES:
            kernel = kf()
            plan_cache_clear()
            spectrum_cache_clear()
            t0 = time.perf_counter()
            cold_plan = cache.warm_plan(shape, kernel, fused_steps=fused)
            cold_ms = (time.perf_counter() - t0) * 1e3
            # A fresh process inherits neither the plan LRU nor the
            # spectrum cache — clearing both makes this process's second
            # construction equivalent to a restarted replica's first.
            plan_cache_clear()
            spectrum_cache_clear()
            t0 = time.perf_counter()
            warm_plan = cache.warm_plan(shape, kernel, fused_steps=fused)
            warm_ms = (time.perf_counter() - t0) * 1e3
            if warm_plan.local_shape != cold_plan.local_shape:
                failures.append(
                    f"warm-start {name}: warm geometry != cold geometry"
                )
            cold_total += cold_ms
            warm_total += warm_ms
            rows[name] = {
                "grid_shape": list(shape),
                "fused_steps": fused,
                "cold_ms": round(cold_ms, 3),
                "warm_ms": round(warm_ms, 3),
                "speedup": round(cold_ms / warm_ms, 1) if warm_ms else None,
            }
        frac = warm_total / cold_total if cold_total else 1.0
        if frac >= 0.5:
            failures.append(
                f"warm-start: warm planning {frac * 100:.0f}% of cold >= 50%"
            )
        cache_info = cache.info()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "cases": rows,
        "cold_total_ms": round(cold_total, 3),
        "warm_total_ms": round(warm_total, 3),
        "warm_fraction_of_cold": round(frac, 4),
        "disk_cache": {k: cache_info[k] for k in ("entries", "hits", "misses")},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick", action="store_true", help="CI smoke: smaller burst"
    )
    ap.add_argument("--burst", type=int, default=None, help="open-loop burst size")
    ap.add_argument("--reps", type=int, default=None, help="timing repetitions")
    ap.add_argument(
        "--no-target-check", action="store_true", help="record only, no gates"
    )
    ap.add_argument(
        "--no-speedup-check",
        action="store_true",
        help="waive the 2x open-loop throughput gate (noisy shared runners); "
        "bit-identity, p99, and warm-start gates stay fatal",
    )
    ap.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_serving.json",
    )
    args = ap.parse_args(argv)
    burst = args.burst if args.burst is not None else (24 if args.quick else 48)
    if burst < 1:
        ap.error(f"--burst must be >= 1, got {burst}")
    reps = args.reps if args.reps is not None else (5 if args.quick else 7)
    if reps < 1:
        ap.error(f"--reps must be >= 1, got {reps}")

    plan_cache_clear()
    failures: list[str] = []
    report = {
        "benchmark": "serving",
        "burst": burst,
        "reps": reps,
        "cpu_count": cpu_count(),
        "open_loop": bench_open_loop(
            burst, reps, failures, check_speedup=not args.no_speedup_check
        ),
        "warm_start": bench_warm_start(failures),
    }
    report["gates_passed"] = not failures
    report["failures"] = list(failures)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    ol = report["open_loop"]
    print(
        f"open-loop  seq:{ol['sequential_rps']}/s  "
        f"served:{ol['served_rps']}/s  ({ol['speedup_vs_sequential']:.2f}x)  "
        f"p50:{ol['latency_ms']['p50']}ms  p99:{ol['latency_ms']['p99']}ms  "
        f"mean-batch:{ol['mean_batch_size']}"
    )
    ws = report["warm_start"]
    for name, row in ws["cases"].items():
        print(
            f"warm-start {name:<8} cold:{row['cold_ms']:.2f}ms  "
            f"warm:{row['warm_ms']:.2f}ms  ({row['speedup']}x)"
        )
    print(
        f"warm-start total: {ws['warm_total_ms']:.2f}ms / "
        f"{ws['cold_total_ms']:.2f}ms = "
        f"{ws['warm_fraction_of_cold'] * 100:.0f}% of cold"
    )
    print(f"wrote {args.output}")

    if args.no_target_check:
        return 0
    if failures:
        print("SERVING REGRESSION:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("serving gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
