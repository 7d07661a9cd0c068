"""What the end-to-end benchmark runs and reports: workloads, inputs, metrics.

Pure data plus seeded input generators (NumPy only), so the orchestrator,
the child processes, ``compare.py`` and the tests share one declaration.
``BENCHMARK.json`` at the repository root must declare the same workload
and metric names; ``test_e2e.py`` checks that it does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """One input set: a plan geometry and what one operation does with it.

    Batch workloads run a closed loop of ``plan.run(grid, steps)`` ops on one
    client.  A serving workload (``rate`` > 0) drives an open loop of
    requests at ``rate`` per second into a ``StencilServer``; its geometry
    also serves the layer probes, with one probe op of ``steps`` steps.
    ``tail_pct`` is the percentile reported as ``op_ms_tail``: the highest
    percentile that keeps at least ten samples beyond it in a default-length
    run (12 s on the reference host); a run lasts until it has that many.
    """

    name: str
    kernel: str
    shape: tuple[int, ...]
    fused_steps: int
    steps: int
    boundary: str
    tail_pct: float
    why: str
    rate: float = 0.0

    @property
    def serve(self) -> bool:
        return self.rate > 0

    @property
    def points(self) -> int:
        return int(np.prod(self.shape))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "heat3d-fft", "heat_3d", (128, 128, 128), 2, 2, "periodic", 75.0,
            "Heat-3D 128^3, one T=2 application per op on the default shard "
            "pool: transforms dominate, so tile choice, FFT backend and the "
            "sharding default show; no tail, no halo exchange.",
        ),
        Workload(
            "heat2d-iter", "heat_2d", (1024, 1024), 4, 16, "periodic", 90.0,
            "Heat-2D 1024^2, four T=4 applications per op: split, stitch and "
            "halo movement weigh most, and its 88 windows shard across every "
            "CPU by default.",
        ),
        Workload(
            "star1d-zero", "star_1d7p", (1 << 20,), 8, 20, "zero", 90.0,
            "1D7P on 2^20 points, zero boundary, T=8 plus a 4-step tail: "
            "2,300 short windows, so per-window overhead, tail plan and band "
            "fix show.",
        ),
        Workload(
            "serve-mixed", "heat_2d", (64, 64), 4, 16, "periodic", 99.0,
            "Open-loop Poisson requests at 600 rps into StencilServer over "
            "Heat-2D 64^2, 4 tenants, mixed steps, 1 in 4 tolerance-routed: "
            "per-call overhead and batching dominate.",
            rate=600.0,
        ),
        Workload(
            "serve-r150", "heat_2d", (64, 64), 4, 16, "periodic", 99.0,
            "The serve-mixed traffic at 150 rps: batches seldom fill, so the "
            "batching deadline and per-request overhead set the latency.",
            rate=150.0,
        ),
    )
}

# ---------------------------------------------------------- serving traffic

#: Steps a request may ask for (all multiples of the plan's T=4).
SERVE_STEPS = (4, 8, 12, 16)
SERVE_TENANTS = 4
#: Share of requests carrying ``tolerance=SERVE_TOLERANCE``.  At 1e-6 the
#: precision router keeps every request of this plan on float64, so the
#: mix would hold no float32 work; at 1e-4 it routes them to float32.
SERVE_TOLERANCE_SHARE = 0.25
SERVE_TOLERANCE = 1e-4
#: Distinct input grids per run; requests draw from this pool.
SERVE_POOL = 32
#: Traced run: two fixed-rate phases, then a rate ladder for ``max_rps``.
TRACE_RATES = (150.0, 600.0)
TRACE_PHASE_S = 3.0
LADDER_RATES = (800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1350.0)
LADDER_STEP_S = 3.0
#: Latency limit on p99 for a ladder rung to count toward ``max_rps``.
SLO_P99_MS = 50.0

# ------------------------------------------------------------------ metrics

#: End-to-end metrics: name -> (unit, better, bound).  Every workload reports
#: every one of them.  For batch workloads an op is one ``plan.run``; for
#: serving workloads it is one request, timed from its due time to its
#: result.  Bounds come from the measured spreads (README.md).
END_TO_END: dict[str, tuple[str, str, float]] = {
    "op_ms_p50": ("ms", "lower", 0.25),
    "op_ms_tail": ("ms", "lower", 0.20),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: Per-layer metrics of the traced run: name -> (unit, better).  A metric
#: that does not apply to a workload (serving metrics on a batch workload,
#: the band fix under the periodic boundary) reads 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    "core.plan.init_ms": ("ms", "lower"),
    "core.plan.first_op_extra_ms": ("ms", "lower"),
    "core.plan.valid_frac": ("ratio", "higher"),
    "core.plan.probe_coverage": ("ratio", "higher"),
    "core.plan.floor_frac": ("ratio", "higher"),
    "core.tailoring.split_ms": ("ms", "lower"),
    "core.tailoring.fuse_ms": ("ms", "lower"),
    "core.tailoring.stitch_ms": ("ms", "lower"),
    "core.tailoring.exchange_ms": ("ms", "lower"),
    "core.tailoring.boundary_fix_ms": ("ms", "lower"),
    "core.tailoring.split_gbps": ("GB/s", "higher"),
    "core.tailoring.stitch_gbps": ("GB/s", "higher"),
    "parallel.backends.rfftn_ms": ("ms", "lower"),
    "parallel.backends.irfftn_ms": ("ms", "lower"),
    "parallel.backends.multiply_ms": ("ms", "lower"),
    "parallel.backends.fft_gflops": ("GFLOP/s", "higher"),
    "parallel.sharding.workers": ("count", "higher"),
    "parallel.sharding.speedup": ("ratio", "higher"),
    "parallel.batch.run_many_ms_per_grid": ("ms", "lower"),
    "parallel.batch.run_ms_per_grid": ("ms", "lower"),
    "serving.batch_size_mean": ("count", "higher"),
    "serving.service_ms_per_grid_p50": ("ms", "lower"),
    "serving.inline_frac": ("ratio", "higher"),
    "serving.submit_us_p50": ("us", "lower"),
    "serving.rejected": ("count", "lower"),
    "serving.expired": ("count", "lower"),
    "serving.gen_late_p99_ms": ("ms", "lower"),
    "serving.max_rps": ("1/s", "higher"),
    "serving.lat_p50_ms.r150": ("ms", "lower"),
    "serving.lat_p99_ms.r150": ("ms", "lower"),
    "serving.lat_p50_ms.r600": ("ms", "lower"),
    "serving.lat_p99_ms.r600": ("ms", "lower"),
    "analysis.accuracy.precision.f32_frac": ("ratio", "higher"),
    "analysis.accuracy.precision.escalations": ("count", "lower"),
    "ladder.direct": ("ms/step", "lower"),
    "ladder.whole_fft": ("ms/step", "lower"),
    "ladder.default": ("ms/step", "lower"),
    "ladder.workers1": ("ms/step", "lower"),
    "ladder.resident": ("ms/step", "lower"),
    "ladder.scipy": ("ms/step", "lower"),
    "ladder.tuned": ("ms/step", "lower"),
    "host.copy_gbps": ("GB/s", "higher"),
    "host.fft_gflops": ("GFLOP/s", "higher"),
    "counters.applications": ("count", "lower"),
    "counters.windows": ("count", "lower"),
    "counters.fft_batches": ("count", "lower"),
    "counters.points_stitched": ("count", "lower"),
    "counters.halo_points_exchanged": ("count", "lower"),
    "counters.plan_cache_hits": ("count", "higher"),
    "counters.plan_cache_misses": ("count", "lower"),
    "counters.spectrum_cache_hits": ("count", "higher"),
    "counters.spectrum_cache_misses": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

#: Host reference: a fixed, allocation-free NumPy kernel of the kind an
#: FFT-stencil application runs (a batched real FFT round trip over 8 MiB,
#: then a random gather), one copy on each CPU the process may use, as the
#: program's default shard pool does.  The shared host's speed drifts by up
#: to 1.7x over seconds to minutes, and either CPU can slow alone; the
#: reference drifts with both, while the program cannot change its speed.
#: Batch op times are reported as the ratio op / reference, with the
#: reference timed in phases between blocks of ops; set-up times as the
#: ratio set-up / reference, with the reference timed just before the
#: set-up.  Both ratios are multiplied by the reference's median on the
#: reference host, so they read in milliseconds and seconds.
REF_SHAPE = (4096, 256)
REF_NOMINAL_MS = 12.5

#: Oracle bound for batch outputs against ``run_stencil``.
REF_TOLERANCE = 1e-10


def rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """``max|got - ref| / max(1, max|ref|)``: the bound both the batch oracle
    and the serving tolerance are checked against."""
    ref = np.asarray(ref, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(np.asarray(got, dtype=np.float64) - ref))) / scale


# ------------------------------------------------------------------- inputs


def rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream): grids, arrivals, steps,
    tenants and tolerance draws never share a stream."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *stream]))


def make_grid(workload: Workload, seed: int) -> np.ndarray:
    """The batch workload's input grid for ``seed``."""
    return rng(seed, 0).standard_normal(workload.shape)


def make_pool(workload: Workload, seed: int) -> list[np.ndarray]:
    """The serving workload's pool of distinct input grids for ``seed``."""
    r = rng(seed, 1)
    return [r.standard_normal(workload.shape) for _ in range(SERVE_POOL)]


@dataclass(frozen=True)
class Requests:
    """An open-loop arrival schedule: due offsets plus what each request asks."""

    due_s: np.ndarray
    grid: np.ndarray
    steps: np.ndarray
    tenant: np.ndarray
    tolerant: np.ndarray

    def __len__(self) -> int:
        return len(self.due_s)


def make_requests(seed: int, phase: int, rate: float, seconds: float) -> Requests:
    """Poisson arrivals at ``rate`` for ``seconds``; ``phase`` separates the
    streams of the phases of one run."""
    arrivals = rng(seed, 2, phase)
    # Draw enough gaps to cover the window with overwhelming probability,
    # then cut at the window's end.
    n_draw = int(rate * seconds * 1.5) + 64
    due = np.cumsum(arrivals.exponential(1.0 / rate, n_draw))
    due = due[due < seconds]
    n = len(due)
    return Requests(
        due_s=due,
        grid=rng(seed, 3, phase).integers(0, SERVE_POOL, n),
        steps=rng(seed, 4, phase).choice(SERVE_STEPS, n),
        tenant=rng(seed, 5, phase).integers(0, SERVE_TENANTS, n),
        tolerant=rng(seed, 6, phase).random(n) < SERVE_TOLERANCE_SHARE,
    )
