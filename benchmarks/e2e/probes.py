"""Traced run: per-layer metrics measured from outside the program.

Every probe calls a public function of one layer on the workload's own
geometry and is recorded as a span (``spans.Tracer``).  Stage probes are
serial and isolated: each stage runs alone on a warm plan, once per round
next to the whole op, and medians are reported per application.  Outputs
of every op and every ladder rung are checked, so a probe that returns
wrong numbers fails the run like any other op.
"""

from __future__ import annotations

import asyncio
import math
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Hashable

import numpy as np

import repro
from repro import (
    FlashFFTStencil,
    ServingConfig,
    StencilServer,
    Telemetry,
    WorkspaceArena,
    apply_fft_stencil,
    run_stencil,
)
from repro.core import plan_cache_clear, spectrum_cache_clear

from child import build_plan, peak_rss_mb, serve_oracle, warm_server
from serve import drained, open_loop
from spans import Tracer
from spec import (
    LADDER_RATES,
    LADDER_STEP_S,
    PER_LAYER,
    REF_TOLERANCE,
    SLO_P99_MS,
    TRACE_PHASE_S,
    TRACE_RATES,
    Workload,
    make_grid,
    make_pool,
    make_requests,
    rel_err,
)
from stats import Outcomes, percentile, self_ms_by_name

#: Ops per side of the traced/untraced comparison: at least this many, and
#: at least ``MIN_SIDE_S`` of them, so millisecond ops get enough samples.
TRACED_OPS = 20
MIN_SIDE_S = 1.0
#: Repetitions of each isolated probe (the median is reported): at least
#: ``REPS`` and ``MIN_PROBE_S`` seconds, at most ``MAX_REPS``.
REPS = 5
MIN_PROBE_S = 0.2
MAX_REPS = 200
#: Host floors: a copy over a buffer of this many bytes (same cache regime
#: as the 8-34 MiB working sets), and a whole-array rfftn of this shape.
COPY_BYTES = 64 << 20
FFT_SHAPE = (128, 128, 128)


def fft_flops(points: int) -> float:
    """Nominal flops of one real transform of ``points`` points."""
    return 2.5 * points * math.log2(points)


class Probe:
    """Times public calls into spans and checks what they return."""

    def __init__(self, w: Workload, tracer: Tracer) -> None:
        self.w = w
        self.tracer = tracer
        self.outcomes = Outcomes()

    def sample(
        self, name: str, fn: Callable[[], object], reps: int = REPS,
        parent: tuple[int, int] | None = None,
    ) -> list[float]:
        """Run ``fn`` at least ``reps`` times and ``MIN_PROBE_S`` seconds,
        one span each; seconds per call."""
        return self.rounds({name: (name, fn)}, reps, parent)[name]

    def rounds(
        self, calls: dict[Hashable, tuple[str, Callable[[], object]]],
        reps: int = REPS, parent: tuple[int, int] | None = None,
    ) -> dict[Hashable, list[float]]:
        """Run every ``(span name, call)`` once per round, in order, so a
        slow spell of the host hits all of them alike; at least ``reps``
        rounds and ``MIN_PROBE_S`` seconds per call, at most ``MAX_REPS``
        rounds.  Returns seconds per call, by key."""
        out: dict[Hashable, list[float]] = {key: [] for key in calls}
        n = 0
        while n < reps or (
            sum(map(sum, out.values())) < MIN_PROBE_S * len(calls) and n < MAX_REPS
        ):
            for key, (name, fn) in calls.items():
                t0 = time.perf_counter_ns()
                fn()
                t1 = time.perf_counter_ns()
                out[key].append((t1 - t0) / 1e9)
                trace_id, parent_id = parent or (self.tracer.new_trace(), None)
                self.tracer.add(name, trace_id, t0, t1, parent_id)
            n += 1
        return out

    def check(self, got: np.ndarray, ref: np.ndarray, exact: bool = False) -> None:
        self.outcomes.attempted += 1
        ok = np.array_equal(got, ref) if exact else rel_err(got, ref) <= REF_TOLERANCE
        self.outcomes.wrong += not ok


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3


# --------------------------------------------------------------- the op


def op_probe(p: Probe, plan: FlashFFTStencil, grid: np.ndarray, ref: np.ndarray) -> dict:
    """Untraced and traced ops, interleaved in alternating order; then two
    traced ops back to back for per-op cache deltas."""
    w = p.w
    plain, traced, snaps = [], [], []
    first = plan.run(grid, w.steps)
    p.check(first, ref)

    def untraced() -> None:
        t0 = time.perf_counter()
        out = plan.run(grid, w.steps)
        plain.append(time.perf_counter() - t0)
        p.check(out, first, exact=True)

    def traced_op() -> None:
        tel = Telemetry()
        with p.tracer.span("core.plan.run", steps=w.steps) as sp:
            t0 = time.perf_counter()
            out = plan.run(grid, w.steps, telemetry=tel)
            t1 = time.perf_counter()
            snap = tel.snapshot()
            sp.attrs["telemetry"] = {k: snap[k] for k in ("counters", "spans", "caches")}
        traced.append(t1 - t0)
        snaps.append(snap)
        p.check(out, first, exact=True)

    k = 0
    while k < TRACED_OPS or sum(plain) < MIN_SIDE_S:
        pair = (untraced, traced_op) if k % 2 == 0 else (traced_op, untraced)
        for fn in pair:
            fn()
        k += 1
    traced_op()
    traced_op()
    last, prev = snaps[-1], snaps[-2]

    def cached(snap: dict, cache: str, key: str) -> int:
        return snap["caches"].get(cache, {}).get(key, 0)

    counters = last["counters"]
    m = {
        f"counters.{k}": float(counters.get(k, 0))
        for k in ("applications", "windows", "fft_batches", "points_stitched",
                  "halo_points_exchanged")
    }
    for cache in ("plan_cache", "spectrum_cache"):
        for key in ("hits", "misses"):
            m[f"counters.{cache}_{key}"] = float(
                cached(last, cache, key) - cached(prev, cache, key)
            )
    op_ms = median_ms(plain)
    m["trace.overhead"] = median_ms(traced) / op_ms - 1.0
    m["ladder.default"] = op_ms / w.steps
    return {"metrics": m, "op_ms": op_ms}


def cold_probe(p: Probe, grid: np.ndarray, op_ms: float) -> dict:
    """Plan construction and first op with the plan and spectrum caches cleared."""
    w = p.w
    init, first = [], []
    for _ in range(REPS):
        plan_cache_clear()
        spectrum_cache_clear()
        with p.tracer.span("FlashFFTStencil.__init__"):
            t0 = time.perf_counter()
            plan = build_plan(w)
            init.append(time.perf_counter() - t0)
        with p.tracer.span("core.plan.run", steps=w.steps, cold=True):
            t0 = time.perf_counter()
            plan.run(grid, w.steps)
            first.append(time.perf_counter() - t0)
    return {
        "core.plan.init_ms": median_ms(init),
        "core.plan.first_op_extra_ms": median_ms(first) - op_ms,
    }


# --------------------------------------------------------- stage probes


#: Stages summed into one application by ``probe_coverage``.
OP_STAGES = ("split", "fuse", "stitch", "boundary_fix")


def stage_calls(plan: FlashFFTStencil, grid: np.ndarray, tag: str) -> dict:
    """``{(tag, stage): (span name, call)}`` for each stage of one
    application of ``plan``, on warm buffers."""
    seg = plan.segments
    be = plan.backend
    axes = tuple(range(1, 1 + len(seg.local_shape)))
    arena = WorkspaceArena(seg)
    windows = seg.split(grid, out=arena.windows, scratch=arena.padded)
    spec = be.rfftn(windows, axes)
    fused = seg.fuse(windows, backend=be)
    out = np.empty(seg.grid_shape, dtype=seg.dtype)
    ex = seg.exchange_plan()
    scratch = np.empty(ex.stale_points, dtype=seg.dtype)
    calls = {
        "split": ("SegmentPlan.split", lambda: seg.split(
            grid, out=arena.windows, scratch=arena.padded
        )),
        "fuse": ("SegmentPlan.fuse", lambda: seg.fuse(windows, backend=be)),
        "rfftn": ("FFTBackend.rfftn", lambda: be.rfftn(windows, axes)),
        "irfftn": (
            "FFTBackend.irfftn", lambda: be.irfftn(spec, seg.local_shape, axes)
        ),
        "stitch": ("SegmentPlan.stitch", lambda: seg.stitch(fused, out=out)),
        # Refreshes halos in place; stitch reads only valid interiors.
        "exchange": (
            "HaloExchangePlan.refresh", lambda: ex.refresh(fused, scratch=scratch)
        ),
    }
    if seg.boundary == "zero" and seg.steps > 1:
        calls["boundary_fix"] = (
            "SegmentPlan.fix_zero_boundary_band",
            lambda: seg.fix_zero_boundary_band(grid, out),
        )
    return {(tag, stage): call for stage, call in calls.items()}


def app_bytes(plan: FlashFFTStencil) -> tuple[float, float, float]:
    """Computed bytes of split, fuse and stitch for one application:
    data read and written plus 8-byte indices, ignoring cache misses."""
    seg = plan.segments
    item = seg.dtype.itemsize
    n = int(np.prod(seg.grid_shape))
    wpts = seg.total_segments * int(np.prod(seg.local_shape))
    split = item * (n + wpts) + 8 * wpts
    fuse = 2 * item * wpts
    stitch = 2 * item * n + 8 * n
    return float(split), float(fuse), float(stitch)


def app_flops(plan: FlashFFTStencil) -> float:
    seg = plan.segments
    return 2 * seg.total_segments * fft_flops(int(np.prod(seg.local_shape)))


def app_floor_s(plan: FlashFFTStencil, host: dict[str, float]) -> float:
    """One application at the host's FFT rate and copy bandwidth."""
    return app_flops(plan) / (host["host.fft_gflops"] * 1e9) + sum(
        app_bytes(plan)
    ) / (host["host.copy_gbps"] * 1e9)


def host_probe(p: Probe) -> dict[str, float]:
    """Copy bandwidth and whole-array FFT rate of this host."""
    src = np.ones(COPY_BYTES // 8)
    dst = np.empty_like(src)
    copy = p.sample("host.copyto", lambda: np.copyto(dst, src))
    del src, dst
    a = np.random.default_rng(0).standard_normal(FFT_SHAPE)
    fft = p.sample("host.rfftn", lambda: np.fft.rfftn(a))
    return {
        "host.copy_gbps": 2 * COPY_BYTES / statistics.median(copy) / 1e9,
        "host.fft_gflops": fft_flops(a.size) / statistics.median(fft) / 1e9,
    }


def layer_probe(
    p: Probe, plan: FlashFFTStencil, grid: np.ndarray, host: dict
) -> dict[str, float]:
    """Tailoring, backend, sharding and plan-level ratios for one op.

    Every stage of the op's applications (the tail plan's too), the op at
    ``workers=1`` and the op at the default run in the same rounds, and
    each ratio is taken per round, so host drift between probes cancels.
    """
    w = p.w
    seg = plan.segments
    full, rem = divmod(w.steps, w.fused_steps)
    serial = FlashFFTStencil(
        w.shape, plan.kernel, fused_steps=w.fused_steps, boundary=w.boundary,
        workers=1,
    )
    # Sharding is documented bit-identical to the serial path.
    p.check(serial.run(grid, w.steps), plan.run(grid, w.steps), exact=True)
    calls = stage_calls(plan, grid, "main")
    tail_plan = None
    if rem:
        tail_plan = FlashFFTStencil(
            w.shape, plan.kernel, fused_steps=rem, boundary=w.boundary
        )
        calls.update(stage_calls(tail_plan, grid, "tail"))
    calls["op", "serial"] = ("core.plan.run", lambda: serial.run(grid, w.steps))
    calls["op", "default"] = ("core.plan.run", lambda: plan.run(grid, w.steps))
    with p.tracer.span("probe.stages", steps=w.steps) as sp:
        t = p.rounds(calls, parent=(sp.trace_id, sp.span_id))

    serial_s, default_s = t["op", "serial"], t["op", "default"]

    def stage(tag: str, name: str) -> list[float]:
        return t.get((tag, name), [0.0] * len(serial_s))

    main = {name: median_ms(v) for (tag, name), v in t.items() if tag == "main"}
    multiply = [
        f - r - i for f, r, i in zip(
            stage("main", "fuse"), stage("main", "rfftn"), stage("main", "irfftn")
        )
    ]
    covered = [
        sum(full * stage("main", s)[k] + stage("tail", s)[k] for s in OP_STAGES)
        / serial_s[k]
        for k in range(len(serial_s))
    ]
    split_b, _, stitch_b = app_bytes(plan)
    floor_s = full * app_floor_s(plan, host)
    if tail_plan is not None:
        floor_s += app_floor_s(tail_plan, host)
    # The floor runs on as many cores as the op's shards do.
    floor_s /= plan.effective_workers
    default_ms = median_ms(default_s)
    transforms_ms = main["rfftn"] + main["irfftn"]
    return {
        "core.plan.valid_frac": w.points
        / (seg.total_segments * float(np.prod(seg.local_shape))),
        "core.plan.probe_coverage": statistics.median(covered),
        "core.plan.floor_frac": floor_s * 1e3 / default_ms,
        "core.tailoring.split_ms": main["split"],
        "core.tailoring.fuse_ms": main["fuse"],
        "core.tailoring.stitch_ms": main["stitch"],
        "core.tailoring.exchange_ms": main["exchange"],
        "core.tailoring.boundary_fix_ms": main.get("boundary_fix", 0.0),
        "core.tailoring.split_gbps": split_b / main["split"] / 1e6,
        "core.tailoring.stitch_gbps": stitch_b / main["stitch"] / 1e6,
        "parallel.backends.rfftn_ms": main["rfftn"],
        "parallel.backends.irfftn_ms": main["irfftn"],
        "parallel.backends.multiply_ms": median_ms(multiply),
        "parallel.backends.fft_gflops": app_flops(plan) / transforms_ms / 1e6,
        "parallel.sharding.workers": float(plan.effective_workers),
        "parallel.sharding.speedup": statistics.median(
            a / b for a, b in zip(serial_s, default_s)
        ),
        "ladder.workers1": median_ms(serial_s) / w.steps,
    }


def ladder_probe(
    p: Probe, plan: FlashFFTStencil, grid: np.ndarray, ref: np.ndarray
) -> dict[str, float]:
    """ms per step of the same op on each rung, direct stencil first."""
    w = p.w
    kernel = plan.kernel

    def rung(name: str, fn: Callable[[], np.ndarray], reps: int = REPS) -> float:
        p.check(fn(), ref)
        return median_ms(p.sample(name, fn, reps)) / w.steps

    scipy_plan = FlashFFTStencil(
        w.shape, kernel, fused_steps=w.fused_steps, boundary=w.boundary,
        backend="scipy",
    )
    return {
        "ladder.direct": rung(
            "run_stencil", lambda: run_stencil(grid, kernel, w.steps, w.boundary), 3
        ),
        "ladder.whole_fft": rung(
            "apply_fft_stencil",
            lambda: apply_fft_stencil(grid, kernel, w.steps, w.boundary),
            3,
        ),
        "ladder.resident": rung(
            "core.plan.run", lambda: plan.run(grid, w.steps, resident=True)
        ),
        "ladder.scipy": rung("core.plan.run", lambda: scipy_plan.run(grid, w.steps)),
        # The first tuned call searches (untimed, inside ``rung``'s check);
        # later calls replay the persisted winner.
        "ladder.tuned": rung("core.plan.run", lambda: plan.run(grid, w.steps, tune=True)),
    }


# -------------------------------------------------------------- serving


def batch_probe(p: Probe, plan: FlashFFTStencil, pool: list[np.ndarray]) -> dict:
    """``run_many`` over B=8 grids against eight ``run`` calls, per grid."""
    w = p.w
    grids = np.stack(pool[:8])
    singles = [plan.run(g, w.steps) for g in grids]
    many = plan.run_many(grids, w.steps)
    for got, want in zip(many, singles):
        p.check(got, want, exact=True)
    t_many = p.sample("FlashFFTStencil.run_many", lambda: plan.run_many(grids, w.steps))
    t_one = p.sample(
        "core.plan.run", lambda: [plan.run(g, w.steps) for g in grids]
    )
    return {
        "parallel.batch.run_many_ms_per_grid": median_ms(t_many) / len(grids),
        "parallel.batch.run_ms_per_grid": median_ms(t_one) / len(grids),
    }


def serving_probe(p: Probe, seed: int, plan: FlashFFTStencil, pool) -> dict:
    """Traced fixed-rate phases, then the rate ladder for ``max_rps``."""
    oracle = serve_oracle(plan, pool)
    tel = Telemetry()
    phases = {}
    ladder = []

    async def main() -> None:
        server = StencilServer(plan, ServingConfig(), telemetry=tel)
        await server.start()
        try:
            await warm_server(server, pool, oracle, p.outcomes)
            for k, rate in enumerate(TRACE_RATES):
                reqs = make_requests(seed, 1 + k, rate, TRACE_PHASE_S)
                phases[rate] = await open_loop(
                    server, reqs, pool, oracle, rate, tracer=p.tracer
                )
                p.outcomes.add(phases[rate].outcomes)
                await asyncio.sleep(0.2)
            # Rungs overload the server on purpose: refusals and expiries
            # there decide max_rps and are not failures of the run; wrong
            # answers and other errors are.
            for k, rate in enumerate(LADDER_RATES):
                reqs = make_requests(seed, 10 + k, rate, LADDER_STEP_S)
                res = await open_loop(server, reqs, pool, oracle, rate)
                p.outcomes.attempted += res.outcomes.attempted
                p.outcomes.wrong += res.outcomes.wrong
                p.outcomes.errors += res.outcomes.errors
                ok = (
                    res.outcomes.failed == 0
                    and percentile(res.lat_ms, 99.0) <= SLO_P99_MS
                    and drained(res)
                )
                ladder.append({"rate": rate, "ok": ok})
                if not ok:
                    break
                await asyncio.sleep(0.2)
        finally:
            await server.stop()

    asyncio.run(main())
    low, high = (phases[r] for r in TRACE_RATES)
    snap = tel.snapshot()
    counters = snap["counters"]
    obs = snap["observations"]
    batches = obs.get("serve_batch_size", {"sum": 0.0, "count": 0})
    per_grid = obs.get("serve_service_ms_per_grid", {}).get("samples", [])
    inline = counters.get("serving_inline_batches", 0)
    executor = counters.get("serving_executor_batches", 0)
    f32 = counters.get("precision_requests_f32", 0)
    f64 = counters.get("precision_requests_f64", 0)
    passed = [r["rate"] for r in ladder if r["ok"]]
    m = {
        "serving.batch_size_mean": batches["sum"] / max(1, batches["count"]),
        "serving.service_ms_per_grid_p50": percentile(per_grid, 50.0),
        "serving.inline_frac": inline / max(1, inline + executor),
        "serving.submit_us_p50": percentile(high.submit_us, 50.0),
        "serving.rejected": float(low.outcomes.rejected + high.outcomes.rejected),
        "serving.expired": float(low.outcomes.expired + high.outcomes.expired),
        "serving.gen_late_p99_ms": percentile(high.late_ms, 99.0),
        "serving.max_rps": max(passed, default=0.0),
        "analysis.accuracy.precision.f32_frac": f32 / max(1, f32 + f64),
        "analysis.accuracy.precision.escalations": float(
            counters.get("serving_precision_escalations", 0)
        ),
    }
    for rate, res in phases.items():
        tag = f"r{int(rate)}"
        m[f"serving.lat_p50_ms.{tag}"] = percentile(res.lat_ms, 50.0)
        m[f"serving.lat_p99_ms.{tag}"] = percentile(res.lat_ms, 99.0)
    return {"metrics": m, "ladder": ladder, "samples": {
        f"r{int(r)}": len(res.lat_ms) for r, res in phases.items()
    }}


# ----------------------------------------------------------------- entry


def trace(w: Workload, seed: int, spans_path: str) -> dict:
    """The whole traced run for one workload; spans go to ``spans_path``."""
    tracer = Tracer()
    p = Probe(w, tracer)
    plan = build_plan(w)
    if w.serve:
        pool = make_pool(w, seed)
        grid = pool[0]
    else:
        grid = make_grid(w, seed)
    with tracer.span("run_stencil", steps=w.steps):
        ref = run_stencil(grid, plan.kernel, w.steps, boundary=w.boundary)
    op = op_probe(p, plan, grid, ref)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(op["metrics"])
    metrics.update(cold_probe(p, grid, op["op_ms"]))
    host = host_probe(p)
    metrics.update(host)
    metrics.update(layer_probe(p, plan, grid, host))
    metrics.update(ladder_probe(p, plan, grid, ref))
    extra = {}
    if w.serve:
        metrics.update(batch_probe(p, plan, pool))
        served = serving_probe(p, seed, plan, pool)
        metrics.update(served["metrics"])
        extra = {"ladder": served["ladder"], "samples": served["samples"]}
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    tracer.write(Path(spans_path))
    return {
        "metrics": metrics,
        "outcomes": p.outcomes.to_json(),
        "peak_rss_mb": peak_rss_mb(),
        "spans": len(tracer.spans),
        "self_ms": self_ms_by_name(tracer.spans),
        # Run from the checkout's root: shows which sources were measured.
        "repro": os.path.relpath(repro.__file__),
        **extra,
    }
