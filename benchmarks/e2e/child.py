"""One measurement in a fresh process: ``python child.py MODE WORKLOAD SEED ...``.

``run.py`` starts this with every ``REPRO_*`` variable removed and
``REPRO_PLAN_CACHE`` pointed at an empty directory, so neither an inherited
knob nor an on-disk cache can move the numbers.  Modes:

* ``setup`` -- one cold start: import the program, build the plan (and,
  for serving, start the server) and return the first result;
* ``measure`` -- the untimed warm-up, then ``SECONDS`` of timed ops, then
  the oracle checks;
* ``trace`` -- the traced run with the layer probes (see ``probes.py``).

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy  # noqa: F401  (imported before the set-up timer starts)
import scipy.fft  # noqa: F401
import scipy.ndimage  # noqa: F401
import scipy.special  # noqa: F401

from spec import (
    REF_NOMINAL_MS,
    REF_SHAPE,
    REF_TOLERANCE,
    SERVE_STEPS,
    SERVE_TOLERANCE,
    WORKLOADS,
    Workload,
    make_grid,
    make_pool,
    make_requests,
    rel_err,
)
from stats import Outcomes, min_samples, percentile


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def build_plan(w: Workload):
    import repro

    kernel = getattr(repro, w.kernel)()
    return repro.FlashFFTStencil(
        w.shape, kernel, fused_steps=w.fused_steps, boundary=w.boundary
    )


def serve_oracle(plan, pool) -> dict[tuple[int, int], np.ndarray]:
    """Serial ``plan.run`` for every (grid, steps) a request can ask for."""
    return {
        (g, s): plan.run(pool[g], s)
        for g in range(len(pool))
        for s in SERVE_STEPS
    }


async def warm_server(server, pool, oracle, outcomes: Outcomes) -> None:
    """One request of each kind, so lazy set-up (tolerance calibration,
    per-steps plans) finishes before anything is timed."""
    for s in SERVE_STEPS:
        for tol in (None, SERVE_TOLERANCE):
            outcomes.attempted += 1
            got = await server.submit(pool[0], s, tenant="t0", tolerance=tol)
            ok = (
                np.array_equal(got, oracle[(0, s)])
                if tol is None
                else rel_err(got, oracle[(0, s)]) <= tol
            )
            outcomes.wrong += not ok


# ----------------------------------------------------------- host reference


class ReferencePart:
    """The fixed kernel of ``spec.REF_SHAPE``: same inputs every run, and
    every buffer allocated up front, so calls allocate nothing."""

    def __init__(self, seed: int) -> None:
        r = np.random.default_rng(seed)
        rows, n = REF_SHAPE
        self.x = r.standard_normal(REF_SHAPE)
        self.spec = np.empty((rows, n // 2 + 1), dtype=np.complex128)
        self.y = np.empty(REF_SHAPE)
        self.perm = r.permutation(self.x.size)
        self.out = np.empty(self.x.size)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.x, self.spec, self.y, self.perm, self.out))

    def __call__(self) -> None:
        np.fft.rfft(self.x, axis=-1, out=self.spec)
        np.fft.irfft(self.spec, n=REF_SHAPE[1], axis=-1, out=self.y)
        np.take(self.y.reshape(-1), self.perm, out=self.out)


class HostReference:
    """One ``ReferencePart`` per CPU this process may use, run at once.

    The program's default shard pool spreads an op over the same CPUs, so
    a host that slows one of them slows both.  NumPy's transforms and
    gathers release the GIL, so the parts run in parallel.  The extra
    threads live only for the duration of a call.
    """

    def __init__(self) -> None:
        cpus = len(os.sched_getaffinity(0))
        self.parts = [ReferencePart(seed) for seed in range(cpus)]

    @property
    def nbytes(self) -> int:
        return sum(p.nbytes for p in self.parts)

    def __call__(self) -> None:
        helpers = [threading.Thread(target=p) for p in self.parts[1:]]
        for t in helpers:
            t.start()
        self.parts[0]()
        for t in helpers:
            t.join()


def seconds_of(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def serial_reference_ms() -> float:
    """Median of five warm calls of one ``ReferencePart``, nothing else
    running.  A cold start is mostly serial work (imports, planning), and
    a serial reference follows it more closely than one part per CPU."""
    part = ReferencePart(0)
    for _ in range(3):
        part()
    return statistics.median(seconds_of(part) for _ in range(5)) * 1e3


# -------------------------------------------------------------------- setup


def setup(w: Workload, seed: int) -> dict:
    """Cold start, scaled to the reference host's speed by the host
    reference timed just before it."""
    ref_ms = serial_reference_ms()
    wall_s, out = cold_start(w, seed)
    return {
        "setup_s": wall_s * REF_NOMINAL_MS / ref_ms,
        "wall_s": wall_s,
        "ref_ms": ref_ms,
        **out,
    }


def cold_start(w: Workload, seed: int) -> tuple[float, dict]:
    """The timer covers importing the program, building the plan (and
    starting the server) and the first result; NumPy, SciPy and the inputs
    are ready before it."""
    if w.serve:
        grid = make_pool(w, seed)[0]
        t0 = time.perf_counter()
        from repro import ServingConfig, StencilServer

        plan = build_plan(w)

        async def first() -> tuple[np.ndarray, float]:
            server = StencilServer(plan, ServingConfig())
            await server.start()
            try:
                got = await server.submit(grid, w.fused_steps, tenant="t0")
                return got, time.perf_counter()
            finally:
                await server.stop()

        out, t1 = asyncio.run(first())
        ok = np.array_equal(out, plan.run(grid, w.fused_steps))
        return t1 - t0, {"ok": bool(ok)}
    grid = make_grid(w, seed)
    t0 = time.perf_counter()
    plan = build_plan(w)
    out = plan.run(grid, w.steps)
    t1 = time.perf_counter()
    return t1 - t0, {"digest": digest(out)}


# ------------------------------------------------------------------ measure


#: A cycle of the timed loop holds, after its untimed lead op, timed ops for
#: at least this long and at least this many of them.
CYCLE_S = 0.3
CYCLE_OPS = 3


@dataclass
class Timed:
    """Seconds measured by ``timed_ops``."""

    #: Each timed op.
    op_s: list[float] = field(default_factory=list)
    #: Per timed op: the mean of the reference calls around its cycle.
    ref_s: list[float] = field(default_factory=list)
    #: The first op of each cycle, which follows the reference; not timed.
    lead_s: list[float] = field(default_factory=list)


def timed_ops(
    op: Callable[[], np.ndarray], first: np.ndarray, ref: Callable[[], object],
    seconds: float, need: int, outcomes: Outcomes,
    cycle_s: float = CYCLE_S, cycle_ops: int = CYCLE_OPS,
) -> Timed:
    """Closed loop, one client, in cycles, until ``seconds`` have passed and
    at least ``need`` ops are timed.  Every output must equal ``first`` bit
    for bit.

    One call of ``ref`` opens the run and closes every cycle.  A cycle's
    first op comes right after the reference: it is checked, and its time
    is kept apart, but it is not a timed op.  So every timed op follows an
    op of the same workload, as in a plain closed loop, and is scaled by
    the reference calls a fraction of a second before and after it.
    """
    res = Timed()

    def run_op() -> float | None:
        outcomes.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
            print(f"op failed: {e!r}", file=sys.stderr)
            outcomes.errors += 1
            return None
        dt = time.perf_counter() - t0
        outcomes.wrong += not np.array_equal(out, first)
        return dt

    def going() -> bool:
        return outcomes.errors <= need

    gc.collect()
    t_end = time.perf_counter() + seconds
    before = seconds_of(ref)
    while going() and (time.perf_counter() < t_end or len(res.op_s) < need):
        lead = run_op()
        if lead is not None:
            res.lead_s.append(lead)
        cycle: list[float] = []
        t_cycle = time.perf_counter() + cycle_s
        while going() and (time.perf_counter() < t_cycle or len(cycle) < cycle_ops):
            dt = run_op()
            if dt is not None:
                cycle.append(dt)
        after = seconds_of(ref)
        res.op_s += cycle
        res.ref_s += [(before + after) / 2] * len(cycle)
        before = after
    return res


def measure_batch(w: Workload, seed: int, seconds: float) -> dict:
    """Ops until ``seconds`` have passed and the tail percentile has ten
    samples beyond it, then the oracle check of the first output."""
    from repro import run_stencil

    # Resident for the whole run, so its bytes come off the peak exactly.
    host_ref = HostReference()
    host_ref()
    grid = make_grid(w, seed)
    plan = build_plan(w)
    outcomes = Outcomes(attempted=1)
    first = plan.run(grid, w.steps)
    t = timed_ops(
        lambda: plan.run(grid, w.steps), first, host_ref, seconds,
        min_samples(w.tail_pct), outcomes,
    )
    rss = peak_rss_mb() - host_ref.nbytes / 2**20
    err = rel_err(first, run_stencil(grid, plan.kernel, w.steps, boundary=w.boundary))
    outcomes.wrong += not err <= REF_TOLERANCE
    ratios = [o / r for o, r in zip(t.op_s, t.ref_s)]
    ms = [o * 1e3 for o in t.op_s]
    return {
        "op_ms_p50": percentile(ratios, 50.0) * REF_NOMINAL_MS,
        "op_ms_tail": percentile(ratios, w.tail_pct) * REF_NOMINAL_MS,
        "ops": len(ms),
        "wall_ms_p50": percentile(ms, 50.0),
        "wall_ms_tail": percentile(ms, w.tail_pct),
        "lead_ms_p50": percentile([o * 1e3 for o in t.lead_s], 50.0),
        "ref_ms_p50": percentile([r * 1e3 for r in t.ref_s], 50.0),
        "workers": plan.effective_workers,
        "peak_rss_mb": rss,
        "ref_err": err,
        "digest": digest(first),
        "outcomes": outcomes.to_json(),
    }


def measure_serve(w: Workload, seed: int, seconds: float) -> dict:
    """Open loop at the workload's rate for ``seconds`` (longer if the tail
    percentile would otherwise lack ten samples beyond it)."""
    from repro import ServingConfig, StencilServer

    from serve import open_loop

    pool = make_pool(w, seed)
    plan = build_plan(w)
    oracle = serve_oracle(plan, pool)
    span_s = max(seconds, 1.2 * min_samples(w.tail_pct) / w.rate)
    reqs = make_requests(seed, 0, w.rate, span_s)
    outcomes = Outcomes()

    async def main():
        server = StencilServer(plan, ServingConfig())
        await server.start()
        try:
            await warm_server(server, pool, oracle, outcomes)
            gc.collect()
            return await open_loop(server, reqs, pool, oracle, w.rate)
        finally:
            await server.stop()

    res = asyncio.run(main())
    rss = peak_rss_mb()
    outcomes.add(res.outcomes)
    return {
        "op_ms_p50": percentile(res.lat_ms, 50.0),
        "op_ms_tail": percentile(res.lat_ms, w.tail_pct),
        "ops": len(res.lat_ms),
        "peak_rss_mb": rss,
        "gen_late_p99_ms": percentile(res.late_ms, 99.0),
        "backlog": res.backlog,
        "outcomes": outcomes.to_json(),
    }


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    w = WORKLOADS[name]
    if mode == "setup":
        result = setup(w, seed)
    elif mode == "measure":
        seconds = float(argv[3])
        measure = measure_serve if w.serve else measure_batch
        result = measure(w, seed, seconds)
    elif mode == "trace":
        from probes import trace

        result = trace(w, seed, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
