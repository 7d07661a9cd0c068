"""Batched multi-grid serving: one fused FFT pass for B independent grids.

A serving deployment rarely advances one giant grid; it advances *many*
small ones — per-tenant simulation states, ensemble members, mini-batch
samples.  Running them one ``run()`` call at a time pays the per-call
fixed costs (Python dispatch, plan checks, buffer setup, FFT launch) B
times for work the transform library would happily batch.  ``apply_many``
stacks the B window batches into one ``(B * total_segments,
*local_shape)`` batch, so split, FFT → multiply → iFFT, and stitch each
run **once** per application regardless of B — the batched-execution
discipline the cuFFT overlap-save baselines treat as table stakes.

Because batch rows transform independently, the batched result is
bit-identical to the per-grid loop; grids are stacked, never summed.

Double-layer Filling (§3.2.3) composes naturally: with ``double_layer=
True`` grid *pairs* are packed into the real and imaginary layers of one
complex window batch (:func:`repro.core.double_layer.pack_pair` applied
window-wise), so B grids ride ``ceil(B/2)`` complex transform pipelines —
exactly the halving of transform passes the paper prescribes for real
data (an odd final grid takes the real-FFT path).  Host-side NumPy prices
a complex transform at ~2 real ones, so this path is about technique
fidelity and TCU-facing layout, not host speed; it stays within 1e-12 of
the real path.

``run_many`` iterates ``apply_many`` with ping-pong output stacks and a
batch-sized :class:`~repro.parallel.arena.WorkspaceArena`, handling the
remainder ``total_steps % fused_steps`` through the same cached tail plan
as ``run()``.  With ``workers > 1`` the *grid axis* is sharded: each
worker serves a disjoint chunk of tenants end-to-end (grids are
independent, so this needs no barrier at all).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import PlanError
from ..observability import NULL_TELEMETRY, Telemetry
from ..robustness.guards import check_array
from .arena import WorkspaceArena
from .sharding import _pool, choose_workers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import FlashFFTStencil

__all__ = ["apply_many", "run_many", "serve_batch"]


def _as_grid_list(
    plan: "FlashFFTStencil", grids: "np.ndarray | Sequence[np.ndarray]"
) -> list[np.ndarray]:
    """Normalise a ``(B, *grid)`` stack or sequence to per-grid views."""
    if isinstance(grids, np.ndarray) and grids.ndim == len(plan.grid_shape) + 1:
        seq: Sequence[np.ndarray] = list(grids)
    else:
        seq = list(grids)
    if not seq:
        raise PlanError("apply_many/run_many need at least one grid")
    out = []
    for b, g in enumerate(seq):
        # Coerce to the plan tier's dtype: a float32 plan keeps float32
        # inputs single precision end to end (no silent upcast), a float64
        # plan coerces exactly as before.
        g = np.ascontiguousarray(g, dtype=plan.dtype)
        if g.shape != plan.grid_shape:
            raise PlanError(
                f"grid {b} has shape {g.shape} != plan {plan.grid_shape}"
            )
        out.append(g)
    return out


def _fuse_batch_packed(plan: "FlashFFTStencil", windows: np.ndarray, batch: int) -> np.ndarray:
    """Double-layer fuse: pack window pairs as complex, one pass per pair."""
    seg = plan.segments
    s = seg.total_segments
    local = seg.local_shape
    axes = tuple(range(1, 1 + len(local)))
    pairs = batch // 2
    w = windows.reshape((batch, s) + local)
    # z rows carry grid 2i in the real layer and grid 2i+1 in the imaginary
    # layer — pack_pair applied to the stacked window batch.
    z = (w[0 : 2 * pairs : 2] + 1j * w[1 : 2 * pairs : 2]).reshape(
        (pairs * s,) + local
    )
    backend = plan._backend
    zf = backend.fftn(z, axes)
    zf *= seg.fused_spectrum()
    filtered = backend.ifftn(zf, axes).reshape((pairs, s) + local)
    fused = np.empty((batch, s) + local, dtype=plan.dtype)
    fused[0 : 2 * pairs : 2] = filtered.real
    fused[1 : 2 * pairs : 2] = filtered.imag
    if batch % 2:
        # Odd tenant out: no partner to pack, take the half-spectrum path.
        fused[batch - 1] = seg.fuse(w[batch - 1], backend=backend)
    return fused.reshape((batch * s,) + local)


def apply_many(
    plan: "FlashFFTStencil",
    grids: "np.ndarray | Sequence[np.ndarray]",
    out: np.ndarray | None = None,
    *,
    double_layer: bool = False,
    telemetry: Telemetry | None = None,
    arena: WorkspaceArena | None = None,
) -> np.ndarray:
    """One fused application of ``plan`` to B independent grids at once.

    Returns a ``(B, *grid_shape)`` stack; ``out`` (optional, same shape)
    receives it in place and must not share memory with any input grid
    (the batched stitch interleaves writes across grids, so the serial
    path's aliasing guarantees do not transfer).
    """
    gs = _as_grid_list(plan, grids)
    batch = len(gs)
    seg = plan.segments
    s = seg.total_segments
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    if out is None:
        out = np.empty((batch,) + plan.grid_shape, dtype=plan.dtype)
    else:
        if out.shape != (batch,) + plan.grid_shape or out.dtype != plan.dtype:
            raise PlanError(
                f"out must be {plan.dtype} {(batch,) + plan.grid_shape}, "
                f"got {out.dtype} {out.shape}"
            )
        for b, g in enumerate(gs):
            if np.shares_memory(out, g):
                raise PlanError(
                    f"apply_many out must not alias input grid {b}"
                )
    if arena is not None and not arena.fits(seg, batch=batch):
        raise PlanError("arena geometry/batch does not match this call")
    windows = (
        arena.windows
        if arena is not None
        else np.empty((batch * s,) + seg.local_shape, dtype=plan.dtype)
    )
    scratch = arena.padded if arena is not None else None
    with tel.span("split"):
        for b, g in enumerate(gs):
            seg.split(g, out=windows[b * s : (b + 1) * s], scratch=scratch)
    with tel.span("fuse"):
        if double_layer and batch >= 2:
            fused = _fuse_batch_packed(plan, windows, batch)
        else:
            fused = seg.fuse(windows, backend=plan._backend)
    with tel.span("stitch"):
        for b in range(batch):
            slab = fused[b * s : (b + 1) * s]
            np.take(slab.reshape(-1), seg._stitch_flat, out=out[b])
    if seg.boundary == "zero" and seg.steps > 1:
        with tel.span("boundary_fix"):
            for b, g in enumerate(gs):
                seg.fix_zero_boundary_band(g, out[b])
    if tel.enabled:
        tel.count("applications", 1)
        tel.count("batched_applies", 1)
        tel.count("grids_served", batch)
        tel.count("windows", batch * s)
        tel.count("fft_batches", 1)
        tel.count("points_stitched", batch * int(np.prod(plan.grid_shape)))
    return out


def _run_many_resident(
    plan: "FlashFFTStencil",
    gs: list[np.ndarray],
    full: int,
    rem: int,
    double_layer: bool,
    tel: Telemetry,
) -> np.ndarray:
    """Serve one chunk of grids with the stacked window batch resident.

    One batched split at entry and one batched stitch at exit; between the
    ``full`` applications every grid's windows refresh their halos in
    place through the shared :class:`~repro.core.tailoring.
    HaloExchangePlan` (its index maps broadcast over the B stacked window
    batches, since each batch row block is an independent grid).
    Bit-identical to the stitch-per-application loop; the remainder runs
    through :func:`apply_many` on the cached tail plan, as everywhere.
    """
    batch = len(gs)
    seg = plan.segments
    s = seg.total_segments
    arena = WorkspaceArena(seg, batch=batch)
    ex = seg.exchange_plan()
    zero_fix = seg.boundary == "zero" and seg.steps > 1
    cur = arena.windows
    with tel.span("split"):
        for b, g in enumerate(gs):
            seg.split(g, out=cur[b * s : (b + 1) * s], scratch=arena.padded)
    for k in range(full):
        with tel.span("fuse"):
            if double_layer and batch >= 2:
                fused = _fuse_batch_packed(plan, cur, batch)
            else:
                fused = seg.fuse(cur, backend=plan._backend)
        if tel.enabled:
            tel.count("applications", 1)
            tel.count("batched_applies", 1)
            tel.count("grids_served", batch)
            tel.count("windows", batch * s)
            tel.count("fft_batches", 1)
        if zero_fix:
            with tel.span("boundary_fix"):
                for b in range(batch):
                    seg.fix_zero_boundary_band_windows(
                        cur[b * s : (b + 1) * s], fused[b * s : (b + 1) * s]
                    )
        if k + 1 < full:
            with tel.span("exchange"):
                ex.refresh(fused, telemetry=tel)
            if tel.enabled:
                tel.count("hbm_round_trips_saved", 1)
        cur = fused
    out = np.empty((batch,) + plan.grid_shape, dtype=plan.dtype)
    with tel.span("stitch"):
        for b in range(batch):
            slab = cur[b * s : (b + 1) * s]
            np.take(slab.reshape(-1), seg._stitch_flat, out=out[b])
    if tel.enabled:
        tel.count("points_stitched", batch * int(np.prod(plan.grid_shape)))
    if rem:
        tail = plan._tail_plan(rem, tel)
        with tel.span("tail"):
            out = apply_many(
                tail, out, double_layer=double_layer, telemetry=tel
            )
    return out


def _run_many_chunk(
    plan: "FlashFFTStencil",
    gs: list[np.ndarray],
    total_steps: int,
    double_layer: bool,
    tel: Telemetry,
    resident: bool = False,
) -> np.ndarray:
    """Serve one chunk of grids end-to-end (serial over applications)."""
    batch = len(gs)
    full, rem = divmod(total_steps, plan.fused_steps)
    if full == 0 and rem == 0:
        return np.stack(gs)
    if resident and full >= 2:
        return _run_many_resident(plan, gs, full, rem, double_layer, tel)
    arena = WorkspaceArena(plan.segments, batch=batch)
    bufs = (
        np.empty((batch,) + plan.grid_shape, dtype=plan.dtype),
        np.empty((batch,) + plan.grid_shape, dtype=plan.dtype),
    )
    which = 0
    cur: "list[np.ndarray] | np.ndarray" = gs
    for _ in range(full):
        apply_many(
            plan,
            cur,
            out=bufs[which],
            double_layer=double_layer,
            telemetry=tel,
            arena=arena,
        )
        cur = bufs[which]
        which ^= 1
    if rem:
        tail = plan._tail_plan(rem, tel)
        with tel.span("tail"):
            apply_many(
                tail, cur, out=bufs[which], double_layer=double_layer, telemetry=tel
            )
        cur = bufs[which]
    assert isinstance(cur, np.ndarray)
    return cur


def run_many(
    plan: "FlashFFTStencil",
    grids: "np.ndarray | Sequence[np.ndarray]",
    total_steps: int,
    *,
    double_layer: bool = False,
    workers: int | None = None,
    telemetry: Telemetry | None = None,
    resident: bool | None = None,
    processes: int | None = None,
    injector=None,
    tolerance: float | None = None,
    tune: bool | None = None,
) -> np.ndarray:
    """Advance B independent grids by ``total_steps`` in batched passes.

    ``tolerance`` opts the whole batch into accuracy-budget routing: the
    batch executes on the cheapest precision tier whose modeled error
    meets the budget, with a cadenced drift probe on one batch row
    escalating back to float64 on a breach (see
    :class:`repro.analysis.accuracy.PrecisionRouter`).

    Equivalent to ``np.stack([plan.run(g, total_steps) for g in grids])``
    — bit-identically on the default real path — but amortising per-call
    overheads across the batch.  ``workers`` shards the *grid axis*: each
    worker serves a disjoint tenant chunk end-to-end (defaults to the
    :func:`~repro.parallel.sharding.choose_workers` autotune over the
    stacked window points; small batches run serial).  ``resident`` keeps
    each chunk's stacked window batch resident across full applications —
    halo exchange instead of stitch + re-split, still bit-identical —
    and ``None`` consults ``$REPRO_RESIDENT``.  ``processes`` shards the
    grid axis across worker *processes* through shared memory instead
    (``None`` consults ``$REPRO_PROCS``, ``0`` autotunes; GIL-free, so it
    scales where thread sharding saturates).  ``double_layer`` pairs
    grids across the whole batch, so it keeps the thread-sharded path.
    """
    if total_steps < 0:
        raise PlanError(f"total_steps must be >= 0, got {total_steps}")
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    if tune is None:
        from ..tuner import autotune_default

        # The env default yields silently to any explicitly pinned knob
        # (the $REPRO_RESIDENT / $REPRO_PROCS convention); double-layer
        # packing and fault injection pin the execution path too.
        tune = (
            autotune_default()
            and tolerance is None
            and resident is None
            and processes is None
            and workers is None
            and injector is None
            and not double_layer
        )
    elif tune:
        if tolerance is not None or injector is not None or double_layer:
            raise PlanError(
                "tune=True is incompatible with tolerance=, injector=, "
                "and double_layer (they pin the execution path)"
            )
        if resident is not None or processes is not None or workers is not None:
            raise PlanError(
                "tune=True is incompatible with explicit workers=/"
                "resident=/processes=: they are tuner dimensions"
            )
    if tune:
        from ..tuner import get_default_tuner

        return get_default_tuner().run_many(
            plan, grids, total_steps, telemetry=tel,
            double_layer=double_layer,
        )
    if tolerance is not None:
        return plan.router().run_many(
            grids,
            total_steps,
            tolerance,
            telemetry=tel,
            double_layer=double_layer,
            workers=workers,
            resident=resident,
        )
    if resident is None:
        from ..core.plan import resident_default

        resident = resident_default()
    gs = _as_grid_list(plan, grids)
    batch = len(gs)
    from ..distributed.engine import choose_processes

    points = int(np.prod(plan.grid_shape))
    if plan.precision != "float64":
        # The shared-memory process engine is float64-only; explicit
        # multi-process requests fail loudly, autotune/env degrade to the
        # thread-sharded path (same policy as FlashFFTStencil.run).
        if processes is not None and int(processes) > 1:
            raise PlanError(
                "processes > 1 requires the float64 tier: the shared-memory "
                f"process engine is double-precision only, plan is "
                f"{plan.precision}"
            )
        procs = 1
    else:
        procs = choose_processes(batch * points, batch, processes)
    if procs > 1 and not double_layer:
        from ..distributed.engine import run_many_processes

        return run_many_processes(
            plan, gs, total_steps, procs, telemetry=telemetry,
            injector=injector,
        )
    w = choose_workers(batch * plan.segments.window_points, workers)
    w = min(w, batch)
    if w <= 1:
        return _run_many_chunk(
            plan, gs, total_steps, double_layer, tel, resident
        )
    chunks = [c for c in np.array_split(np.arange(batch), w) if len(c)]
    enabled = tel.enabled

    def serve(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray, Telemetry]:
        wtel = Telemetry() if enabled else NULL_TELEMETRY
        res = _run_many_chunk(
            plan,
            [gs[i] for i in chunk],
            total_steps,
            double_layer,
            wtel,
            resident,
        )
        return chunk, res, wtel

    out = np.empty((batch,) + plan.grid_shape, dtype=plan.dtype)
    for chunk, res, wtel in _pool(len(chunks)).map(serve, chunks):
        out[chunk[0] : chunk[-1] + 1] = res
        if enabled:
            tel.merge(wtel)
    if enabled:
        tel.count("batch_worker_chunks", len(chunks))
        tel.record_cache("batch_sharding", workers=len(chunks), grids=batch)
    return out


def serve_batch(
    plan: "FlashFFTStencil",
    grids: "np.ndarray | Sequence[np.ndarray]",
    total_steps: int,
    *,
    double_layer: bool = False,
    workers: int | None = None,
    telemetry: Telemetry | None = None,
    processes: int | None = None,
    guards=None,
    injector=None,
) -> list[np.ndarray]:
    """The micro-batcher → ``run_many`` handoff: serve one coalesced batch.

    :class:`repro.serving.StencilServer` coalesces same-``total_steps``
    requests and hands the grid list here; the return is a *list* of
    per-request result rows (the freshly allocated output stack is never
    reused, so the rows are safe to hand to independent futures).
    Numerically this is exactly ``run_many``; the extra span/counters
    give the serving layer its own telemetry trail.

    ``processes`` forwards to ``run_many`` (``None`` consults
    ``$REPRO_PROCS``) so the batcher's circuit breaker can pick the
    execution mode per dispatch.  ``guards`` (a
    :class:`~repro.robustness.GuardPolicy`) validates the stacked output:
    one request whose numerics blow up poisons the whole stack, and the
    resulting :class:`~repro.errors.NumericalError` is what lets the
    batcher's bisection retry isolate the culprit instead of failing all
    co-batched tenants.  ``injector`` ships process-level chaos faults to
    the scale-out path.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span("serve_batch"):
        stack = run_many(
            plan,
            grids,
            total_steps,
            double_layer=double_layer,
            workers=workers,
            telemetry=tel,
            processes=processes,
            injector=injector,
        )
        if guards is not None and guards.enabled and guards.check_outputs:
            check_array(stack, "serving batch output", guards, tel)
    if tel.enabled:
        tel.count("serving_batches", 1)
        tel.count("serving_batch_grids", stack.shape[0])
    return list(stack)
