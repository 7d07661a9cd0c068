"""Model-based pruning: rank candidates before spending live traffic.

Every paired trial costs real applications of real user traffic, so the
tuner cannot afford to time the whole candidate space.  This module ranks
candidates with the analytic machinery the repo already trusts — the
gpusim roofline bound (:func:`~repro.gpusim.roofline.execution_time` over
a :class:`~repro.gpusim.roofline.KernelCost`), the 8x4 fragment-padding
model (via :func:`~repro.analysis.sparsity.fragment_density`), and the
kernel tap-density sparsity signal
(:func:`~repro.analysis.sparsity.kernel_tap_density`, the SPIDER /
SparStencil motivation) — plus coarse host-side efficiency terms for
thread sharding, process ranks, and batch amortisation.  Only the top few
survivors graduate to interleaved timing; the model's job is *ordering*,
not absolute prediction, and mis-ranked survivors are harmless because
the measured incumbent always stays in the trial set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..analysis.sparsity import fragment_density, kernel_tap_density
from ..core.pfa import best_coprime_split, coprime_splits
from ..core.plan import default_tile
from ..core.precision import real_dtype
from ..core.tailoring import SegmentPlan
from ..errors import PlanError
from ..gpusim.roofline import KernelCost, execution_time
from ..parallel.sharding import cpu_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import FlashFFTStencil
    from .space import TunerCandidate

__all__ = ["predicted_seconds", "prune_candidates"]

#: Diminishing-returns efficiency of each extra thread-shard worker
#: (pocketfft releases the GIL, but split/stitch serialise partially).
_THREAD_EFF = 0.75
#: Same for process ranks (dispatch + shared-memory round trips).
_PROC_EFF = 0.65
#: Modelled per-application Python dispatch overhead, amortised by the
#: micro-batch width (one batched pass serves B grids).
_DISPATCH_S = 2e-4


def _window_geometry(
    plan: "FlashFFTStencil", cand: "TunerCandidate"
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(valid, local) window shapes the candidate's plan would run.

    Resolved by the plan's own rules without building a plan: an
    explicit candidate tile is honoured, otherwise
    :func:`~repro.core.plan.default_tile` picks it (host slabs or Eq. (5))
    for the candidate's fusion depth, and :class:`SegmentPlan` applies its
    halo rule — so the model prices the windows the host will run.
    Raises :class:`PlanError` for infeasible depths (halo swallows the
    window), which :func:`prune_candidates` treats as "discard".
    """
    if cand.tile is not None:
        tile = tuple(int(t) for t in cand.tile)
    else:
        tile, _ = default_tile(
            plan.grid_shape,
            plan.kernel,
            cand.fused_steps,
            plan.boundary,
            plan.gpu,
            plan.precision,
        )
    if any(v < 1 for v in tile):
        raise PlanError(f"empty valid tile {tile} for T={cand.fused_steps}")
    seg = SegmentPlan(
        plan.grid_shape,
        plan.kernel,
        cand.fused_steps,
        tile,
        plan.boundary,
        plan.precision,
    )
    return seg.valid_shape, seg.local_shape


def predicted_seconds(
    plan: "FlashFFTStencil",
    cand: "TunerCandidate",
    total_steps: int,
) -> float:
    """Modelled wall-clock seconds for the whole ``total_steps`` run.

    The per-application core is a roofline bound over modelled transform
    flops (PFA for the innermost axis, dense DFT for middle axes, banded
    accumulation along axis 0) and overlap-save traffic (halo read
    amplification; residency removes the per-application grid round trip
    at the price of the stale-halo exchange).  Transform flops are
    de-rated by the fragment density of the window's DFT matrices and by
    the kernel's tap density — a near-empty footprint box means the dense
    spectral multiply is doing amortised work that the traffic term, not
    the flop term, bounds.  Host-side effects (thread/process efficiency,
    dispatch amortised over the batch) scale the bound.
    """
    valid, local = _window_geometry(plan, cand)
    points = float(np.prod(plan.grid_shape)) * max(1, cand.batch)
    applications = max(1, -(-int(total_steps) // cand.fused_steps))
    amp = float(np.prod([l / v for l, v in zip(local, valid)]))
    rsize = real_dtype(plan.precision).itemsize

    # --- transform flops per point ------------------------------------
    l_last = local[-1]
    if len(local) == 1:
        if coprime_splits(l_last):
            n1, n2 = best_coprime_split(l_last)
            transform = 8.0 * (n1 + n2)
        else:
            transform = 8.0 * l_last
        band = 0.0
    else:
        middle = local[1:-1]
        if coprime_splits(l_last):
            n1, n2 = best_coprime_split(l_last)
            transform = 8.0 * (sum(middle) + n1 + n2)
        else:
            transform = 8.0 * (sum(middle) + l_last)
        band = 4.0 * (2 * cand.fused_steps * plan.kernel.radius[0] + 1)
    dense = max(0.05, fragment_density(l_last))
    taps = kernel_tap_density(plan.kernel)
    # Sparse kernels shift merit toward the traffic term: the spectral
    # multiply's flops are amortised regardless of tap count, so the flop
    # term is weighted by how much of the footprint box is live.
    flops_pt = (transform * amp / dense) * (0.5 + 0.5 * taps) + band * amp

    # --- HBM traffic per point ----------------------------------------
    bytes_pt = rsize * amp + rsize          # window gather + stitch write
    if cand.resident or cand.processes > 1:
        # Resident iteration (the process engine is inherently resident)
        # replaces the grid round trip with the stale-halo exchange.
        stale = max(0.0, amp - 1.0)
        bytes_pt += rsize * 2.0 * min(1.0, stale)
    else:
        bytes_pt += rsize * 2.0             # stitch→re-split round trip

    cost = KernelCost(
        flops=flops_pt * points * applications,
        bytes=bytes_pt * points * applications,
        launches=applications,
        use_tensor_cores=True,
        compute_efficiency=dense,
        memory_efficiency=0.95,
        label=cand.label(),
    )
    t = execution_time(cost, plan.gpu)

    # --- host-side scaling --------------------------------------------
    cpus = cpu_count()
    workers = cand.workers if cand.workers >= 1 else cpus
    # Shards split the axis-0 tiles, so no more threads run than there are.
    tiles0 = -(-plan.grid_shape[0] // valid[0])
    threads = max(1, min(workers, cpus, tiles0))
    fft_threads = 1
    if ":" in cand.backend:
        try:
            fft_threads = max(1, min(int(cand.backend.rsplit(":", 1)[1]), cpus))
        except ValueError:
            fft_threads = 1
    parallel = max(threads, fft_threads)
    eff = 1.0 + _THREAD_EFF * (parallel - 1)
    if cand.processes > 1:
        ranks = min(cand.processes, cpus)
        eff = max(eff, 1.0 + _PROC_EFF * (ranks - 1))
        t += 5e-3 * ranks  # pool dispatch amortised over the run
    t /= eff
    t += _DISPATCH_S * applications / max(1, cand.batch)
    return t


def prune_candidates(
    plan: "FlashFFTStencil",
    candidates: "list[TunerCandidate]",
    total_steps: int,
    keep: int,
) -> "list[TunerCandidate]":
    """Model-ranked survivors, the static incumbent always first.

    ``candidates[0]`` is by construction the static incumbent
    (:func:`~repro.tuner.space.static_candidate`); it never gets pruned,
    so the trial stage can always fall back to it.  Candidates whose
    geometry is infeasible (Eq. (4) leaves no valid points) are dropped
    outright.
    """
    if not candidates:
        return []
    static = candidates[0]
    scored: list[tuple[float, int]] = []
    for idx, cand in enumerate(candidates[1:], start=1):
        try:
            scored.append((predicted_seconds(plan, cand, total_steps), idx))
        except PlanError:
            continue
    scored.sort()
    survivors = [static]
    for _, idx in scored[: max(0, keep - 1)]:
        survivors.append(candidates[idx])
    return survivors
