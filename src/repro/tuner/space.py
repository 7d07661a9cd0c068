"""The joint configuration space the online tuner searches.

A :class:`TunerCandidate` pins every runtime knob that shapes throughput
without shaping numerics *for a fixed plan configuration*: temporal fusion
depth, valid-tile override, FFT backend (and its transform-thread count),
shard workers, segment residency, process ranks, and the ``run_many``
micro-batch width.  :func:`candidate_space` seeds the search from the
static heuristics the library already trusts —
:func:`~repro.core.plan.default_tile` for geometry (host slabs or
Eq. (5)), :func:`~repro.parallel.sharding.choose_workers` for thread
sharding,
:func:`~repro.distributed.engine.choose_processes` for ranks, and
:func:`~repro.core.plan.resident_default` for residency — then varies one
coordinate at a time around that incumbent.  Coordinate variation keeps
the space linear in the number of knobs (a dozen-odd candidates, not the
hundreds a full cross product would breed) while still containing every
single-knob improvement the model or the trials could surface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from ..parallel.sharding import choose_workers, cpu_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import FlashFFTStencil

__all__ = ["TunerCandidate", "candidate_space", "static_candidate"]


@dataclass(frozen=True)
class TunerCandidate:
    """One point of the joint configuration space.

    ``tile=None`` means "let the plan's
    :func:`~repro.core.plan.default_tile` rule pick"; an explicit tuple
    pins the valid-tile shape.  ``workers=0`` means autotune from window
    points at execution time; ``processes`` is always concrete (1 =
    in-process).  ``batch`` is the ``run_many`` / serving micro-batch
    width — carried in the candidate so a persisted winner replays the
    whole configuration, but only varied by batched workloads.
    """

    fused_steps: int
    tile: tuple[int, ...] | None
    backend: str
    workers: int
    resident: bool
    processes: int
    batch: int = 1

    def label(self) -> str:
        """Compact human-readable rendering for telemetry and reports."""
        bits = [f"T={self.fused_steps}", self.backend]
        bits.append("w=auto" if self.workers == 0 else f"w={self.workers}")
        if self.tile is not None:
            bits.append("tile=" + "x".join(str(t) for t in self.tile))
        if self.resident:
            bits.append("resident")
        if self.processes > 1:
            bits.append(f"procs={self.processes}")
        if self.batch > 1:
            bits.append(f"B={self.batch}")
        return ",".join(bits)

    def to_json(self) -> dict:
        """JSON-safe dict for :class:`~repro.serving.plancache.PlanDiskCache`."""
        return {
            "fused_steps": int(self.fused_steps),
            "tile": list(self.tile) if self.tile is not None else None,
            "backend": self.backend,
            "workers": int(self.workers),
            "resident": bool(self.resident),
            "processes": int(self.processes),
            "batch": int(self.batch),
        }

    @classmethod
    def from_json(cls, data: dict) -> "TunerCandidate":
        tile = data.get("tile")
        return cls(
            fused_steps=int(data["fused_steps"]),
            tile=tuple(int(t) for t in tile) if tile is not None else None,
            backend=str(data["backend"]),
            workers=int(data["workers"]),
            resident=bool(data["resident"]),
            processes=int(data["processes"]),
            batch=int(data.get("batch", 1)),
        )


def static_candidate(
    plan: "FlashFFTStencil", total_steps: int, batch: int = 1
) -> TunerCandidate:
    """The incumbent: exactly what the static heuristics would run.

    This is the baseline every challenger must beat — the tuner's
    "never slower than static" guarantee is enforced by keeping this
    candidate in every trial set and falling back to it whenever no
    challenger wins by a clear margin.
    """
    from ..core.plan import resident_default
    from ..distributed.engine import backend_spec, choose_processes

    points = int(np.prod(plan.grid_shape)) * max(1, int(batch))
    tiles = plan.segments.num_segments[0]
    return TunerCandidate(
        fused_steps=plan.fused_steps,
        tile=plan._tile_override,
        backend=backend_spec(plan.backend),
        workers=plan.effective_workers,
        resident=resident_default(),
        processes=choose_processes(points, tiles, None),
        batch=max(1, int(batch)),
    )


def candidate_space(
    plan: "FlashFFTStencil", total_steps: int, batch: int = 1
) -> list[TunerCandidate]:
    """Static incumbent first, then single-coordinate variations of it.

    Knobs varied:

    * **fusion depth** — halve and double around the plan's ``T`` (deeper
      fusion amortises transforms but inflates halos; Eq. (4) feasibility
      is re-checked at plan-build time, so infeasible depths simply drop
      out during pruning/measurement);
    * **backend** — every registered provider, plus a transform-threaded
      ``scipy:N`` spec when more than one CPU is visible;
    * **workers** — serial, the :func:`choose_workers` autotune, and
      all-cores (thread sharding along the segment axis);
    * **resident** — both polarities (residency trades stitch round trips
      for halo exchanges; which wins depends on the halo fraction);
    * **processes** — in-process vs. the rank count
      :func:`choose_processes` would pick under explicit autotune
      (float64 plans only — the shared-memory engine's contract).

    The batch width is *not* varied here: single-``run`` workloads have no
    batch axis, and batched callers (``run_many`` / serving) vary it
    themselves via their own candidate sets.
    """
    from ..distributed.engine import choose_processes

    static = static_candidate(plan, total_steps, batch=batch)
    out: list[TunerCandidate] = [static]
    seen = {static}

    def add(cand: TunerCandidate) -> None:
        if cand not in seen:
            seen.add(cand)
            out.append(cand)

    # Fusion depth: the paper's central knob.  Varying T changes the
    # fused spectrum power, so candidates at other depths are measured
    # against their own serial reference, never bit-compared to the
    # incumbent's output.  One coordinate moves at a time: an explicit
    # plan tile is kept (the halo grows into it, which the model sees as
    # read amplification); only auto-tiled plans re-tune their geometry
    # at the new depth.  Depths whose halo leaves no valid points are
    # discarded at pruning / plan-build time.
    for fused in (plan.fused_steps // 2, plan.fused_steps * 2):
        if 1 <= fused <= max(1, int(total_steps)):
            add(replace(static, fused_steps=fused, tile=static.tile))

    cpus = cpu_count()

    # FFT backend: every registered provider is numerically
    # interchangeable (<= 1e-12), so backend is a pure throughput knob.
    from ..parallel.backends import available_backends

    for name in available_backends():
        add(replace(static, backend=name))
    if cpus > 1:
        add(replace(static, backend=f"scipy:{min(cpus, 4)}"))

    # Shard workers: serial, the heuristic, all cores — counted on the
    # windows the plan runs (at most one worker per axis-0 tile).
    tiles0 = plan.segments.num_segments[0]
    auto_workers = min(choose_workers(plan.segments.window_points), tiles0)
    for w in {1, auto_workers, min(cpus, tiles0)}:
        if w >= 1:
            add(replace(static, workers=w))

    # Residency.
    add(replace(static, resident=not static.resident))

    # Process ranks (float64 only; the shared-memory batch is double).
    if plan.precision == "float64" and cpus > 1:
        points = int(np.prod(plan.grid_shape)) * max(1, int(batch))
        ranks = choose_processes(points, plan.segments.num_segments[0], 0)
        if ranks > 1:
            add(replace(static, processes=ranks, resident=False))

    return out
