"""Multi-GPU scaling cost model: compute/communication overlap per rank.

Per fused application, each rank pays

    t_app = max( local FlashFFTStencil cost , halo bytes / link bandwidth )
            + link latency

(halo exchange overlaps with interior compute, the standard pattern), so
strong scaling saturates when halo traffic catches up with the shrinking
per-rank compute — the crossover this model locates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.kernels import StencilKernel
from ..core.plan import FlashFFTStencil
from ..errors import PlanError
from ..gpusim.roofline import execution_time
from ..gpusim.spec import A100, GPUSpec
from .decomposition import SlabDecomposition

__all__ = [
    "HOST_SHM",
    "Interconnect",
    "NVLINK4",
    "PCIE5",
    "ScalingPoint",
    "predict_exchange_seconds",
    "scaling_curve",
]


@dataclass(frozen=True)
class Interconnect:
    """A GPU-to-GPU link."""

    name: str
    bandwidth_gbs: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbs <= 0 or self.latency_s < 0:
            raise PlanError(f"invalid interconnect {self}")

    @property
    def bandwidth_bytes(self) -> float:
        return self.bandwidth_gbs * 1e9


#: NVLink 4 (H100-class): 900 GB/s aggregate, sub-10us software latency.
NVLINK4 = Interconnect("NVLink4", 900.0, 8e-6)
#: PCIe 5.0 x16 fallback.
PCIE5 = Interconnect("PCIe5 x16", 64.0, 15e-6)
#: Host shared memory: one memcpy through the page cache at DRAM-class
#: bandwidth, plus a barrier's worth of scheduler latency.  Deliberately
#: conservative — the ``distributed`` experiment compares this prediction
#: against the measured ``exchange`` span of the in-process run.
HOST_SHM = Interconnect("host shm", 20.0, 5e-6)


def predict_exchange_seconds(
    n_bytes: int, link: Interconnect = HOST_SHM, rounds: int = 1
) -> float:
    """Predicted wall time for one halo exchange of ``n_bytes``.

    ``rounds`` counts ring rounds (see :attr:`~repro.distributed.
    decomposition.SlabDecomposition.exchange_rounds`): bytes are paid
    once, latency once per round.
    """
    if n_bytes < 0:
        raise PlanError(f"n_bytes must be >= 0, got {n_bytes}")
    if rounds < 1:
        raise PlanError(f"rounds must be >= 1, got {rounds}")
    return n_bytes / link.bandwidth_bytes + rounds * link.latency_s


@dataclass(frozen=True)
class ScalingPoint:
    """One rank count of a scaling sweep."""

    ranks: int
    seconds: float
    speedup: float           # vs 1 rank
    parallel_efficiency: float
    comm_fraction: float     # halo time / total per application


def scaling_curve(
    kernel: StencilKernel,
    grid_points: int,
    steps: int,
    rank_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    fused_steps: int = 8,
    gpu: GPUSpec = A100,
    link: Interconnect = NVLINK4,
) -> list[ScalingPoint]:
    """Strong-scaling prediction for a 1-D FlashFFTStencil workload."""
    if kernel.ndim != 1:
        raise PlanError("the scaling model covers 1-D decompositions")
    if grid_points < max(rank_counts):
        raise PlanError("grid smaller than the largest rank count")
    plan = FlashFFTStencil((1 << 16,), kernel, fused_steps=fused_steps, gpu=gpu)
    m = plan.measure()
    applications = -(-steps // fused_steps)
    halo_cells = fused_steps * kernel.max_radius

    t_single = execution_time(plan.paper_scale_cost(grid_points, steps, m), gpu)

    points: list[ScalingPoint] = []
    for ranks in rank_counts:
        local_points = -(-grid_points // ranks)
        t_compute = execution_time(
            plan.paper_scale_cost(local_points, steps, m), gpu
        )
        per_app_compute = t_compute / applications
        if ranks > 1:
            halo_bytes = 2 * halo_cells * 8  # both faces, FP64
            per_app_comm = halo_bytes / link.bandwidth_bytes + link.latency_s
        else:
            per_app_comm = 0.0
        t_total = applications * max(per_app_compute, per_app_comm)
        speedup = t_single / t_total
        points.append(
            ScalingPoint(
                ranks=ranks,
                seconds=t_total,
                speedup=speedup,
                parallel_efficiency=speedup / ranks,
                comm_fraction=(
                    per_app_comm / max(per_app_compute, per_app_comm)
                    if ranks > 1
                    else 0.0
                ),
            )
        )
    return points
