"""Functional multi-GPU stencil execution over a slab decomposition.

Each fused application follows the canonical distributed-stencil loop:

    1. halo exchange (ring pattern, ``fused_steps * radius`` cells/face),
    2. rank-local fused FFT-stencil on the extended slab,
    3. trim the halo — the interior is exact because the exchanged halo
       covers the fused dependency cone.

:class:`DistributedStencil` maps that loop onto the plan's own resident
iteration: the plan cuts one first-axis window tile per simulated rank,
so each window *is* a rank's extended slab, and the in-place halo refresh
between applications (:class:`~repro.core.tailoring.HaloExchangePlan`) is
the ring exchange.  The run is therefore *bit-identical* to the
single-device plan, distributed-vs-single agreement is a pure statement
about the decomposition/exchange logic, and the companion
:mod:`repro.distributed.costmodel` prices the halo values the refresh
moves (``HaloExchangePlan.stale_points``).
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import StencilKernel
from ..core.reference import Boundary
from ..errors import PlanError
from ..observability import Telemetry
from .decomposition import SlabDecomposition

__all__ = ["DistributedStencil"]


class DistributedStencil:
    """A multi-rank fused-stencil runner (simulated in-process).

    Parameters
    ----------
    grid_shape:
        Global problem shape.
    kernel:
        The stencil to advance.
    ranks:
        Number of simulated devices (axis-0 slabs).
    fused_steps:
        Temporal fusion depth per exchange — deeper fusion trades wider
        halos for fewer communication rounds, the classic trade-off the
        FFT bridge makes cheap (Equation (10) needs no extra parameters).
    """

    def __init__(
        self,
        grid_shape: int | tuple[int, ...],
        kernel: StencilKernel,
        ranks: int,
        fused_steps: int = 4,
        boundary: Boundary = "periodic",
    ) -> None:
        if isinstance(grid_shape, (int, np.integer)):
            grid_shape = (int(grid_shape),)
        grid_shape = tuple(int(s) for s in grid_shape)
        if len(grid_shape) != kernel.ndim:
            raise PlanError(
                f"grid {grid_shape} does not match {kernel.ndim}-D kernel"
            )
        if fused_steps < 1:
            raise PlanError(f"fused_steps must be >= 1, got {fused_steps}")
        self.kernel = kernel
        self.fused_steps = int(fused_steps)
        self.boundary: Boundary = boundary
        # The bytes-on-the-wire ledger for the cost model, expressed in
        # grid rows.
        self.deco = SlabDecomposition(
            grid_shape,
            ranks,
            halo=self.fused_steps * kernel.radius[0],
            boundary=boundary,
        )
        # One first-axis window tile per simulated rank, so the plan's
        # tile partition *is* the slab decomposition.
        tile = (-(-grid_shape[0] // ranks),) + grid_shape[1:]
        from ..core.plan import FlashFFTStencil

        self.plan = FlashFFTStencil(
            grid_shape,
            kernel,
            fused_steps=self.fused_steps,
            boundary=boundary,
            tile=tile,
            workers=1,
        )
        self.exchanges_performed = 0

    @property
    def ranks(self) -> int:
        return self.deco.ranks

    def run(
        self,
        grid: np.ndarray,
        total_steps: int,
        telemetry: Telemetry | None = None,
    ) -> np.ndarray:
        """Advance the global grid; bit-identical to the single-device plan.

        Every chunk of ``fused_steps`` steps is one fused application —
        one ring exchange — and the residual chunk runs the cached
        narrower-halo tail plan, exactly like ``FlashFFTStencil.run``.
        """
        if total_steps < 0:
            raise PlanError(f"total_steps must be >= 0, got {total_steps}")
        cur = np.ascontiguousarray(grid, dtype=np.float64)
        if cur.shape != self.deco.grid_shape:
            raise PlanError(
                f"grid shape {cur.shape} != {self.deco.grid_shape}"
            )
        out = self.plan.run(cur, total_steps, telemetry=telemetry, resident=True)
        self.exchanges_performed += -(-total_steps // self.fused_steps)
        return out
