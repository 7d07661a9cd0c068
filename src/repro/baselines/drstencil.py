"""DRStencil-style temporal-blocking stencil (redundancy-reduced tiling).

DRStencil fuses a small number of time steps by giving each output tile a
halo of ``T * r`` and *recomputing* the halo region in the time domain —
the classic overlapped (trapezoidal) tiling trade: extra arithmetic on the
halo buys one HBM round trip per ``T`` steps instead of per step.  Unlike
FlashFFTStencil's spectrum powers, the redundant work grows with ``T * r``
per tile face, so practical fusion depths stay small (we model the
published sweet spot of 2).

The numerical implementation is genuine overlapped tiling: windows are
gathered with their halos (reusing the split/stitch machinery), evolved
``T`` steps *in the time domain* entirely window-locally — halo corruption
creeps inward one radius per step and never reaches the valid interior —
and stitched back.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import StencilKernel
from ..core.reference import Boundary
from ..core.tailoring import SegmentPlan
from ..errors import BoundaryError
from ..gpusim.roofline import KernelCost
from ..gpusim.spec import GPUSpec
from .base import StencilMethod

__all__ = ["DRStencil"]


def _batched_local_step(windows: np.ndarray, kernel: StencilKernel) -> np.ndarray:
    """One direct stencil step applied window-locally to a (n, *shape) batch.

    Window edges read zeros; the resulting corruption stays inside the halo.
    """
    d = kernel.ndim
    r = kernel.radius
    padded = np.pad(windows, [(0, 0)] + [(ri, ri) for ri in r])
    out = np.zeros_like(windows)
    for off, w in zip(kernel.offsets, kernel.weights):
        sl = (slice(None),) + tuple(
            slice(ri + oi, ri + oi + s)
            for ri, oi, s in zip(r, off, windows.shape[1:])
        )
        out += w * padded[sl]
    return out


class DRStencil(StencilMethod):
    """Overlapped temporal-blocking stencil on CUDA cores."""

    name = "DRStencil"
    uses_tensor_cores = False

    #: Published sweet-spot fusion depth for the tiling scheme.
    FUSION = 2
    max_fusion = FUSION

    MEMORY_EFFICIENCY = 0.75   # tile gathers with halo duplication
    COMPUTE_EFFICIENCY = 0.50

    def __init__(self, tile: int | tuple[int, ...] | None = None):
        self.tile = tile

    def apply(
        self,
        grid: np.ndarray,
        kernel: StencilKernel,
        steps: int,
        boundary: Boundary = "periodic",
    ) -> np.ndarray:
        if boundary not in ("periodic", "zero"):
            raise BoundaryError(f"unsupported boundary {boundary!r}")
        out = np.asarray(grid, dtype=np.float64).copy()
        remaining = steps
        while remaining > 0:
            t = min(self.FUSION, remaining)
            out = self._fused_block(out, kernel, t, boundary)
            remaining -= t
        return out

    def _fused_block(
        self, grid: np.ndarray, kernel: StencilKernel, t: int, boundary: Boundary
    ) -> np.ndarray:
        tile = self.tile
        if tile is None:
            tile = tuple(
                min(g, max(16, 8 * t * r)) for g, r in zip(grid.shape, kernel.radius)
            )
        elif isinstance(tile, int):
            tile = (min(tile, s) for s in grid.shape)
            tile = tuple(tile)
        # Windows advance by direct local steps, not a circular FFT, so
        # they need the halo even on an axis one tile spans end to end.
        plan = SegmentPlan(grid.shape, kernel, t, tile, boundary, full_halo=True)
        windows = plan.split(grid)
        for _ in range(t):
            windows = _batched_local_step(windows, kernel)
        out = plan.stitch(windows)
        if boundary == "zero" and t > 1:
            out = plan.fix_zero_boundary_band(grid, out)
        return out

    def cost(
        self,
        kernel: StencilKernel,
        grid_points: int,
        steps: int,
        gpu: GPUSpec,
    ) -> KernelCost:
        self._check_args(grid_points, steps)
        t = self.FUSION
        applications = -(-steps // t)
        halo = tuple(t * r for r in kernel.radius)
        tile = tuple(max(16, 8 * h) for h in halo)
        read_amp = float(np.prod([(s + 2 * h) / s for s, h in zip(tile, halo)]))
        bytes_per_app = (8.0 * read_amp + 8.0) * grid_points
        # every window point is advanced t times, including the halo.
        flops_per_app = kernel.flops_per_point() * grid_points * t * read_amp
        return KernelCost(
            flops=flops_per_app * applications,
            bytes=bytes_per_app * applications,
            launches=applications,
            use_tensor_cores=False,
            compute_efficiency=self.COMPUTE_EFFICIENCY,
            memory_efficiency=self.MEMORY_EFFICIENCY,
            label=self.name,
        )
