"""Figure-8 memory-footprint comparison: FlashFFTStencil vs standard FFT stencil.

§3.1's accounting: the untailored FFT stencil keeps whole-grid complex
working arrays plus quadratically-growing auxiliary data in HBM, and cuFFT
pads awkward lengths toward powers of two; Kernel Tailoring shares one tiny
window-sized auxiliary set and streams real data — a 7-9x footprint
reduction at the paper's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.cufft import standard_fft_footprint_bytes
from ..core.kernels import StencilKernel
from ..core.plan import FlashFFTStencil
from ..errors import PlanError
from ..gpusim.spec import A100, GPUSpec

__all__ = ["FootprintRow", "flashfft_footprint_bytes", "footprint_sweep"]


@dataclass(frozen=True)
class FootprintRow:
    """One problem size of the Figure-8 sweep."""

    grid_points: int
    standard_bytes: int
    flash_bytes: int

    @property
    def reduction(self) -> float:
        return self.standard_bytes / self.flash_bytes


def flashfft_footprint_bytes(
    kernel: StencilKernel,
    grid_shape: tuple[int, ...],
    fused_steps: int = 6,
    gpu: GPUSpec = A100,
) -> int:
    """Device footprint of the tailored plan: real in/out + shared auxiliary.

    The auxiliary set (window DFT matrices + transformed kernel) is one copy
    for the whole GPU, sized by the window — the grey-area saving of
    Figure 3.
    """
    plan = FlashFFTStencil(grid_shape, kernel, fused_steps=fused_steps, gpu=gpu)
    n = int(np.prod(grid_shape))
    real_io = 2 * 8 * n
    aux = 16 * (
        sum(d * d for d in plan.executor.transform_dims)
        + int(np.prod(plan.gpu_segments.local_shape))
    )
    return real_io + aux


def footprint_sweep(
    kernel: StencilKernel,
    grid_shapes: list[tuple[int, ...]],
    fused_steps: int = 6,
    gpu: GPUSpec = A100,
) -> list[FootprintRow]:
    """The Figure-8 series for one kernel across problem sizes."""
    if not grid_shapes:
        raise PlanError("need at least one grid shape")
    rows = []
    for shape in grid_shapes:
        n = int(np.prod(shape))
        rows.append(
            FootprintRow(
                grid_points=n,
                standard_bytes=standard_fft_footprint_bytes(n),
                flash_bytes=flashfft_footprint_bytes(
                    kernel, shape, fused_steps, gpu
                ),
            )
        )
    return rows
