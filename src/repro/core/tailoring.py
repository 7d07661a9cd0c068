"""Kernel Tailoring on HBM (§3.1): splitting, fusing, stitching.

The standard FFT stencil round-trips the *whole* grid through HBM three times
per step (FFT kernel, element-wise multiply kernel, iFFT kernel) and stores
auxiliary DFT matrices that grow quadratically with the grid.  Kernel
Tailoring replaces this with classic overlap-save decomposition:

* **Splitting** — the grid is cut into output tiles of ``S`` points per axis;
  each tile's *input window* of ``L = S + 2*R`` points (halo ``R = steps *
  radius``, Equation (4) generalised to ``T`` fused steps) fits in one SM's
  shared memory.
* **Fusing** — within a window, FFT -> element-wise multiply by the
  (temporally fused) kernel spectrum -> iFFT run back-to-back with no HBM
  round trip.  Because the window's halo covers the full dependency cone, the
  circular wraparound of the local FFT only ever touches halo points that
  are discarded, so the result is exact (Equations (6)-(7)).
* **Stitching** — each window contributes exactly its valid interior
  ``[R, R+S)`` back to the output grid.

All windows share one set of auxiliary data of size ``2*(2*L**2 + L)`` reals
instead of ``2*(2*N**2 + N)`` — the memory-footprint saving of Figure 8 —
and every window is independent, restoring the SM-level parallelism that the
global data dependence of a whole-grid FFT destroys.

This module is the *numerical* engine (batched NumPy FFTs over windows).
:mod:`repro.core.streamline` lowers the per-window math onto the emulated
TCU; :mod:`repro.gpusim` costs the data movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.backends import FFTBackend

from ..errors import PlanError
from ..observability import NULL_TELEMETRY, Telemetry
from ..robustness.guards import GuardPolicy, check_array
from .kernels import StencilKernel, compute_spectrum
from .precision import complex_dtype, real_dtype, validate_precision
from .reference import Boundary, run_stencil

__all__ = ["HaloExchangePlan", "SegmentPlan", "tailored_fft_stencil"]


@dataclass(frozen=True)
class SegmentPlan:
    """An overlap-save decomposition of one fused stencil application.

    Parameters
    ----------
    grid_shape:
        Shape of the full input/output grid.
    kernel:
        The stencil to apply.
    steps:
        Number of time steps fused into this plan (``>= 1``).  The halo is
        ``steps * radius`` per axis; Equation (10) fuses the spectrum.
    valid_shape:
        Output tile size ``S`` per axis.  The local FFT window is
        ``S + 2*halo`` per axis.
    boundary:
        ``"periodic"`` (exact) or ``"zero"`` (exact: free evolution inside,
        boundary band of width ``steps*radius`` recomputed sequentially).
    precision:
        Execution tier — ``"float64"`` (reference, the default) or
        ``"float32"`` (grids travel as float32, spectra as complex64).
        Stored as a string so the frozen plan stays hashable and cache
        keys/serialised artifacts carry the tier by name.
    full_halo:
        Keep the fused halo on every axis, as the Eq. (5) GPU windows do
        (each sized to one SM's shared memory).  ``False`` (host windows,
        the default) drops the halo on a periodic axis the tile spans end
        to end — see :attr:`halo`.
    """

    grid_shape: tuple[int, ...]
    kernel: StencilKernel
    steps: int
    valid_shape: tuple[int, ...]
    boundary: Boundary = "periodic"
    precision: str = "float64"
    full_halo: bool = False

    def __post_init__(self) -> None:
        gs = tuple(int(s) for s in self.grid_shape)
        vs = tuple(int(s) for s in self.valid_shape)
        object.__setattr__(self, "grid_shape", gs)
        object.__setattr__(self, "valid_shape", vs)
        validate_precision(self.precision)
        if self.steps < 1:
            raise PlanError(f"steps must be >= 1, got {self.steps}")
        if len(gs) != self.kernel.ndim or len(vs) != self.kernel.ndim:
            raise PlanError(
                f"grid {gs} / tiles {vs} must match kernel ndim {self.kernel.ndim}"
            )
        if any(s < 1 for s in vs):
            raise PlanError(f"tile extents must be >= 1, got {vs}")
        if any(v > g for v, g in zip(vs, gs)):
            raise PlanError(f"tile {vs} larger than grid {gs}")
        if self.boundary not in ("periodic", "zero"):
            raise PlanError(f"unsupported boundary {self.boundary!r}")

    # -------------------------------------------------------------- geometry

    @cached_property
    def dtype(self) -> np.dtype:
        """Real grid/window dtype of this plan's tier."""
        return real_dtype(self.precision)

    @cached_property
    def cdtype(self) -> np.dtype:
        """Complex spectrum dtype of this plan's tier."""
        return complex_dtype(self.precision)

    @cached_property
    def halo(self) -> tuple[int, ...]:
        """Per-axis halo ``R = steps * radius`` — the fused dependency reach.

        Zero on a periodic axis whose tile is the whole grid extent (unless
        ``full_halo``): the window is then exactly one period, and the
        circular FFT supplies the wrap-around exactly — the whole-domain
        circular convolution of Ahmad et al. — so a halo would only add
        points to transform and discard.
        """
        reach = tuple(self.steps * r for r in self.kernel.radius)
        if self.boundary != "periodic" or self.full_halo:
            return reach
        return tuple(
            0 if s == g else r
            for r, s, g in zip(reach, self.valid_shape, self.grid_shape)
        )

    @cached_property
    def local_shape(self) -> tuple[int, ...]:
        """Per-axis FFT window extent ``L = S + 2R`` (Equation (4): S <= L - T(M-1))."""
        return tuple(s + 2 * r for s, r in zip(self.valid_shape, self.halo))

    @cached_property
    def starts(self) -> list[np.ndarray]:
        """Per-axis output-tile start offsets (last tile may be ragged)."""
        return [
            np.arange(0, g, s) for g, s in zip(self.grid_shape, self.valid_shape)
        ]

    @cached_property
    def num_segments(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.starts)

    @property
    def total_segments(self) -> int:
        return int(np.prod(self.num_segments))

    @property
    def window_points(self) -> int:
        """Points in the whole window batch: what one fuse transforms."""
        return self.total_segments * int(np.prod(self.local_shape))

    # ------------------------------------------------------ memory accounting

    def auxiliary_floats(self) -> int:
        """Shared auxiliary storage in FP64 words: ``2*(2*L**2 + L)``.

        One complex ``LxL`` DFT matrix pair collapses to a single stored
        forward matrix (``2*L**2`` reals; the inverse is recomputed —
        Squeezing Registers) plus the transformed kernel (``2*L`` reals),
        mirroring the paper's §3.1 accounting with ``L = prod(local_shape)``.
        """
        l = int(np.prod(self.local_shape))
        return 2 * (2 * l * l + l)

    @staticmethod
    def standard_auxiliary_floats(grid_shape: Sequence[int]) -> int:
        """Auxiliary storage of the *untailored* FFT stencil: ``2*(2*N**2+N)``."""
        n = int(np.prod(tuple(grid_shape)))
        return 2 * (2 * n * n + n)

    # ------------------------------------------------- cached plan artifacts

    @cached_property
    def _zero_pads(self) -> tuple[tuple[int, int], ...]:
        """Per-axis zero-boundary pads so every window index is in range."""
        return tuple((r, r + l) for r, l in zip(self.halo, self.local_shape))

    @cached_property
    def _source_shape(self) -> tuple[int, ...]:
        """Shape of the array ``split`` gathers from (grid, or padded grid)."""
        if self.boundary == "periodic":
            return self.grid_shape
        return tuple(
            g + lo + hi for g, (lo, hi) in zip(self.grid_shape, self._zero_pads)
        )

    @cached_property
    def _gather_flat(self) -> np.ndarray:
        """Flat gather indices for ``split``: one int per window point.

        Computed once per plan (the aux-data-reuse discipline of §3.1 applied
        host-side): indexing arithmetic — per-axis window offsets, the
        periodic wrap / pad shift, and the open-mesh broadcast — is hoisted
        out of the per-application loop into a single ``np.take`` index set.
        """
        idx_per_axis = []
        for starts, r, l, g in zip(
            self.starts, self.halo, self.local_shape, self.grid_shape
        ):
            # window for tile at `start` covers [start - R, start - R + L)
            offs = starts[:, None] - r + np.arange(l)[None, :]
            if self.boundary == "periodic":
                offs = offs % g
            else:
                offs = offs + r  # shift into the zero-padded source
            idx_per_axis.append(offs)
        ndim = len(self.grid_shape)
        mesh = []
        for ax, offs in enumerate(idx_per_axis):
            shape = [1] * (2 * ndim)
            shape[ax] = offs.shape[0]
            shape[ndim + ax] = offs.shape[1]
            mesh.append(offs.reshape(shape))
        flat = np.ravel_multi_index(tuple(mesh), self._source_shape)
        flat = np.ascontiguousarray(
            np.broadcast_to(flat, self.num_segments + self.local_shape)
        ).reshape((self.total_segments,) + self.local_shape)
        flat.flags.writeable = False
        return flat

    @cached_property
    def _stitch_flat(self) -> np.ndarray:
        """Flat gather indices for ``stitch``: for every output grid point,
        the position of its value inside the contiguous fused-window batch.

        Because the output tiles partition the grid, stitching is a pure
        gather: point ``i`` (per axis) lives in tile ``i // S`` at window
        offset ``R + i % S`` — including the ragged last tile.
        """
        tiles = []
        offs = []
        ndim = len(self.grid_shape)
        for ax, (g, s, r) in enumerate(
            zip(self.grid_shape, self.valid_shape, self.halo)
        ):
            i = np.arange(g)
            t = i // s
            o = r + (i - t * s)
            shape = [1] * ndim
            shape[ax] = g
            tiles.append(t.reshape(shape))
            offs.append(o.reshape(shape))
        flat = np.ravel_multi_index(
            tuple(tiles) + tuple(offs), self.num_segments + self.local_shape
        )
        flat = np.ascontiguousarray(np.broadcast_to(flat, self.grid_shape))
        flat.flags.writeable = False
        return flat

    @cached_property
    def _half_spectrum(self) -> np.ndarray:
        """Last-axis half spectrum for the real-FFT fast path (read-only)."""
        half = self.local_shape[-1] // 2 + 1
        spec = np.ascontiguousarray(self.fused_spectrum()[..., :half])
        spec.flags.writeable = False
        return spec

    # ------------------------------------------------------------- execution

    def window_source(
        self, grid: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The contiguous array ``split`` gathers windows from.

        Periodic boundary: the grid itself.  Zero boundary: a zero-padded
        copy so out-of-range indices resolve to 0 — ``out`` (optional, a
        ``_source_shape`` buffer whose border is already zero, e.g. a
        :class:`~repro.parallel.arena.WorkspaceArena` scratch) receives
        the interior in place, eliminating the per-call pad allocation.
        """
        if self.boundary == "periodic":
            return np.ascontiguousarray(grid)
        if out is None:
            return np.pad(grid, self._zero_pads)
        interior = tuple(
            slice(lo, lo + g)
            for (lo, _), g in zip(self._zero_pads, self.grid_shape)
        )
        np.copyto(out[interior], grid)
        return out

    def split(
        self,
        grid: np.ndarray,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """Gather every input window into a ``(total_segments, *local_shape)`` batch.

        ``out`` receives the window batch in place; ``scratch`` (zero
        boundary only) is a reusable padded-source buffer — together they
        make the steady-state split allocation-free.
        """
        grid = np.asarray(grid, dtype=self.dtype)
        if grid.shape != self.grid_shape:
            raise PlanError(f"grid shape {grid.shape} != plan {self.grid_shape}")
        src = self.window_source(grid, out=scratch)
        return np.take(src.reshape(-1), self._gather_flat, out=out)

    def fused_spectrum(self) -> np.ndarray:
        """The window-local fused kernel spectrum ``H_L ** steps`` (cached).

        Returned in the plan tier's complex dtype (complex128 for float64,
        complex64 for float32) so the spectral multiply never upcasts.
        """
        return self.kernel.temporal_spectrum(
            self.local_shape, self.steps, self.precision
        )

    def fuse(
        self,
        windows: np.ndarray,
        backend: "FFTBackend | None" = None,
    ) -> np.ndarray:
        """Per-window FFT -> multiply -> iFFT, batched over the segment axis.

        Fast path: the windows are real, so the transform runs as
        ``rfftn``/``irfftn`` over the spatial axes against the cached
        half-spectrum — roughly half the FFT flops of the complex path, and
        bit-compatible with :meth:`_fuse_reference` to ~1e-15.

        The leading axis may be any multiple of ``total_segments`` (the
        batched multi-grid path stacks B window batches); each row
        transforms independently, so batching never changes the numbers.
        ``backend`` (optional :class:`~repro.parallel.backends.FFTBackend`)
        swaps the transform provider; ``None`` is the ``np.fft`` default.
        """
        if (
            windows.ndim != 1 + len(self.local_shape)
            or windows.shape[1:] != self.local_shape
            or windows.shape[0] % self.total_segments != 0
        ):
            raise PlanError(
                f"windows shape {windows.shape} is not a batch of "
                f"{(self.total_segments,) + self.local_shape} windows"
            )
        axes = tuple(range(1, windows.ndim))
        if backend is None:
            spec = np.fft.rfftn(windows, axes=axes)
            spec *= self._half_spectrum
            return np.fft.irfftn(spec, s=self.local_shape, axes=axes)
        spec = backend.rfftn(windows, axes)
        spec *= self._half_spectrum
        return backend.irfftn(spec, self.local_shape, axes)

    def stitch(self, fused: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Collect each window's valid interior back into a full grid.

        One vectorised ``np.take`` against the precomputed scatter/gather
        index set — no Python loop over tiles; ``out`` (when given) is
        filled in place so steady-state callers can ping-pong buffers.
        """
        flat = np.ascontiguousarray(fused, dtype=self.dtype).reshape(-1)
        if out is None:
            out = np.empty(self.grid_shape, dtype=self.dtype)
        elif out.dtype != self.dtype:
            # np.take(out=) would raise an opaque TypeError; name the tier.
            raise PlanError(
                f"stitch out dtype {out.dtype} != plan tier dtype {self.dtype}"
            )
        elif np.shares_memory(flat, out):
            # `flat` is a view of `fused` whenever `fused` is already
            # contiguous in the plan dtype — writing `out` would corrupt
            # the source mid-gather.
            raise PlanError("stitch out must not alias the fused windows")
        return np.take(flat, self._stitch_flat, out=out)

    def run(
        self,
        grid: np.ndarray,
        telemetry: Telemetry | None = None,
        guards: GuardPolicy | None = None,
    ) -> np.ndarray:
        """Split -> fuse -> stitch; exact for both supported boundaries.

        ``telemetry`` (optional) receives one span per stage (``split`` /
        ``fuse`` / ``stitch`` / ``boundary_fix``) plus window/point counters;
        the default :data:`~repro.observability.NULL_TELEMETRY` records
        nothing.  ``guards`` (optional) applies a numerical
        :class:`~repro.robustness.GuardPolicy` to the input grid and the
        stitched output.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        guarded = guards is not None and guards.enabled
        if guarded and guards.check_inputs:
            grid = check_array(
                np.asarray(grid, dtype=self.dtype), "grid", guards, tel
            )
        with tel.span("split"):
            windows = self.split(grid)
        with tel.span("fuse"):
            fused = self.fuse(windows)
        with tel.span("stitch"):
            out = self.stitch(fused)
        if tel.enabled:
            tel.count("windows", self.total_segments)
            tel.count("fft_batches", 1)
            tel.count("points_stitched", int(np.prod(self.grid_shape)))
        if self.boundary == "zero" and self.steps > 1:
            with tel.span("boundary_fix"):
                out = self.fix_zero_boundary_band(
                    np.asarray(grid, dtype=self.dtype), out
                )
        if guarded and guards.check_outputs:
            out = check_array(out, "output", guards, tel)
        return out

    # --------------------------------------------- preserved reference path
    #
    # The pre-fast-path implementations, kept verbatim so the equivalence
    # suite and benchmarks/bench_hotpath.py can measure exactly what the
    # cached-artifact engine buys: per-call index-mesh rebuilds, a complex
    # fftn round trip, per-call spectrum re-derivation, and a Python
    # np.ndindex stitch loop.

    def _split_reference(self, grid: np.ndarray) -> np.ndarray:
        """Reference split: rebuilds the index mesh on every call."""
        grid = np.asarray(grid, dtype=np.float64)
        if grid.shape != self.grid_shape:
            raise PlanError(f"grid shape {grid.shape} != plan {self.grid_shape}")
        idx_per_axis = []
        for starts, r, l, g in zip(
            self.starts, self.halo, self.local_shape, self.grid_shape
        ):
            offs = starts[:, None] - r + np.arange(l)[None, :]
            idx_per_axis.append(offs)
        if self.boundary == "periodic":
            idx_per_axis = [o % g for o, g in zip(idx_per_axis, self.grid_shape)]
            src = grid
        else:
            pads = [(r, r + l) for r, l in zip(self.halo, self.local_shape)]
            src = np.pad(grid, pads)
            idx_per_axis = [o + r for o, r in zip(idx_per_axis, self.halo)]
        ndim = grid.ndim
        mesh = []
        for ax, offs in enumerate(idx_per_axis):
            shape = [1] * (2 * ndim)
            shape[ax] = offs.shape[0]
            shape[ndim + ax] = offs.shape[1]
            mesh.append(offs.reshape(shape))
        windows = src[tuple(mesh)]
        return windows.reshape((self.total_segments,) + self.local_shape)

    def _fuse_reference(self, windows: np.ndarray) -> np.ndarray:
        """Reference fuse: complex fftn path, spectrum re-derived per call."""
        if windows.shape != (self.total_segments,) + self.local_shape:
            raise PlanError(
                f"windows shape {windows.shape} != "
                f"{(self.total_segments,) + self.local_shape}"
            )
        axes = tuple(range(1, windows.ndim))
        spec = compute_spectrum(self.kernel, self.local_shape) ** self.steps
        out = np.fft.ifftn(np.fft.fftn(windows, axes=axes) * spec, axes=axes)
        return np.real(out)

    def _stitch_reference(self, fused: np.ndarray) -> np.ndarray:
        """Reference stitch: Python loop over tiles."""
        out = np.empty(self.grid_shape, dtype=np.float64)
        fused = fused.reshape(self.num_segments + self.local_shape)
        ndim = len(self.grid_shape)
        for tile_idx in np.ndindex(*self.num_segments):
            dst = []
            src = []
            for ax in range(ndim):
                start = int(self.starts[ax][tile_idx[ax]])
                stop = min(start + self.valid_shape[ax], self.grid_shape[ax])
                dst.append(slice(start, stop))
                r = self.halo[ax]
                src.append(slice(r, r + (stop - start)))
            out[tuple(dst)] = fused[tile_idx + tuple(src)]
        return out

    def run_reference(self, grid: np.ndarray) -> np.ndarray:
        """Split -> fuse -> stitch on the preserved (uncached) slow path."""
        out = self._stitch_reference(self._fuse_reference(self._split_reference(grid)))
        if self.boundary == "zero" and self.steps > 1:
            out = self.fix_zero_boundary_band(np.asarray(grid, dtype=np.float64), out)
        return out

    # ------------------------------------------------- resident iteration

    def exchange_plan(self, strategy: str = "auto") -> "HaloExchangePlan":
        """The :class:`HaloExchangePlan` for this geometry (cached for the
        default ``"auto"`` strategy; explicit strategies build fresh)."""
        if strategy == "auto":
            return self._exchange_plan_auto
        return HaloExchangePlan(self, strategy=strategy)

    @cached_property
    def _exchange_plan_auto(self) -> "HaloExchangePlan":
        return HaloExchangePlan(self)

    def fix_zero_boundary_band_windows(
        self,
        windows_in: np.ndarray,
        fused: np.ndarray,
        rows: tuple[int, int] | None = None,
    ) -> np.ndarray:
        """The zero-BC band fix applied in *window space* (resident loop).

        Mirrors :meth:`fix_zero_boundary_band`, but the input grid is read
        out of the resident window batch ``windows_in`` (every grid point
        lives in exactly one window's valid region — the stitch map) and
        the corrected band is scattered into ``fused``'s valid positions
        only.  The halo *copies* of the band are deliberately left stale:
        the subsequent halo exchange refreshes every halo point from its
        owner's valid region, which propagates the fix — so band fix
        before exchange reproduces the grid-space stitch→fix→split cycle
        bit for bit.  Before the final stitch no exchange is needed, since
        stitching reads exactly the valid positions written here.

        ``rows`` (optional, ``(s0, s1)`` window-row range) restricts the
        *writes* to positions inside those window rows while computing the
        full band slab — the process engine's single-owner discipline:
        every rank evaluates the (thin) band redundantly but scatters only
        into its own resident rows, so the union over ranks reproduces the
        unrestricted fix without a cross-process write race.
        """
        win_flat = windows_in.reshape(-1)
        out_flat = fused.reshape(-1)
        stitch = self._stitch_flat
        ndim = len(self.grid_shape)
        if rows is not None:
            wsize = int(np.prod(self.local_shape))
            row_lo, row_hi = rows[0] * wsize, rows[1] * wsize
        for axis in range(ndim):
            b = self.halo[axis]
            if b == 0:
                continue
            g = self.grid_shape[axis]
            sl = min(2 * b, g)
            for side in (0, 1):
                take = slice(0, sl) if side == 0 else slice(g - sl, g)
                keep_w = min(b, sl)
                keep = slice(0, keep_w) if side == 0 else slice(-keep_w, None)
                idx_in = tuple(
                    take if ax == axis else slice(None) for ax in range(ndim)
                )
                slab_pos = stitch[idx_in]
                evolved = run_stencil(
                    win_flat[slab_pos], self.kernel, self.steps, boundary="zero"
                )
                idx_keep = tuple(
                    keep if ax == axis else slice(None) for ax in range(ndim)
                )
                pos = slab_pos[idx_keep]
                vals = evolved[idx_keep]
                if rows is None:
                    out_flat[pos] = vals
                else:
                    mine = (pos >= row_lo) & (pos < row_hi)
                    out_flat[pos[mine]] = vals[mine]
        return fused

    def fix_zero_boundary_band(
        self, grid: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Exact zero-BC boundary band (same slab strategy as spectral.py)."""
        band = self.halo
        for axis in range(grid.ndim):
            b = band[axis]
            if b == 0:
                continue
            sl = min(2 * b, grid.shape[axis])
            for side in (0, 1):
                take = slice(0, sl) if side == 0 else slice(-sl, None)
                keep_w = min(b, sl)
                keep = slice(0, keep_w) if side == 0 else slice(-keep_w, None)
                idx_in = tuple(
                    take if ax == axis else slice(None) for ax in range(grid.ndim)
                )
                evolved = run_stencil(
                    grid[idx_in], self.kernel, self.steps, boundary="zero"
                )
                idx_keep = tuple(
                    keep if ax == axis else slice(None) for ax in range(grid.ndim)
                )
                out[idx_keep] = evolved[idx_keep]
        return out


class HaloExchangePlan:
    """Refresh a resident window batch's halos from neighbours' valid output.

    After one fused application the window batch holds, per window, a
    *correct valid interior* ``[R, R+S)`` and *stale halos* (the local
    FFT's circular wrap-around).  The non-resident engine discards the
    halos by stitching the valid interiors to the grid and re-gathering
    windows — two full passes over HBM per application.  Because the valid
    interiors partition the grid exactly (overlap-save), every halo point
    of every window exists in **exactly one** neighbour's valid region, so
    a direct window-to-window copy of those points reproduces
    ``split(stitch(fused))`` bit for bit while touching only
    ``total_window_points - grid_points`` values.

    Two interchangeable strategies (identical numbers):

    * ``"slab"`` — per-axis strided slice copies, vectorised over all
      tiles at once.  Axis ``k`` copies full window extent along axes
      ``< k`` (already refreshed) and valid-only extent along axes
      ``> k``, so corner regions arrive transitively — the classic
      sequenced halo exchange.  Requires uniform tiles (no ragged last
      tile) with ``S >= R`` per axis, so each halo lies entirely in the
      *adjacent* neighbour's valid region.
    * ``"gather"`` — precomputed flat index maps built by composing the
      gather map (window point → grid coordinate) with the stitch map
      (grid coordinate → owner position in the fused batch), keeping only
      the stale pairs (``src != dst``).  Handles ragged tiles, ``S < R``
      (halos spanning several tiles), and any wrap multiplicity.

    Zero boundary: out-of-domain halo points carry wrap contamination
    after the fuse and are re-zeroed each exchange (the slab path zeroes
    edge-tile slabs, the gather path keeps an explicit index set), exactly
    reproducing the zero-padded split.
    """

    def __init__(self, segments: SegmentPlan, strategy: str = "auto") -> None:
        if strategy not in ("auto", "slab", "gather"):
            raise PlanError(
                f"exchange strategy must be auto/slab/gather, got {strategy!r}"
            )
        self.segments = segments
        uniform = all(
            g % s == 0
            for g, s in zip(segments.grid_shape, segments.valid_shape)
        )
        wide = all(s >= r for s, r in zip(segments.valid_shape, segments.halo))
        slab_ok = uniform and wide
        if strategy == "slab" and not slab_ok:
            raise PlanError(
                "slab exchange needs uniform tiles with S >= R per axis; "
                f"grid={segments.grid_shape} tiles={segments.valid_shape} "
                f"halo={segments.halo}"
            )
        self.strategy = strategy if strategy != "auto" else (
            "slab" if slab_ok else "gather"
        )

    @cached_property
    def stale_points(self) -> int:
        """Halo points refreshed per exchange: ``total - grid`` (the valid
        interiors partition the grid, so everything else is halo)."""
        seg = self.segments
        return seg.window_points - int(np.prod(seg.grid_shape))

    # ------------------------------------------------------- gather maps

    @cached_property
    def _gather_maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, zero_dst)`` flat index sets over the window batch.

        ``dst`` enumerates the stale in-domain window points; ``src`` is
        each one's owner position (``_stitch_flat`` at the point's grid
        coordinate).  Self-owned points (``src == dst`` — every valid
        interior, including the ragged last tile's) are dropped: they are
        already correct after the fuse.  ``zero_dst`` (zero boundary only)
        collects the out-of-domain points to re-zero.
        """
        seg = self.segments
        ndim = len(seg.grid_shape)
        coords = []
        masks = []
        for starts, r, l, g in zip(
            seg.starts, seg.halo, seg.local_shape, seg.grid_shape
        ):
            offs = starts[:, None] - r + np.arange(l)[None, :]
            if seg.boundary == "periodic":
                coords.append(offs % g)
                masks.append(None)
            else:
                masks.append((offs >= 0) & (offs < g))
                coords.append(np.clip(offs, 0, g - 1))
        full_shape = seg.num_segments + seg.local_shape

        def _mesh(per_axis: list[np.ndarray]) -> list[np.ndarray]:
            out = []
            for ax, arr in enumerate(per_axis):
                shape = [1] * (2 * ndim)
                shape[ax] = arr.shape[0]
                shape[ndim + ax] = arr.shape[1]
                out.append(arr.reshape(shape))
            return out

        grid_flat = np.ravel_multi_index(tuple(_mesh(coords)), seg.grid_shape)
        grid_flat = np.ascontiguousarray(
            np.broadcast_to(grid_flat, full_shape)
        ).reshape(-1)
        src = seg._stitch_flat.reshape(-1)[grid_flat]
        dst = np.arange(src.size, dtype=np.int64)
        if seg.boundary == "zero":
            dom = np.ones(full_shape, dtype=bool)
            for m in _mesh(masks):
                dom &= m
            dom = dom.reshape(-1)
            stale = dom & (src != dst)
            zero_dst = np.flatnonzero(~dom)
        else:
            stale = src != dst
            zero_dst = np.empty(0, dtype=np.int64)
        # int32 indices halve the index traffic of the refresh gather.
        idx_dtype = np.int64 if src.size > np.iinfo(np.int32).max else np.int32
        out = (
            src[stale].astype(idx_dtype),
            dst[stale].astype(idx_dtype),
            zero_dst.astype(idx_dtype),
        )
        for a in out:
            a.flags.writeable = False
        return out

    # --------------------------------------------------------- execution

    def refresh(
        self,
        batch: np.ndarray,
        scratch: np.ndarray | None = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> np.ndarray:
        """Refresh every halo point of ``batch`` in place.

        ``batch`` is a ``(B * total_segments, *local_shape)`` float64
        window batch holding fused output (any ``B >= 1``; the batched
        multi-grid path stacks B independent grids).  After the call,
        ``batch`` equals ``split(stitch(batch))`` per grid, bit for bit.
        ``scratch`` (optional, 1-D float64, ``>= stale_points``) absorbs
        the gather-path temporary for ``B == 1``.
        """
        seg = self.segments
        if (
            batch.ndim != 1 + len(seg.local_shape)
            or batch.shape[1:] != seg.local_shape
            or batch.shape[0] % seg.total_segments != 0
        ):
            raise PlanError(
                f"batch shape {batch.shape} is not a stack of "
                f"{(seg.total_segments,) + seg.local_shape} window batches"
            )
        rows = batch.shape[0] // seg.total_segments
        if self.strategy == "slab":
            self._refresh_slab(batch, rows)
        else:
            self._refresh_gather(batch, rows, scratch)
        if telemetry.enabled:
            telemetry.count("halo_points_exchanged", rows * self.stale_points)
        return batch

    def maps_for_rows(
        self, row_range: tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather maps restricted to window rows ``[s0, s1)``.

        ``(src, dst, zero_dst)`` with every destination inside the flat
        span ``[s0 * window_size, s1 * window_size)``.  Because
        ``_gather_maps`` emits ``dst`` and ``zero_dst`` in ascending order
        (both derive from a masked ``arange``), the restriction is two
        ``searchsorted`` cuts — no scan.  Sources are unrestricted: a halo
        point's owner may live in another process's rows, which is exactly
        the cross-process traffic the shared-memory engine reads through
        the global window batch.  Restricted maps over a disjoint row
        partition tile the full maps, so per-range refreshes compose to
        :meth:`refresh` bit for bit.
        """
        seg = self.segments
        wsize = int(np.prod(seg.local_shape))
        lo, hi = row_range[0] * wsize, row_range[1] * wsize
        src, dst, zero_dst = self._gather_maps
        a, b = np.searchsorted(dst, (lo, hi))
        za, zb = np.searchsorted(zero_dst, (lo, hi))
        return src[a:b], dst[a:b], zero_dst[za:zb]

    def cross_rows_points(self, row_range: tuple[int, int]) -> int:
        """How many of ``row_range``'s halo sources live *outside* the
        range — the per-exchange cross-process point count."""
        seg = self.segments
        wsize = int(np.prod(seg.local_shape))
        lo, hi = row_range[0] * wsize, row_range[1] * wsize
        src, _, _ = self.maps_for_rows(row_range)
        return int(np.count_nonzero((src < lo) | (src >= hi)))

    def refresh_rows(
        self,
        batch: np.ndarray,
        row_range: tuple[int, int],
        scratch: np.ndarray | None = None,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> np.ndarray:
        """Refresh only the halo points whose *destination* lies in window
        rows ``[s0, s1)`` of ``batch`` (a full ``(total_segments, ...)``
        window batch — sources may be read from any row).

        This is the process engine's exchange step: each rank calls it for
        its own rows, so every halo point is written by exactly one rank
        while reads roam the whole (barrier-quiesced) batch.
        """
        src, dst, zero_dst = self.maps_for_rows(row_range)
        flat = batch.reshape(-1)
        if scratch is not None and scratch.size >= src.size:
            tmp = np.take(flat, src, out=scratch[: src.size])
        else:
            tmp = flat[src]
        flat[dst] = tmp
        if zero_dst.size:
            flat[zero_dst] = 0.0
        if telemetry.enabled:
            telemetry.count(
                "halo_points_exchanged", int(src.size + zero_dst.size)
            )
        return batch

    def _refresh_gather(
        self, batch: np.ndarray, rows: int, scratch: np.ndarray | None
    ) -> None:
        src, dst, zero_dst = self._gather_maps
        if rows == 1:
            flat = batch.reshape(-1)
            if scratch is not None and scratch.size >= src.size:
                tmp = np.take(flat, src, out=scratch[: src.size])
            else:
                tmp = flat[src]
            flat[dst] = tmp
            if zero_dst.size:
                flat[zero_dst] = 0.0
        else:
            blk = batch.reshape(rows, -1)
            blk[:, dst] = blk[:, src]
            if zero_dst.size:
                blk[:, zero_dst] = 0.0

    def _refresh_slab(self, batch: np.ndarray, rows: int) -> None:
        seg = self.segments
        ndim = len(seg.grid_shape)
        periodic = seg.boundary == "periodic"
        w = batch.reshape((rows,) + seg.num_segments + seg.local_shape)
        for ax in range(ndim):
            r = seg.halo[ax]
            if r == 0:
                continue
            s = seg.valid_shape[ax]
            l = seg.local_shape[ax]

            def _at(tile_sl: slice, win_sl: slice) -> tuple:
                # Axes < ax: full window extent (refreshed in earlier
                # passes); axes > ax: valid-only extent — corners fill in
                # transitively as later axes copy full earlier extents.
                idx: list = [slice(None)] * (1 + 2 * ndim)
                for j in range(ax + 1, ndim):
                    idx[1 + ndim + j] = slice(
                        seg.halo[j], seg.halo[j] + seg.valid_shape[j]
                    )
                idx[1 + ax] = tile_sl
                idx[1 + ndim + ax] = win_sl
                return tuple(idx)

            # Low halo [0, r): the previous tile's valid offsets [s, s+r).
            w[_at(slice(1, None), slice(0, r))] = w[
                _at(slice(0, -1), slice(s, s + r))
            ]
            if periodic:
                w[_at(slice(0, 1), slice(0, r))] = w[
                    _at(slice(-1, None), slice(s, s + r))
                ]
            else:
                w[_at(slice(0, 1), slice(0, r))] = 0.0
            # High halo [r+s, l): the next tile's valid offsets [r, 2r).
            w[_at(slice(0, -1), slice(r + s, l))] = w[
                _at(slice(1, None), slice(r, 2 * r))
            ]
            if periodic:
                w[_at(slice(-1, None), slice(r + s, l))] = w[
                    _at(slice(0, 1), slice(r, 2 * r))
                ]
            else:
                w[_at(slice(-1, None), slice(r + s, l))] = 0.0


def tailored_fft_stencil(
    grid: np.ndarray,
    kernel: StencilKernel,
    steps: int = 1,
    tile: int | Sequence[int] | None = None,
    boundary: Boundary = "periodic",
) -> np.ndarray:
    """Convenience wrapper: build a :class:`SegmentPlan` and run it.

    ``tile`` is the per-axis valid output size ``S``; by default a tile of
    up to 4x the fused halo (min 32) per axis, clipped to the grid.
    """
    grid = np.asarray(grid, dtype=np.float64)
    halo = tuple(steps * r for r in kernel.radius)
    if tile is None:
        tile = tuple(min(g, max(32, 4 * r)) for g, r in zip(grid.shape, halo))
    elif isinstance(tile, (int, np.integer)):
        tile = (int(tile),) * kernel.ndim
    plan = SegmentPlan(grid.shape, kernel, steps, tuple(tile), boundary)
    return plan.run(grid)
