"""The FlashFFTStencil system: tailoring + aligning + streamlining, end to end.

:class:`FlashFFTStencil` is the library's main entry point.  Construction
builds the whole pipeline of Figure 1 for a given grid/kernel/fusion depth:

1. **Kernel Tailoring** — a :class:`repro.core.tailoring.SegmentPlan` owns
   split/fuse/stitch.  The host runs the windows :func:`default_tile`
   picks: Eq.-(5) tiles for 1-D and zero-boundary plans, halo-free slabs
   for periodic multi-dimensional ones.  The GPU model (TCU emulation,
   :meth:`FlashFFTStencil.measure`) always uses the Eq.-(5) windows.
2. **Architecture Aligning** — 1-D segments get a Prime-Factor plan with
   Diagonal Data Indexing; multi-dimensional windows are already
   matrix-shaped; Double-layer Filling packs segment pairs.
3. **Computation Streamlining** — the fused window math runs as dense
   matrix products on the emulated TCU
   (:class:`repro.core.streamline.TCUStencilExecutor`).

Two execution paths produce *identical* numbers:

* ``apply(grid)`` — fast batched NumPy FFTs (use this for real work);
* ``apply(grid, emulate_tcu=True)`` — the fragment-tiled TCU path, which
  additionally records MMA counts, fragment sparsity, and the pipeline
  trace.

:meth:`measure` runs a small emulated sample and extrapolates per-point
flop/byte coefficients; :meth:`paper_scale_cost` turns those into a
roofline :class:`~repro.gpusim.roofline.KernelCost` at any problem size —
the bridge from laptop-scale numerics to the paper's 512M-point benchmarks.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..envutil import env_flag
from ..errors import FaultInjected, NumericalError, PlanError, WorkerCrashError
from ..gpusim.occupancy import OccupancyReport, occupancy
from ..gpusim.pipeline import overlap_throughput_factor
from ..gpusim.roofline import KernelCost
from ..gpusim.spec import A100, GPUSpec
from ..observability import NULL_TELEMETRY, Telemetry
from ..parallel.arena import WorkspaceArena
from ..parallel.backends import FFTBackend, get_backend
from ..parallel.sharding import ShardedExecutor, choose_workers
from ..robustness.faults import PROCESS_KINDS
from ..robustness.guards import GuardPolicy, check_array
from .autotune import TunedSegment, choose_segment_length, choose_tile_shape
from .kernels import StencilKernel, spectrum_cache_info
from .precision import resolve_precision
from .reference import Boundary
from .streamline import StreamlineConfig, StreamlineResult, TCUStencilExecutor
from .tailoring import SegmentPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.accuracy import PrecisionRouter
    from ..robustness.config import RobustnessConfig
    from ..robustness.faults import FaultInjector

__all__ = [
    "FlashFFTStencil",
    "FlashFFTMeasurement",
    "default_tile",
    "eq5_tile",
    "geometry_rule",
    "host_slabs",
    "plan_cache_info",
    "plan_cache_clear",
    "plan_key",
    "resident_default",
]

#: Environment switch for segment-resident iteration: when set truthy,
#: ``run(..., resident=None)`` keeps the window batch resident across full
#: applications, refreshing halos in place instead of stitching to the
#: grid and re-gathering (see ``HaloExchangePlan``).
_RESIDENT_ENV = "REPRO_RESIDENT"


def resident_default() -> bool:
    """Whether ``$REPRO_RESIDENT`` opts ``run()`` into resident iteration.

    Routed through :func:`repro.envutil.env_flag`, so an unrecognised
    value (``REPRO_RESIDENT=ture``) raises :class:`PlanError` naming the
    variable instead of silently disabling the switch.
    """
    return env_flag(_RESIDENT_ENV)


# --------------------------------------------------------------------------
# Window geometry
#
# Eq. (5) sizes each overlap-save window to one SM's shared memory.  That
# is the GPU's constraint, not the host's: on a CPU a periodic axis that
# one tile spans end to end needs no halo at all (the circular FFT wraps
# exactly, see SegmentPlan.halo).  So periodic multi-dimensional plans
# run *host windows* — axis 0 cut into one slab per shard worker, every
# other axis whole — while 1-D and zero-boundary plans keep Eq. (5).

#: A host slab is at least this many axis-0 halos long; shorter slabs
#: would transform more halo than the extra worker wins back.
MIN_SLAB_HALOS = 8


def _uses_host_slabs(kernel: StencilKernel, boundary: Boundary) -> bool:
    return boundary == "periodic" and kernel.ndim > 1


def host_slabs(
    grid_shape: tuple[int, ...], kernel: StencilKernel, fused_steps: int
) -> int:
    """Axis-0 slab count of a host-window plan.

    The worker count resolves first — :func:`choose_workers` over the
    grid's points with no explicit request, so ``$REPRO_WORKERS`` or the
    visible CPUs — then one slab per worker, fewer where a slab would be
    shorter than ``MIN_SLAB_HALOS`` axis-0 halos.  An explicit
    ``workers=`` on the plan sets how many threads run the slabs, never
    how many there are, so every worker count returns the same bits.
    """
    workers = choose_workers(int(np.prod(grid_shape)))
    halo0 = int(fused_steps) * kernel.radius[0]
    fit = grid_shape[0] // (MIN_SLAB_HALOS * halo0) if halo0 else grid_shape[0]
    return max(1, min(workers, fit))


def eq5_tile(
    grid_shape: tuple[int, ...],
    kernel: StencilKernel,
    fused_steps: int,
    gpu: GPUSpec,
    precision: str,
) -> tuple[tuple[int, ...], TunedSegment | None]:
    """The Eq.-(5) valid tile (clipped to the grid), plus the 1-D record.

    1-D: the Eq.-(5) segment length, shrunk until the window keeps a
    co-prime (PFA) factorisation for the TCU path.  Multi-dimensional:
    one fat block per SM (Eq. (5) with p = 1) — slice windows stream, so
    capacity beats block-level co-residency.
    """
    if kernel.ndim == 1:
        from .pfa import coprime_splits

        tuned = choose_segment_length(kernel, fused_steps, gpu, precision=precision)
        halo = fused_steps * kernel.max_radius
        s = min(tuned.valid, grid_shape[0])
        while s > 1 and not coprime_splits(s + 2 * halo):
            s -= 1
        return (s,), tuned
    auto = choose_tile_shape(
        kernel, fused_steps, gpu, blocks_per_sm=1, precision=precision
    )
    return tuple(min(t, g) for t, g in zip(auto, grid_shape)), None


def default_tile(
    grid_shape: tuple[int, ...],
    kernel: StencilKernel,
    fused_steps: int,
    boundary: Boundary,
    gpu: GPUSpec,
    precision: str,
) -> tuple[tuple[int, ...], TunedSegment | None]:
    """The valid tile a ``tile=None`` plan runs on this host.

    Periodic multi-dimensional plans: :func:`host_slabs` slabs along axis
    0, whole extent on every other axis (so their halo is 0 there).
    Everything else: :func:`eq5_tile`.  The plan, the tuner's cost model
    and the disk plan cache all resolve geometry through this one rule.
    """
    if _uses_host_slabs(kernel, boundary):
        slabs = host_slabs(grid_shape, kernel, fused_steps)
        return (-(-grid_shape[0] // slabs),) + tuple(grid_shape[1:]), None
    return eq5_tile(grid_shape, kernel, fused_steps, gpu, precision)


def geometry_rule(
    grid_shape: tuple[int, ...],
    kernel: StencilKernel,
    fused_steps: int,
    boundary: Boundary,
) -> str:
    """Cache-key tag of the rule that cuts a ``tile=None`` plan's windows:
    ``"host-slabs:<n>"`` (with the resolved slab count) or ``"eq5"``."""
    if _uses_host_slabs(kernel, boundary):
        return f"host-slabs:{host_slabs(grid_shape, kernel, fused_steps)}"
    return "eq5"


# --------------------------------------------------------------------------
# Module-level plan cache
#
# `FlashFFTStencil.run()` needs a one-off plan for the remainder
# `total_steps % fused_steps`; constructing it from scratch on every call
# repeats auto-tuning, PFA factor search, and spectrum derivation.  Plans
# are immutable once built (their caches are pure functions of the key
# below), so they are shared through a small LRU keyed on everything that
# shapes the numerics: grid, kernel, fusion depth, boundary, GPU model,
# technique config, and the tile override.

_PLAN_CACHE_MAX = 32
_plan_cache: "OrderedDict[tuple, FlashFFTStencil]" = OrderedDict()
_plan_cache_stats = {"hits": 0, "misses": 0}
#: Serialises every mutation of the OrderedDict + stats dict above so
#: concurrent ``run()`` callers cannot corrupt the eviction order or the
#: counters.  Plan *construction* happens outside the lock (it is slow);
#: a racing duplicate build just yields to the entry that landed first.
_plan_cache_lock = threading.Lock()


def plan_key(
    grid_shape: tuple[int, ...],
    kernel: StencilKernel,
    fused_steps: int,
    boundary: Boundary,
    gpu: GPUSpec,
    config: StreamlineConfig,
    tile: tuple[int, ...] | None,
    backend_name: str,
    workers: int | None,
    precision: str = "float64",
) -> tuple:
    """The canonical plan-cache tuple: everything that shapes a plan.

    Shared by the in-process LRU below and by the persistent on-disk cache
    (:mod:`repro.serving.plancache`), which digests this tuple's repr —
    one key definition, two cache tiers.  The FFT backend participates by
    *name* only: every registered backend is numerically interchangeable,
    so two worker configurations of one provider may safely share a plan.
    ``precision`` is part of the key — a float32 plan carries complex64
    spectra and float32 workspaces, so the tiers can never share an entry.
    A ``tile=None`` key also carries :func:`geometry_rule`: host-window
    geometry follows the visible CPUs and ``$REPRO_WORKERS``, so a change
    of either must not return a plan cut for the old slab count.
    """
    geometry = (
        geometry_rule(grid_shape, kernel, fused_steps, boundary)
        if tile is None
        else None
    )
    return (
        grid_shape,
        kernel,
        fused_steps,
        boundary,
        gpu,
        config,
        tile,
        backend_name,
        workers,
        precision,
        geometry,
    )


def _cached_plan_variant(plan: "FlashFFTStencil", precision: str) -> "FlashFFTStencil":
    """The cache-shared sibling of ``plan`` in another precision tier."""
    if precision == plan.precision:
        return plan
    return _cached_plan(
        plan.grid_shape,
        plan.kernel,
        plan.fused_steps,
        plan.segments.boundary,
        plan.gpu,
        plan.config,
        plan._tile_override,
        backend=plan._backend,
        workers=plan._workers_requested,
        precision=precision,
    )


def _cached_plan(
    grid_shape: tuple[int, ...],
    kernel: StencilKernel,
    fused_steps: int,
    boundary: Boundary,
    gpu: GPUSpec,
    config: StreamlineConfig,
    tile: tuple[int, ...] | None,
    telemetry: Telemetry = NULL_TELEMETRY,
    backend: "FFTBackend | None" = None,
    workers: int | None = None,
    precision: str | None = None,
) -> "FlashFFTStencil":
    backend = get_backend(backend)
    precision = resolve_precision(precision)
    key = plan_key(
        grid_shape,
        kernel,
        fused_steps,
        boundary,
        gpu,
        config,
        tile,
        backend.name,
        workers,
        precision,
    )
    with _plan_cache_lock:
        plan = _plan_cache.get(key)
        if plan is not None:
            _plan_cache.move_to_end(key)
            _plan_cache_stats["hits"] += 1
            telemetry.count("plan_cache_hits", 1)
            return plan
        _plan_cache_stats["misses"] += 1
    telemetry.count("plan_cache_misses", 1)
    plan = FlashFFTStencil(
        grid_shape,
        kernel,
        fused_steps=fused_steps,
        boundary=boundary,
        gpu=gpu,
        config=config,
        tile=tile,
        backend=backend,
        workers=workers,
        precision=precision,
    )
    # Cache-owned plans are shared across callers and must never be
    # mutated (see FlashFFTStencil.apply / run).
    plan._cache_owned = True
    with _plan_cache_lock:
        racing = _plan_cache.get(key)
        if racing is not None:
            _plan_cache.move_to_end(key)
            return racing
        _plan_cache[key] = plan
        while len(_plan_cache) > _PLAN_CACHE_MAX:
            _plan_cache.popitem(last=False)
    return plan


def plan_cache_info() -> dict[str, int]:
    """Hit/miss/size counters for the module-level plan cache."""
    with _plan_cache_lock:
        return {
            "hits": _plan_cache_stats["hits"],
            "misses": _plan_cache_stats["misses"],
            "size": len(_plan_cache),
            "maxsize": _PLAN_CACHE_MAX,
        }


def plan_cache_clear() -> None:
    """Drop all cached plans and reset the counters."""
    with _plan_cache_lock:
        _plan_cache.clear()
        _plan_cache_stats["hits"] = 0
        _plan_cache_stats["misses"] = 0


def _as_grid(grid: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Coerce to a C-contiguous ``dtype`` grid without copying when already both."""
    if (
        isinstance(grid, np.ndarray)
        and grid.dtype == dtype
        and grid.flags.c_contiguous
    ):
        return grid
    return np.ascontiguousarray(grid, dtype=dtype)


@dataclass(frozen=True)
class FlashFFTMeasurement:
    """Per-point resource coefficients measured on the emulated TCU."""

    flops_per_point: float        # TCU flops per output point per fused apply
    bytes_per_point: float        # HBM bytes per output point per fused apply
    sparsity: float               # operand-fragment zero fraction
    tcu_utilization: float        # pipeline busy fraction
    occupancy: OccupancyReport
    sample: StreamlineResult

    @property
    def arithmetic_intensity(self) -> float:
        return self.flops_per_point / self.bytes_per_point

    @property
    def compute_efficiency(self) -> float:
        """Achieved fraction of TC peak: pipe utilization, partially
        recovered by warp-level overlap at the measured occupancy."""
        overlap = overlap_throughput_factor(self.occupancy.warps_per_sm)
        u = self.tcu_utilization
        return min(1.0, u + (1.0 - u) * overlap * u)


class FlashFFTStencil:
    """A reusable fused-stencil plan for one grid shape / kernel / fusion depth.

    Parameters
    ----------
    grid_shape:
        Full problem shape (one int per kernel dimension).
    kernel:
        The stencil to advance.
    fused_steps:
        Temporal fusion depth ``T`` — time steps folded into each
        application via the spectrum power (Equation (10)).
    boundary:
        ``"periodic"`` or ``"zero"``.
    gpu:
        Hardware model of the Eq.-(5) windows: the TCU emulation,
        :meth:`measure`, and the tiles of 1-D and zero-boundary plans.
    config:
        §3.3 technique switches (all on by default).
    tile:
        Override the valid-tile shape ``S`` (per-axis ints).  ``None``
        takes :func:`default_tile`: Eq.-(5) tiles for 1-D and
        zero-boundary plans, one axis-0 slab per shard worker (and whole
        extent elsewhere) for periodic multi-dimensional plans.
    backend:
        FFT provider: an :class:`~repro.parallel.backends.FFTBackend`, a
        registry name (``"numpy"``, ``"scipy"``, ``"scipy:4"``), or
        ``None`` — which consults ``$REPRO_FFT_BACKEND`` and defaults to
        ``numpy``.  All providers agree to ≤1e-12 max-abs.
    workers:
        Sharded-execution worker count.  ``None`` autotunes from the
        plan's window points and the visible CPUs (``$REPRO_WORKERS``
        overrides); ``1`` forces the serial path; ``N > 1`` runs
        split→fuse→stitch shards on a thread pool (at most one per
        axis-0 tile) — bit-identical to serial, since overlap-save
        windows are independent (§3.1).
    arena:
        When ``True`` (default), steady-state applications gather into a
        pooled :class:`~repro.parallel.arena.WorkspaceArena`, eliminating
        per-application window/pad allocations.  ``False`` restores the
        allocate-per-call behaviour (benchmark baseline).
    precision:
        Execution tier: ``"float64"`` (the bit-exact reference, default)
        or ``"float32"`` (grids travel as float32, spectra as complex64 —
        roughly half the memory traffic per fused application, ~``eps32``
        relative error per application; see TECHNIQUES.md §17).  ``None``
        consults ``$REPRO_DTYPE`` and defaults to ``"float64"``.  The TCU
        emulation and the multi-process engine are float64-only.
    """

    def __init__(
        self,
        grid_shape: int | Sequence[int],
        kernel: StencilKernel,
        fused_steps: int = 1,
        boundary: Boundary = "periodic",
        gpu: GPUSpec = A100,
        config: StreamlineConfig = StreamlineConfig(),
        tile: int | Sequence[int] | None = None,
        backend: "FFTBackend | str | None" = None,
        workers: int | None = None,
        arena: bool = True,
        precision: str | None = None,
    ) -> None:
        if isinstance(grid_shape, (int, np.integer)):
            grid_shape = (int(grid_shape),)
        grid_shape = tuple(int(s) for s in grid_shape)
        self.kernel = kernel
        self.fused_steps = int(fused_steps)
        self.gpu = gpu
        self.config = config
        self.precision = resolve_precision(precision)
        self.tuned: TunedSegment | None = None
        user_tile = tile

        if tile is None:
            tile, self.tuned = default_tile(
                grid_shape, kernel, self.fused_steps, boundary, gpu, self.precision
            )
        elif isinstance(tile, (int, np.integer)):
            tile = (int(tile),) * kernel.ndim
        else:
            tile = tuple(int(t) for t in tile)

        #: The user-requested tile, if any — forwarded to remainder tail
        #: plans so an explicit tile does not silently fall back to
        #: auto-tuning for the residual steps.
        self._tile_override: tuple[int, ...] | None = (
            tuple(tile) if user_tile is not None else None
        )
        self.segments = SegmentPlan(
            grid_shape, kernel, self.fused_steps, tile, boundary, self.precision
        )
        self._last_result: StreamlineResult | None = None
        #: True for plans owned by the module-level cache: those are shared
        #: across callers and must stay immutable after construction.
        self._cache_owned = False
        # ---- throughput engine -------------------------------------
        self._backend = get_backend(backend)
        self._workers_requested = workers
        self._arena_enabled = bool(arena)
        self._arena_pool: list[WorkspaceArena] = []
        self._arena_lock = threading.Lock()
        # ---- scale-out engine (lazy; perf state like the arena pool) --
        self._proc_engine = None
        self._proc_lock = threading.Lock()
        # ---- precision router (lazy; shared by apply/run/run_many) ----
        self._router = None
        self._router_lock = threading.Lock()

    # ------------------------------------------------------------ properties

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.segments.grid_shape

    @property
    def boundary(self) -> str:
        return self.segments.boundary

    @property
    def local_shape(self) -> tuple[int, ...]:
        return self.segments.local_shape

    @property
    def last_streamline_result(self) -> StreamlineResult | None:
        """The :class:`StreamlineResult` of the most recent emulated apply.

        Covers every ``emulate_tcu=True`` execution this plan ran —
        including the remainder tail of :meth:`run`, whose result is
        propagated back here (the cache-shared tail plan itself is never
        mutated)."""
        return self._last_result

    @property
    def backend(self) -> FFTBackend:
        """The FFT provider every transform of this plan routes through."""
        return self._backend

    @property
    def dtype(self) -> np.dtype:
        """Real grid dtype of this plan's precision tier."""
        return self.segments.dtype

    @property
    def cdtype(self) -> np.dtype:
        """Complex spectrum dtype of this plan's precision tier."""
        return self.segments.cdtype

    def variant(self, precision: str) -> "FlashFFTStencil":
        """This plan's cache-shared sibling in another precision tier.

        Same geometry, kernel, fusion depth, boundary, backend, and worker
        setting — only the tier differs.  ``variant(self.precision)``
        returns ``self``; other tiers come from the module-level plan
        cache, so repeated routing never rebuilds plans.
        """
        return _cached_plan_variant(self, resolve_precision(precision))

    def router(self) -> "PrecisionRouter":
        """The lazily-built accuracy router shared by ``tolerance=`` calls.

        One router per user-facing plan: it owns the float32/float64
        variant pair, the calibrated error model, the verification cadence,
        and the sticky escalation state (see
        :class:`repro.analysis.accuracy.PrecisionRouter`).
        """
        from ..analysis.accuracy import PrecisionRouter

        with self._router_lock:
            if self._router is None:
                self._router = PrecisionRouter(self)
            return self._router

    def planning_artifacts(self) -> dict:
        """Export hook for the persistent plan cache: the re-planning work.

        Returns the products a fresh process would otherwise re-derive
        when constructing this plan — the resolved valid tile (for
        Eq.-(5) geometry the tile search plus, in 1-D, the
        PFA-factorisable shrink loop) and the window-local fused spectrum
        ``H_L ** steps`` (an FFT plus a complex power).
        :meth:`repro.serving.plancache.PlanDiskCache.put` persists them;
        importing goes through :func:`repro.core.kernels.spectrum_cache_seed`
        plus, for Eq.-(5) geometry, an explicit ``tile=`` override at
        construction.
        """
        return {
            "tile": tuple(self.segments.valid_shape),
            "local_shape": tuple(self.local_shape),
            "steps": int(self.fused_steps),
            "precision": self.precision,
            "fused_spectrum": np.asarray(self.segments.fused_spectrum()),
        }

    @cached_property
    def gpu_segments(self) -> SegmentPlan:
        """The Eq.-(5) windows of the GPU model, with the full halo.

        The TCU emulation, :meth:`measure` and :meth:`paper_scale_cost`
        run on these, so paper-reproduction numbers do not depend on the
        host windows :attr:`segments` holds.  An explicit ``tile`` is the
        GPU tile as given; ``tile=None`` re-derives :func:`eq5_tile`.
        Shares :attr:`segments` when the two geometries coincide.
        """
        if self._tile_override is not None or not _uses_host_slabs(
            self.kernel, self.boundary
        ):
            tile = self.segments.valid_shape
        else:
            tile, _ = eq5_tile(
                self.grid_shape, self.kernel, self.fused_steps, self.gpu,
                self.precision,
            )
        gpu = SegmentPlan(
            self.grid_shape, self.kernel, self.fused_steps, tile,
            self.boundary, self.precision, full_halo=True,
        )
        if gpu.local_shape == self.local_shape and tile == self.segments.valid_shape:
            return self.segments
        return gpu

    @cached_property
    def effective_workers(self) -> int:
        """The resolved shard-worker count: autotuned from the window
        points when not requested, at most one per axis-0 tile."""
        seg = self.segments
        return min(
            choose_workers(seg.window_points, self._workers_requested),
            seg.num_segments[0],
        )

    @cached_property
    def _shard_executor(self) -> ShardedExecutor | None:
        """Sharded split→fuse→stitch engine, or ``None`` on the serial path."""
        if self.effective_workers <= 1:
            return None
        return ShardedExecutor(
            self.segments, self.effective_workers, self._backend
        )

    # ------------------------------------------------------- arena pool
    #
    # Steady-state applications check a WorkspaceArena out of a small
    # per-plan pool and return it when done: single-threaded loops reuse
    # one arena forever (zero per-application allocation), concurrent
    # callers each get their own, and the pool cap bounds retained memory.

    _ARENA_POOL_MAX = 2

    def _arena_acquire(self) -> WorkspaceArena | None:
        if not self._arena_enabled:
            return None
        with self._arena_lock:
            if self._arena_pool:
                return self._arena_pool.pop()
        return WorkspaceArena(self.segments)

    def _arena_release(self, arena: WorkspaceArena | None) -> None:
        if arena is None:
            return
        with self._arena_lock:
            if len(self._arena_pool) < self._ARENA_POOL_MAX:
                self._arena_pool.append(arena)

    @cached_property
    def executor(self) -> TCUStencilExecutor:
        """Lazily-built TCU execution engine for this plan's window shape."""
        if self.precision != "float64":
            raise PlanError(
                "emulate_tcu requires the float64 tier: the emulated "
                f"fragment pipeline is double-precision only, plan is "
                f"{self.precision}"
            )
        seg = self.gpu_segments
        pfa_split = None
        if self.tuned is not None and seg.local_shape == (self.tuned.length,):
            pfa_split = self.tuned.pfa_split
        if len(seg.local_shape) == 1:
            from .pfa import coprime_splits

            if pfa_split is None and not coprime_splits(seg.local_shape[0]):
                raise PlanError(
                    f"window length {seg.local_shape[0]} has no co-prime "
                    "factorisation; pick a different tile"
                )
        return TCUStencilExecutor(
            seg.local_shape,
            seg.fused_spectrum(),
            self.config,
            pfa_split=pfa_split,
        )

    # ------------------------------------------------------------- execution

    def apply(
        self,
        grid: np.ndarray,
        emulate_tcu: bool = False,
        out: np.ndarray | None = None,
        telemetry: Telemetry | None = None,
        robustness: "RobustnessConfig | None" = None,
        tolerance: float | None = None,
    ) -> np.ndarray:
        """One fused application: advance the grid by ``fused_steps`` steps.

        ``tolerance`` (optional) opts into accuracy-budget routing: the
        application runs on the cheapest precision tier whose modeled
        error stays within ``tolerance`` of the float64 reference (see
        :meth:`router`); incompatible with ``emulate_tcu``/``out``/
        ``robustness``, which pin the execution path.

        ``out`` (optional, plan dtype, grid-shaped) receives the result in
        place so steady-state loops can ping-pong two buffers with no
        per-step output allocation.  It must not alias ``grid`` under the
        zero boundary, and must not *partially* overlap ``grid`` under any
        boundary (both enforced); under the periodic boundary passing the
        grid itself is supported.  ``telemetry`` (optional) receives
        per-stage spans (``split``/``fuse``/``stitch``/``boundary_fix``)
        and windows processed / points stitched / MMA counters; the default
        :data:`~repro.observability.NULL_TELEMETRY` records nothing.
        ``robustness`` (optional) applies that config's numerical guards
        (and fault injector) to this application; retry/sentinel/checkpoint
        recovery is :meth:`run`-level.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        if tolerance is not None:
            if emulate_tcu or out is not None or robustness is not None:
                raise PlanError(
                    "tolerance= routing is incompatible with emulate_tcu, "
                    "out=, and robustness= (they pin the execution path)"
                )
            return self.router().run(
                grid, self.fused_steps, tolerance, telemetry=tel
            )
        guards = robustness.guards if robustness is not None else None
        injector = robustness.injector if robustness is not None else None
        out, result = self._apply_impl(
            grid, emulate_tcu, out, tel, guards=guards, injector=injector
        )
        self._store_result(result)
        return out

    def _check_out_aliasing(self, grid: np.ndarray, out: np.ndarray) -> None:
        """Reject ``out`` buffers the stage ordering cannot support.

        Zero boundary: any sharing is fatal — the boundary-band fix
        re-reads ``grid`` after ``out`` is written.  Other boundaries:
        writing straight into the grid's own buffer is fine (the grid is
        fully consumed by ``split`` before ``stitch`` writes), but a
        *partially* overlapping view is an aliasing hazard we refuse to
        reason about rather than silently depend on stage ordering.
        """
        if not np.shares_memory(grid, out):
            return
        if self.boundary == "zero":
            # The zero-boundary band fix re-reads `grid` after `out` is
            # written, so in-place application silently corrupts the band.
            raise PlanError(
                "out must not alias grid under the zero boundary: the "
                "boundary-band fix reads grid after out is written"
            )
        same_view = (
            out.shape == grid.shape
            and out.strides == grid.strides
            and out.__array_interface__["data"][0]
            == grid.__array_interface__["data"][0]
        )
        if not same_view:
            raise PlanError(
                "out must not partially alias grid: pass the grid itself "
                "(periodic boundary only) or a disjoint buffer"
            )

    def _apply_impl(
        self,
        grid: np.ndarray,
        emulate_tcu: bool,
        out: np.ndarray | None,
        tel: Telemetry,
        guards: "GuardPolicy | None" = None,
        injector: "FaultInjector | None" = None,
        apply_index: int = 0,
    ) -> tuple[np.ndarray, StreamlineResult | None]:
        """``apply`` body: returns the streamline result instead of storing
        it, so callers holding cache-shared plans can propagate it without
        mutating the shared plan.  ``guards``/``injector`` (robustness
        layer) validate / sabotage the stage boundaries; both default to
        absent so the plain hot path pays nothing.

        Execution engine selection: when the plan resolved ``workers > 1``
        the split→fuse→stitch block runs sharded (bit-identical — see
        :mod:`repro.parallel.sharding`); the serial path is kept for the
        TCU emulation, for robustness hooks that need whole-batch stage
        arrays (stage guards, fault injection), and for in-place ``out``
        aliasing, whose consume-before-write ordering sharding cannot
        honour.  Both paths gather into a pooled workspace arena, making
        the steady state allocation-free outside the FFT transients.
        """
        grid = _as_grid(grid, self.dtype)
        if grid.shape != self.grid_shape:
            raise PlanError(f"grid shape {grid.shape} != plan {self.grid_shape}")
        if out is not None:
            if out.dtype != self.dtype:
                raise PlanError(
                    f"out dtype {out.dtype} != plan tier dtype {self.dtype}"
                )
            self._check_out_aliasing(grid, out)
        guarded = guards is not None and guards.enabled
        if injector is not None:
            grid = injector.visit("input", grid, apply_index, tel)
        if guarded and guards.check_inputs:
            grid = check_array(grid, "grid", guards, tel)
        # The emulated TCU runs the GPU model's Eq.-(5) windows; the arena
        # is sized for the host windows, so it only serves those.
        seg = self.gpu_segments if emulate_tcu else self.segments
        arena = self._arena_acquire() if seg is self.segments else None
        try:
            result = None
            sharded = (
                self._shard_executor is not None
                and not emulate_tcu
                and injector is None
                and not (guarded and guards.check_stages)
                and (out is None or not np.shares_memory(grid, out))
            )
            if sharded:
                out = self._shard_executor.apply(
                    grid, out=out, arena=arena, telemetry=tel
                )
            else:
                with tel.span("split"):
                    windows = seg.split(
                        grid,
                        out=arena.windows if arena is not None else None,
                        scratch=arena.padded if arena is not None else None,
                    )
                if injector is not None:
                    windows = injector.visit("split", windows, apply_index, tel)
                if guarded and guards.check_stages:
                    windows = check_array(windows, "split windows", guards, tel)
                if emulate_tcu:
                    with tel.span("fuse"):
                        result = self.executor.run(windows, telemetry=tel)
                    fused = result.output
                else:
                    with tel.span("fuse"):
                        fused = seg.fuse(windows, backend=self._backend)
                    if tel.enabled:
                        tel.count("fft_batches", 1)
                if injector is not None:
                    fused = injector.visit("fuse", fused, apply_index, tel)
                if guarded and guards.check_stages:
                    fused = check_array(fused, "fused windows", guards, tel)
                with tel.span("stitch"):
                    out = seg.stitch(fused, out=out)
        finally:
            self._arena_release(arena)
        if injector is not None:
            out = injector.visit("stitch", out, apply_index, tel)
        if tel.enabled:
            tel.count("applications", 1)
            tel.count("windows", seg.total_segments)
            tel.count("points_stitched", int(np.prod(self.grid_shape)))
        if self.boundary == "zero" and self.fused_steps > 1:
            with tel.span("boundary_fix"):
                out = self.segments.fix_zero_boundary_band(grid, out)
        if injector is not None:
            out = injector.visit("output", out, apply_index, tel)
        if guarded and guards.check_outputs:
            out = check_array(out, "output", guards, tel)
        return out, result

    def _store_result(self, result: StreamlineResult | None) -> None:
        """Remember an emulated-apply result — unless this plan is shared
        through the module-level cache, which must never be mutated."""
        if result is not None and not self._cache_owned:
            self._last_result = result

    def _tail_plan(
        self, rem: int, telemetry: Telemetry = NULL_TELEMETRY
    ) -> "FlashFFTStencil":
        """The cache-shared plan for a remainder fusion depth ``rem``,
        inheriting this plan's config, tile override, FFT backend, and
        worker setting."""
        return _cached_plan(
            self.grid_shape,
            self.kernel,
            rem,
            self.segments.boundary,
            self.gpu,
            self.config,
            self._tile_override,
            telemetry=telemetry,
            backend=self._backend,
            workers=self._workers_requested,
            precision=self.precision,
        )

    def _resolve_resident(self, resident: bool | None, emulate_tcu: bool) -> bool:
        """Resolve the three-state ``resident`` flag against the TCU path.

        The emulated executor consumes whole window batches through its
        fragment pipeline and has no halo-refresh hook, so an *explicit*
        ``resident=True`` with ``emulate_tcu=True`` is a caller error; the
        ``$REPRO_RESIDENT`` environment default merely falls back to the
        stitch-per-application path (the env var is a fleet-wide switch and
        must not break emulation runs).
        """
        if resident is None:
            return resident_default() and not emulate_tcu
        if resident and emulate_tcu:
            raise PlanError(
                "resident=True is not supported with emulate_tcu=True: the "
                "emulated TCU pipeline has no halo-refresh hook"
            )
        return bool(resident)

    def _resolve_processes(self, processes: int | None, emulate_tcu: bool) -> int:
        """Resolve the ``processes`` knob to an effective rank count.

        ``None`` consults ``$REPRO_PROCS`` (small grids degrade to
        serial); ``0`` autotunes; explicit ``N >= 1`` is honoured (clamped
        to the first-axis tile count).  Like ``resident``, an *explicit*
        multi-process request with ``emulate_tcu=True`` is a caller error,
        while the env default silently falls back to serial — the emulated
        pipeline runs whole window batches and has no exchange hook.
        """
        from ..distributed.engine import choose_processes

        points = int(np.prod(self.grid_shape))
        tiles = self.segments.num_segments[0]
        if processes is None:
            if emulate_tcu or self.precision != "float64":
                # The shared-memory window batch is float64; the env
                # default degrades reduced-precision plans to the
                # thread/serial path rather than breaking a fleet switch.
                return 1
            return choose_processes(points, tiles, None)
        if self.precision != "float64" and int(processes) == 0:
            # Explicit autotune: degrade like the env default.
            return 1
        resolved = choose_processes(points, tiles, int(processes))
        if resolved > 1 and emulate_tcu:
            raise PlanError(
                "processes > 1 is not supported with emulate_tcu=True: the "
                "emulated TCU pipeline has no halo-refresh hook"
            )
        if resolved > 1 and self.precision != "float64":
            raise PlanError(
                "processes > 1 requires the float64 tier: the shared-memory "
                f"process engine is double-precision only, plan is "
                f"{self.precision}"
            )
        return resolved

    def _process_engine(self, processes: int):
        """The cached :class:`~repro.distributed.engine.ProcessEngine` for
        ``processes`` ranks (worker pools persist across runs; a different
        rank count closes the old pool and builds a new one)."""
        from ..distributed.engine import ProcessEngine

        with self._proc_lock:
            eng = self._proc_engine
            if eng is not None and (eng.closed or eng.processes != processes):
                eng.close()
                eng = self._proc_engine = None
            if eng is None:
                eng = self._proc_engine = ProcessEngine(
                    self.segments, processes, backend=self._backend
                )
            return eng

    def close_processes(self) -> None:
        """Release this plan's worker pool and shared blocks, if any."""
        with self._proc_lock:
            if self._proc_engine is not None:
                self._proc_engine.close()
                self._proc_engine = None

    def _run_resident_block(
        self,
        grid: np.ndarray,
        applications: int,
        tel: Telemetry,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``applications`` fused applications with the windows resident.

        One split at entry, one stitch at exit; between applications each
        window's halo is refreshed in place from its neighbours' valid
        regions (:class:`~repro.core.tailoring.HaloExchangePlan`) — a copy
        that overlap-save makes **bit-identical** to stitch + re-split,
        while moving ``stale_points`` values instead of round-tripping the
        whole grid.  The zero-boundary band fix runs in window space
        between fuse and exchange so refreshed halos carry the corrected
        band.  Sharded plans run the same loop with one pool barrier per
        application (:meth:`ShardedExecutor.run_resident`).
        """
        grid = _as_grid(grid, self.dtype)
        if grid.shape != self.grid_shape:
            raise PlanError(f"grid shape {grid.shape} != plan {self.grid_shape}")
        if applications < 1:
            raise PlanError(f"applications must be >= 1, got {applications}")
        arena = self._arena_acquire()
        try:
            if self._shard_executor is not None and (
                out is None or not np.shares_memory(grid, out)
            ):
                return self._shard_executor.run_resident(
                    grid, applications, out=out, arena=arena, telemetry=tel
                )
            seg = self.segments
            ex = seg.exchange_plan()
            halo_buf = (
                arena.halo_scratch(ex.stale_points)
                if arena is not None and ex.strategy == "gather"
                else None
            )
            zero_fix = seg.boundary == "zero" and self.fused_steps > 1
            with tel.span("split"):
                cur = seg.split(
                    grid,
                    out=arena.windows if arena is not None else None,
                    scratch=arena.padded if arena is not None else None,
                )
            for k in range(applications):
                with tel.span("fuse"):
                    fused = seg.fuse(cur, backend=self._backend)
                if tel.enabled:
                    tel.count("applications", 1)
                    tel.count("windows", seg.total_segments)
                    tel.count("fft_batches", 1)
                if zero_fix:
                    with tel.span("boundary_fix"):
                        seg.fix_zero_boundary_band_windows(cur, fused)
                if k + 1 < applications:
                    with tel.span("exchange"):
                        ex.refresh(fused, scratch=halo_buf, telemetry=tel)
                    if tel.enabled:
                        tel.count("hbm_round_trips_saved", 1)
                cur = fused
            with tel.span("stitch"):
                out = seg.stitch(cur, out=out)
            if tel.enabled:
                tel.count("points_stitched", int(np.prod(self.grid_shape)))
        finally:
            self._arena_release(arena)
        return out

    def run(
        self,
        grid: np.ndarray,
        total_steps: int,
        emulate_tcu: bool = False,
        telemetry: Telemetry | None = None,
        robustness: "RobustnessConfig | None" = None,
        resident: bool | None = None,
        processes: int | None = None,
        tolerance: float | None = None,
        tune: bool | None = None,
    ) -> np.ndarray:
        """Advance ``total_steps`` time steps (fused in chunks of ``fused_steps``).

        ``tolerance`` (optional) opts into accuracy-budget routing: the run
        executes on the cheapest precision tier whose modeled end-to-end
        error stays within ``tolerance`` of the float64 reference, with a
        cadenced drift probe escalating back to float64 on a breach (see
        :meth:`router` and TECHNIQUES.md §17).  Incompatible with
        ``emulate_tcu`` and ``robustness``, which pin the execution path.

        A remainder ``total_steps % fused_steps`` is handled by a plan with
        the residual fusion depth — the flexibility §4 argues for — fetched
        from the module-level plan cache (and inheriting this plan's config
        and tile override) rather than rebuilt per call.  The steady-state
        loop ping-pongs two output buffers, so per-application allocation is
        limited to FFT workspace.

        ``resident`` opts the full applications into segment-resident
        iteration: split once, fuse + halo-exchange per application, stitch
        once — bit-identical to the stitch-per-application loop, but the
        per-application grid round trip through HBM is replaced by an
        exchange touching only ``HaloExchangePlan.stale_points`` values.
        ``None`` (default) consults ``$REPRO_RESIDENT``; the remainder tail
        always runs through the existing path (its fusion depth differs).

        ``processes`` scales the full applications out across worker
        *processes* (:class:`~repro.distributed.engine.ProcessEngine`):
        the global window batch lives in shared memory, each rank owns a
        contiguous slab of window rows, and only cross-rank halo bands
        move between applications — still bit-identical to serial.
        ``None`` consults ``$REPRO_PROCS`` (small grids stay serial);
        ``0`` autotunes from the visible CPUs; ``N >= 1`` is honoured.
        The process path is inherently resident, so it supersedes the
        ``resident`` flag for the full block; runs too short to amortise
        dispatch (fewer than two full applications) degrade to the
        thread/serial path.

        ``telemetry`` (optional) is threaded through every application (the
        remainder runs under a ``tail`` span) and, at the end, receives the
        current plan-cache and spectrum-cache statistics.

        ``robustness`` (optional) opts into the fault-tolerant execution
        layer: numerical guards on grids and stage outputs, bounded
        retry-with-backoff for transient stage faults, checkpoint/restart
        of the time-stepping state, a drift sentinel that probes the
        spectral result against the reference stencil and gracefully
        degrades the run to the reference path on a tolerance breach, and
        (for tests) fault injection.  ``robustness=None`` takes the plain
        hot path — zero overhead.  Resident iteration composes with it by
        chunking: checkpoint, sentinel-probe, and fault sites force a
        stitch (chunk boundary), so recovery semantics are unchanged.

        ``tune`` opts the run into online autotuning
        (:class:`~repro.tuner.OnlineTuner`): the joint configuration —
        fusion depth, tile, FFT backend, workers, residency, processes —
        is taken from the tuned-winner cache, searched with interleaved
        live trials on a miss, and the winner executed end to end.
        ``None`` (default) consults ``$REPRO_AUTOTUNE``, which silently
        yields to any explicitly pinned knob (``emulate_tcu``,
        ``robustness``, ``tolerance``, explicit ``resident``/
        ``processes``) — the established env-default convention — while
        an *explicit* ``tune=True`` conflicts loudly with all of them.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        if total_steps < 0:
            raise PlanError(f"total_steps must be >= 0, got {total_steps}")
        if tune is None:
            from ..tuner import autotune_default

            tune = (
                autotune_default()
                and not emulate_tcu
                and robustness is None
                and tolerance is None
                and resident is None
                and processes is None
            )
        elif tune:
            if emulate_tcu or robustness is not None or tolerance is not None:
                raise PlanError(
                    "tune=True is incompatible with emulate_tcu, "
                    "robustness=, and tolerance= (they pin the execution "
                    "path)"
                )
            if resident is not None or processes is not None:
                raise PlanError(
                    "tune=True is incompatible with explicit resident=/"
                    "processes=: they are tuner dimensions (pin them and "
                    "drop tune, or let the tuner choose)"
                )
        if tune:
            from ..tuner import get_default_tuner

            return get_default_tuner().run(self, grid, total_steps, telemetry=tel)
        if tolerance is not None:
            if emulate_tcu or robustness is not None:
                raise PlanError(
                    "tolerance= routing is incompatible with emulate_tcu "
                    "and robustness= (they pin the execution path)"
                )
            return self.router().run(
                grid,
                total_steps,
                tolerance,
                telemetry=tel,
                resident=resident,
                processes=processes,
            )
        use_resident = self._resolve_resident(resident, emulate_tcu)
        use_procs = self._resolve_processes(processes, emulate_tcu)
        if robustness is not None:
            return self._run_robust(
                grid,
                total_steps,
                emulate_tcu,
                tel,
                robustness,
                use_resident,
                use_procs,
            )
        cur = _as_grid(grid, self.dtype)
        full, rem = divmod(total_steps, self.fused_steps)
        if full == 0 and rem == 0:
            return cur.copy()
        if use_procs > 1 and full >= 2:
            # Scale-out block for the full applications; the remainder
            # tail has a different window geometry and runs through the
            # stitched path, exactly like the resident engine's tail.
            cur = self._process_engine(use_procs).run(cur, full, telemetry=tel)
            if rem:
                tail = self._tail_plan(rem, tel)
                with tel.span("tail"):
                    cur, result = tail._apply_impl(cur, emulate_tcu, None, tel)
                self._store_result(result)
            if tel.enabled:
                tel.record_cache("plan_cache", **plan_cache_info())
                tel.record_cache("spectrum_cache", **spectrum_cache_info())
            return cur
        if use_resident and full >= 2:
            # Resident block for the full applications; the remainder tail
            # has a different window geometry, so it runs through the
            # stitched path exactly as before.
            cur = self._run_resident_block(cur, full, tel)
            if rem:
                tail = self._tail_plan(rem, tel)
                with tel.span("tail"):
                    cur, result = tail._apply_impl(cur, emulate_tcu, None, tel)
                self._store_result(result)
            if tel.enabled:
                tel.record_cache("plan_cache", **plan_cache_info())
                tel.record_cache("spectrum_cache", **spectrum_cache_info())
            return cur
        bufs = (
            np.empty(self.grid_shape, dtype=self.dtype),
            np.empty(self.grid_shape, dtype=self.dtype),
        )
        which = 0
        for _ in range(full):
            cur, result = self._apply_impl(cur, emulate_tcu, bufs[which], tel)
            self._store_result(result)
            which ^= 1
        if rem:
            tail = self._tail_plan(rem, tel)
            # The tail plan is cache-shared: run its body without mutating
            # it and keep the streamline result on *this* plan.
            with tel.span("tail"):
                cur, result = tail._apply_impl(cur, emulate_tcu, bufs[which], tel)
            self._store_result(result)
        if tel.enabled:
            tel.record_cache("plan_cache", **plan_cache_info())
            tel.record_cache("spectrum_cache", **spectrum_cache_info())
        return cur

    # ------------------------------------------------ batched multi-grid

    def apply_many(
        self,
        grids,
        out: np.ndarray | None = None,
        *,
        double_layer: bool = False,
        telemetry: Telemetry | None = None,
    ) -> np.ndarray:
        """One fused application of B independent same-shape grids.

        The B window batches are stacked into a single ``(B *
        total_segments, *local_shape)`` batch, so one split → FFT →
        multiply → iFFT → stitch pass serves every grid — bit-identical to
        B separate :meth:`apply` calls.  ``double_layer=True`` packs grid
        pairs into the real/imaginary layers of one complex pass
        (Double-layer Filling, §3.2.3; ≤1e-12 of the real path).  See
        :func:`repro.parallel.batch.apply_many`.
        """
        from ..parallel.batch import apply_many as _apply_many

        return _apply_many(
            self, grids, out=out, double_layer=double_layer, telemetry=telemetry
        )

    def run_many(
        self,
        grids,
        total_steps: int,
        *,
        double_layer: bool = False,
        workers: int | None = None,
        telemetry: Telemetry | None = None,
        resident: bool | None = None,
        processes: int | None = None,
        tolerance: float | None = None,
        tune: bool | None = None,
    ) -> np.ndarray:
        """Advance B independent grids ``total_steps`` steps in batched
        passes (remainder handled by the cached tail plan, as in
        :meth:`run`); ``workers`` shards the grid axis across a thread
        pool.  ``resident`` keeps the stacked window batch resident across
        full applications (``None`` consults ``$REPRO_RESIDENT``).
        ``processes`` shards the grid axis across worker *processes*
        instead (``None`` consults ``$REPRO_PROCS``; ``0`` autotunes) —
        see :func:`repro.distributed.engine.run_many_processes`.
        ``tolerance`` routes the whole batch to the cheapest precision
        tier meeting the budget (see :meth:`router`).  ``tune`` opts the
        batch into online autotuning with the batch width as a tuner
        dimension (``None`` consults ``$REPRO_AUTOTUNE``; see
        :meth:`run`).  Returns a ``(B, *grid_shape)`` stack.  See
        :func:`repro.parallel.batch.run_many`.
        """
        from ..parallel.batch import run_many as _run_many

        return _run_many(
            self,
            grids,
            total_steps,
            double_layer=double_layer,
            workers=workers,
            telemetry=telemetry,
            resident=resident,
            processes=processes,
            tolerance=tolerance,
            tune=tune,
        )

    # -------------------------------------------------- fault-tolerant run

    def _attempt_apply(
        self,
        plan: "FlashFFTStencil",
        cur: np.ndarray,
        emulate_tcu: bool,
        buf: np.ndarray,
        tel: Telemetry,
        rb: "RobustnessConfig",
        apply_index: int,
        guards: "GuardPolicy | None",
    ) -> tuple[np.ndarray, StreamlineResult | None]:
        """One application under the retry policy.

        Transient injected faults and output-side numerical violations
        (the *input* was already validated, so a bad output means the
        computation itself glitched or was sabotaged) are retried with
        backoff; the last error propagates once the budget is spent.
        """
        retry = rb.retry
        attempts = retry.attempts if retry is not None else 1
        delay = retry.backoff_s if retry is not None else 0.0
        last: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                if tel.enabled:
                    tel.count("stage_retries", 1)
                if delay:
                    time.sleep(delay)
                    delay *= retry.backoff_factor
            try:
                out, result = plan._apply_impl(
                    cur,
                    emulate_tcu,
                    buf,
                    tel,
                    guards=guards,
                    injector=rb.injector,
                    apply_index=apply_index,
                )
                if attempt and tel.enabled:
                    tel.count("retry_recoveries", 1)
                    tel.event("retry_recovered", apply_index=apply_index)
                return out, result
            except FaultInjected as e:
                if not e.transient:
                    raise
                last = e
            except NumericalError as e:
                last = e
        assert last is not None
        raise last

    def _attempt_chunk(
        self,
        cur: np.ndarray,
        applications: int,
        buf: np.ndarray,
        tel: Telemetry,
        rb: "RobustnessConfig",
        guards: "GuardPolicy | None",
        processes: int = 1,
    ) -> np.ndarray:
        """A multi-application resident chunk under the retry policy.

        Chunk boundaries are placed at every fault-injection site and
        sentinel-probe index (see :meth:`_run_robust`), so the only error
        a chunk can surface is an output-side numerical violation — the
        whole chunk retries as a unit, mirroring :meth:`_attempt_apply`.
        With ``processes > 1`` the chunk executes on the scale-out engine
        (bit-identical, so checkpoints and probes see the same grids).
        """
        retry = rb.retry
        attempts = retry.attempts if retry is not None else 1
        delay = retry.backoff_s if retry is not None else 0.0
        guarded = guards is not None and guards.enabled
        last: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                if tel.enabled:
                    tel.count("stage_retries", 1)
                if delay:
                    time.sleep(delay)
                    delay *= retry.backoff_factor
            try:
                if processes > 1 and applications >= 2:
                    out = self._process_engine(processes).run(
                        cur,
                        applications,
                        out=buf,
                        telemetry=tel,
                        injector=rb.injector,
                        rank_timeout=rb.rank_timeout,
                        max_rank_restarts=rb.max_rank_restarts,
                    )
                else:
                    out = self._run_resident_block(
                        cur, applications, tel, out=buf
                    )
                if guarded and guards.check_outputs:
                    out = check_array(out, "output", guards, tel)
                if attempt and tel.enabled:
                    tel.count("retry_recoveries", 1)
                return out
            except NumericalError as e:
                last = e
        assert last is not None
        raise last

    def _run_robust(
        self,
        grid: np.ndarray,
        total_steps: int,
        emulate_tcu: bool,
        tel: Telemetry,
        rb: "RobustnessConfig",
        resident: bool = False,
        processes: int = 1,
    ) -> np.ndarray:
        """``run`` body under a :class:`~repro.robustness.RobustnessConfig`.

        Recovery escalation per application: bounded retry (transient
        faults, bad outputs) → checkpoint restore (replay from the last
        snapshot, bounded by ``max_restores``) → reference-path fallback
        (when ``fallback_to_reference``) → typed error.  Sentinel breaches
        skip straight to the reference path and degrade the rest of the
        run — corrupt output is never returned silently.

        ``resident=True`` groups fault-free stretches of full applications
        into resident chunks: a chunk boundary (i.e. a stitch back to the
        grid) is forced at every checkpoint multiple, at each sentinel-due
        index (the probe needs the application's own input *and* output
        grids), and around every fault-injection site — so snapshots,
        probes, and injected faults observe exactly the same grids as the
        stitch-per-application path, and recovery semantics are unchanged.
        Stage-level guards (``check_stages``) need per-stage batch arrays
        and disable chunking entirely.

        ``processes > 1`` routes each multi-application chunk through the
        scale-out :class:`~repro.distributed.engine.ProcessEngine` — the
        chunk boundaries (and therefore every grid a checkpoint, probe,
        or injected fault observes) are identical, and the engine's output
        is bit-identical to the serial path.
        """
        from ..robustness.checkpoint import MemoryCheckpointStore
        from ..robustness.sentinel import DriftSentinel

        guards = rb.guards
        cur = _as_grid(grid, self.dtype)
        if guards is not None and guards.enabled and guards.check_inputs:
            cur = check_array(cur, "grid", guards, tel)
            # Each application's input is the previous application's
            # already-validated output — re-checking it would double the
            # guard cost for nothing.
            guards = replace(guards, check_inputs=False)
        full, rem = divmod(total_steps, self.fused_steps)
        if full == 0 and rem == 0:
            return cur.copy()

        apps: list[tuple[FlashFFTStencil, int]] = [(self, self.fused_steps)] * full
        if rem:
            apps.append((self._tail_plan(rem, tel), rem))

        sentinel = DriftSentinel(rb.sentinel) if rb.sentinel is not None else None
        store = rb.checkpoint_store
        if store is None and rb.checkpoint_every:
            store = MemoryCheckpointStore()

        # ---- chunk plan: [i0, i1) ranges over the application list -----
        chunk_ok = (
            (resident or processes > 1)
            and not emulate_tcu
            and full >= 2
            and not (guards is not None and guards.enabled and guards.check_stages)
        )
        if chunk_ok:
            edges = {0, full}
            if rb.checkpoint_every:
                edges.update(range(0, full, rb.checkpoint_every))
            if rb.sentinel is not None:
                every = rb.sentinel.every
                for j in range(full):
                    if (j + 1) % every == 0:
                        edges.add(j)
                        edges.add(j + 1)
            if rb.injector is not None:
                for f in rb.injector.faults:
                    # Process-level faults fire inside the scale-out
                    # engine, not at a stitch boundary — cutting the
                    # chunk to a singleton would bypass the engine (and
                    # the fault) entirely.
                    if f.kind in PROCESS_KINDS:
                        continue
                    if f.apply_index < full:
                        edges.add(f.apply_index)
                        edges.add(f.apply_index + 1)
            cuts = sorted(e for e in edges if 0 <= e <= full)
            chunks = list(zip(cuts[:-1], cuts[1:]))
        else:
            chunks = [(j, j + 1) for j in range(full)]
        if rem:
            chunks.append((full, full + 1))
        start_to_chunk = {c0: idx for idx, (c0, _) in enumerate(chunks)}

        bufs = (
            np.empty(self.grid_shape, dtype=self.dtype),
            np.empty(self.grid_shape, dtype=self.dtype),
        )
        which = 0
        degraded = False
        restores = 0
        ci = 0
        while ci < len(chunks):
            i0, i1 = chunks[ci]
            plan_i, depth_i = apps[i0]
            if store is not None and rb.checkpoint_every and i0 % rb.checkpoint_every == 0:
                store.save(i0, cur)
                if tel.enabled:
                    tel.count("checkpoint_saves", 1)
            if degraded:
                for j in range(i0, i1):
                    with tel.span("reference_fallback"):
                        cur = apps[j][0].apply_reference(cur)
                    if tel.enabled:
                        tel.count("reference_fallback_applies", 1)
                ci += 1
                continue
            singleton = i1 - i0 == 1
            try:
                if singleton:
                    nxt, result = self._attempt_apply(
                        plan_i, cur, emulate_tcu, bufs[which], tel, rb, i0, guards
                    )
                else:
                    nxt = self._attempt_chunk(
                        cur, i1 - i0, bufs[which], tel, rb, guards, processes
                    )
                    result = None
            except (FaultInjected, NumericalError, WorkerCrashError) as e:
                if (
                    isinstance(e, FaultInjected)
                    and store is not None
                    and len(store)
                    and restores < rb.max_restores
                ):
                    i, cur = store.latest()
                    restores += 1
                    if tel.enabled:
                        tel.count("checkpoint_restores", 1)
                        tel.event("checkpoint_restored", apply_index=i)
                    # Snapshots taken by this run land on chunk starts; a
                    # pre-populated external store may not — re-cut the
                    # chunk containing the snapshot so replay starts there.
                    if i not in start_to_chunk:
                        recut: list[tuple[int, int]] = []
                        for c0, c1 in chunks:
                            if c0 < i < c1:
                                recut.extend([(c0, i), (i, c1)])
                            else:
                                recut.append((c0, c1))
                        chunks = recut
                        start_to_chunk = {
                            c0: idx for idx, (c0, _) in enumerate(chunks)
                        }
                    ci = start_to_chunk.get(i, len(chunks))
                    continue
                if not rb.fallback_to_reference:
                    raise
                if tel.enabled:
                    tel.event(
                        "reference_fallback",
                        apply_index=i0,
                        cause=type(e).__name__,
                    )
                for j in range(i0, i1):
                    with tel.span("reference_fallback"):
                        cur = apps[j][0].apply_reference(cur)
                    if tel.enabled:
                        tel.count("reference_fallback_applies", 1)
                which ^= 1
                ci += 1
                continue
            self._store_result(result)
            if sentinel is not None and singleton and sentinel.due(i0):
                if tel.enabled:
                    tel.count("sentinel_probes", 1)
                with tel.span("sentinel"):
                    drift = sentinel.drift(
                        cur, nxt, plan_i.kernel, depth_i, plan_i.boundary
                    )
                if drift > rb.sentinel.tolerance:
                    if tel.enabled:
                        tel.count("sentinel_breaches", 1)
                        tel.count("sentinel_fallbacks", 1)
                        tel.count("reference_fallback_applies", 1)
                        tel.event(
                            "sentinel_breach", apply_index=i0, drift=drift
                        )
                    with tel.span("reference_fallback"):
                        nxt = plan_i.apply_reference(cur)
                    degraded = True
            cur = nxt
            which ^= 1
            ci += 1
        if tel.enabled:
            tel.record_cache("plan_cache", **plan_cache_info())
            tel.record_cache("spectrum_cache", **spectrum_cache_info())
        return cur

    # ------------------------------------------------------- reference path

    def apply_reference(self, grid: np.ndarray) -> np.ndarray:
        """One fused application on the preserved slow path.

        Re-derives every per-application artifact (index meshes, kernel
        spectrum) and uses the complex-FFT fuse and Python-loop stitch —
        the pre-fast-path behaviour benchmarks compare against.  Always
        *computes* in float64 (it is the accuracy anchor); on reduced-tier
        plans the result is rounded once to the plan dtype so robustness
        fallbacks keep the tier's output contract.
        """
        grid = np.asarray(grid, dtype=np.float64)
        if grid.shape != self.grid_shape:
            raise PlanError(f"grid shape {grid.shape} != plan {self.grid_shape}")
        return self.segments.run_reference(grid).astype(self.dtype, copy=False)

    def run_reference(self, grid: np.ndarray, total_steps: int) -> np.ndarray:
        """``run`` on the preserved slow path: no plan cache, no buffer
        reuse — the remainder tail plan is constructed from scratch on
        every call, exactly as the engine behaved before the fast path."""
        if total_steps < 0:
            raise PlanError(f"total_steps must be >= 0, got {total_steps}")
        out = np.asarray(grid, dtype=np.float64).copy()
        full, rem = divmod(total_steps, self.fused_steps)
        for _ in range(full):
            out = self.apply_reference(out)
        if rem:
            tail = FlashFFTStencil(
                self.grid_shape,
                self.kernel,
                fused_steps=rem,
                boundary=self.segments.boundary,
                gpu=self.gpu,
                config=self.config,
            )
            out = tail.apply_reference(out)
        return out

    # ------------------------------------------------------------- modelling

    def measure(self, sample_segments: int = 4) -> FlashFFTMeasurement:
        """Run a small emulated sample of the Eq.-(5) windows
        (:attr:`gpu_segments`) and derive per-point coefficients.

        The flop coefficient comes from actual MMA counts; the byte
        coefficient is the overlap-save traffic model: every output point is
        read with ``L/S`` amplification (halo re-reads) and written once,
        plus the (heavily amortised) auxiliary matrices per thread block.
        """
        if sample_segments < 1:
            raise PlanError("need at least one sample segment")
        seg = self.gpu_segments
        rng = np.random.default_rng(7)
        windows = rng.standard_normal((sample_segments,) + seg.local_shape)
        result = self.executor.run(windows)

        points_covered = sample_segments * int(np.prod(seg.valid_shape))
        flops_per_point = result.total_flops / points_covered

        l = int(np.prod(seg.local_shape))
        s = int(np.prod(seg.valid_shape))
        read_amplification = l / s
        aux_bytes_per_point = 16.0 * sum(
            n * n for n in self.executor.transform_dims
        ) / max(s * 64, 1)  # matrices shared by ~64 segments per block wave
        bytes_per_point = 8.0 * read_amplification + 8.0 + aux_bytes_per_point

        occ = occupancy(
            self.gpu,
            threads_per_block=256,
            registers_per_thread=self.config.registers_per_thread,
            smem_per_block_bytes=min(
                self.gpu.smem_per_sm_bytes,
                (self.tuned.smem_bytes if self.tuned else 32 * l),
            ),
        )
        return FlashFFTMeasurement(
            flops_per_point=flops_per_point,
            bytes_per_point=bytes_per_point,
            sparsity=result.mma_stats.sparsity,
            tcu_utilization=result.pipeline.tcu_utilization,
            occupancy=occ,
            sample=result,
        )

    def paper_scale_cost(
        self,
        grid_points: int,
        total_steps: int,
        measurement: FlashFFTMeasurement | None = None,
    ) -> KernelCost:
        """Roofline cost of advancing ``grid_points`` by ``total_steps``."""
        if grid_points < 1 or total_steps < 1:
            raise PlanError("grid_points and total_steps must be >= 1")
        m = measurement or self.measure()
        applications = -(-total_steps // self.fused_steps)
        return KernelCost(
            flops=m.flops_per_point * grid_points * applications,
            bytes=m.bytes_per_point * grid_points * applications,
            launches=applications,
            use_tensor_cores=True,
            compute_efficiency=m.compute_efficiency,
            memory_efficiency=0.95,  # coalesced streams (Table 4: UGA-w ~4%)
            label="FlashFFTStencil",
        )
