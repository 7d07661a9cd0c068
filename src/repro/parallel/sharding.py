"""Sharded split→fuse→stitch execution across a thread pool.

§3.1's central observation — overlap-save windows are *independent* — is
exactly the property that makes shard-parallel host execution trivial: any
partition of the window batch can split, fuse, and stitch on its own, with
no reduction and no synchronisation beyond the join.  This module shards
along the **first segment axis**, which buys two invariants at once:

* a contiguous range of first-axis tiles is a contiguous range of *flat*
  segment indices (C-order), so each shard's windows are a contiguous
  slice of the batch (and of a shared :class:`~repro.parallel.arena.
  WorkspaceArena` buffer);
* the output tiles of those segments cover a contiguous slab of grid
  rows, so each shard stitches into a **disjoint, contiguous** slice of
  the shared output — no locking, no false sharing at slab granularity.

Threads (not processes) are the right vehicle: the three stage kernels —
``np.take`` gathers, pocketfft transforms — release the GIL, so shards
scale across cores without pickling a single array.  Per-row FFTs are
independent inside pocketfft, so the sharded result is **bit-identical**
to the serial path.

Worker count is autotuned by :func:`choose_workers` from the plan's
window points and the visible CPU count (``REPRO_WORKERS`` overrides);
small plans degrade to the serial path rather than paying dispatch
overhead for sub-core shards.

Telemetry counts *logical* work, whatever the worker count: one
``fft_batches`` per application, one ``split``/``fuse``/``stitch`` wall
span per phase around its join.  Per-shard work goes to ``shard_tasks``
and to the ``shard_<phase>_s`` observations.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from ..envutil import env_positive_int
from ..errors import PlanError
from ..observability import NULL_TELEMETRY, Telemetry
from .backends import FFTBackend, get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tailoring import SegmentPlan
    from .arena import WorkspaceArena

__all__ = ["ShardedExecutor", "choose_workers", "cpu_count"]

#: Environment override for the autotuned worker count (CI smoke legs pin
#: this to exercise the sharded path on every test).
WORKERS_ENV = "REPRO_WORKERS"

#: Autotuning floor: a worker with fewer window points than this costs
#: more in dispatch and GIL hand-offs than it recovers in parallelism.
#: Measured on a 2-vCPU host: two workers lose at 16k points per call
#: (a 128^2 apply, 1.45x slower; run_many of four 64^2 grids, 1.27x) and
#: win from about 32k (a 192^2 apply, 0.77x; eight 64^2 grids, 0.77x).
MIN_POINTS_PER_WORKER = 16384


def cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def choose_workers(
    points: int,
    requested: int | None = None,
    *,
    min_points_per_worker: int = MIN_POINTS_PER_WORKER,
) -> int:
    """Pick a worker count for work over ``points`` window points.

    ``requested`` (or ``$REPRO_WORKERS``) wins when given; otherwise the
    count is the available CPUs, degraded so every worker keeps at least
    ``min_points_per_worker`` points — work too small to amortise thread
    dispatch runs serial (returns 1).  Points, not windows, are counted:
    a host-window plan has one window per worker, however large.
    """
    if requested is None:
        requested = env_positive_int(WORKERS_ENV)
    if requested is not None:
        if requested < 1:
            raise PlanError(f"workers must be >= 1, got {requested}")
        return int(requested)
    by_size = int(points) // max(1, int(min_points_per_worker))
    return max(1, min(cpu_count(), by_size))


# ------------------------------------------------------------ thread pools
#
# Pools are shared process-wide by worker count: shard tasks never submit
# nested work, so plans can share a pool without deadlock, and the test
# suite does not accumulate one pool (and its idle threads) per plan.

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-shard{workers}"
            )
        return pool


class ShardedExecutor:
    """Partition one plan's window batch into per-worker shards.

    Construction precomputes, per shard: the flat segment range
    ``[s0, s1)``, the output row slab ``[r0, r1)``, and the stitch gather
    indices rebased to the shard's own fused batch (the global
    ``_stitch_flat`` minus ``s0 * prod(local_shape)``) — the same
    hoist-the-indexing-out-of-the-loop discipline as the plan's cached
    artifacts.
    """

    def __init__(
        self,
        segments: "SegmentPlan",
        workers: int,
        backend: "FFTBackend | str | None" = None,
    ) -> None:
        if workers < 1:
            raise PlanError(f"workers must be >= 1, got {workers}")
        self.segments = segments
        self.backend = get_backend(backend)
        n0 = segments.num_segments[0]
        self.workers = max(1, min(int(workers), n0))
        rest = segments.total_segments // n0
        window_size = int(np.prod(segments.local_shape))
        bounds: list[tuple[int, int, int, int]] = []
        stitch: list[np.ndarray] = []
        for chunk in np.array_split(np.arange(n0), self.workers):
            t0, t1 = int(chunk[0]), int(chunk[-1]) + 1
            s0, s1 = t0 * rest, t1 * rest
            r0 = int(segments.starts[0][t0])
            r1 = (
                int(segments.starts[0][t1])
                if t1 < n0
                else segments.grid_shape[0]
            )
            bounds.append((s0, s1, r0, r1))
            idx = segments._stitch_flat[r0:r1] - s0 * window_size
            idx.flags.writeable = False
            stitch.append(idx)
        self._bounds = tuple(bounds)
        self._stitch = tuple(stitch)

    @property
    def num_shards(self) -> int:
        return len(self._bounds)

    # ------------------------------------------------------------ phases
    #
    # Every sharded stage is one phase: the same task on every shard, one
    # pool join.  Shards touch disjoint window rows and disjoint output
    # slabs, so phases need no locking; the join is the only barrier.

    def _split_rows(
        self, i: int, src_flat: np.ndarray, windows: np.ndarray
    ) -> None:
        """Gather shard ``i``'s windows into its rows of ``windows``."""
        s0, s1, _, _ = self._bounds[i]
        np.take(
            src_flat, self.segments._gather_flat[s0:s1], out=windows[s0:s1]
        )

    def _fuse_rows(self, i: int, windows: np.ndarray) -> np.ndarray:
        """FFT · multiply · iFFT of shard ``i``'s rows of ``windows``."""
        seg = self.segments
        s0, s1, _, _ = self._bounds[i]
        rows = windows[s0:s1]
        axes = tuple(range(1, rows.ndim))
        spec = self.backend.rfftn(rows, axes)
        spec *= seg._half_spectrum
        return self.backend.irfftn(spec, seg.local_shape, axes)

    def _stitch_rows(
        self, i: int, fused_rows: np.ndarray, out: np.ndarray
    ) -> None:
        """Scatter shard ``i``'s fused rows into its slab of ``out``."""
        _, _, r0, r1 = self._bounds[i]
        np.take(fused_rows.reshape(-1), self._stitch[i], out=out[r0:r1])

    def _phase(self, name: str, task, tel: Telemetry) -> list:
        """Run ``task(i)`` on every shard and join; returns the results.

        The phase records **one** wall-clock span ``name`` around the
        join, so stage spans add up to wall time whatever the worker
        count, and each shard's own duration goes in as an observation
        of ``shard_<name>_s``.
        """

        def timed(i: int) -> tuple[object, float]:
            t0 = time.perf_counter()
            res = task(i)
            return res, time.perf_counter() - t0

        with tel.span(name):
            if self.num_shards == 1:
                pairs = [timed(0)]
            else:
                pool = _pool(self.workers)
                pairs = list(pool.map(timed, range(self.num_shards)))
        if tel.enabled:
            for _, dt in pairs:
                tel.observe(f"shard_{name}_s", dt)
        return [res for res, _ in pairs]

    def _count_application(self, tel: Telemetry) -> None:
        """Counters of one sharded application: one logical FFT batch,
        ``num_shards`` shard tasks."""
        tel.count("fft_batches", 1)
        tel.count("sharded_applies", 1)
        tel.count("shard_tasks", self.num_shards)

    def _source(
        self,
        grid: np.ndarray,
        out: np.ndarray | None,
        arena: "WorkspaceArena | None",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validated ``(flat window source, output grid)`` for one call."""
        seg = self.segments
        grid = np.asarray(grid, dtype=seg.dtype)
        if grid.shape != seg.grid_shape:
            raise PlanError(f"grid shape {grid.shape} != plan {seg.grid_shape}")
        if arena is not None and not arena.fits(seg):
            raise PlanError("arena geometry does not match this plan")
        src = seg.window_source(grid, out=arena.padded if arena is not None else None)
        if out is None:
            out = np.empty(seg.grid_shape, dtype=seg.dtype)
        elif np.shares_memory(src, out):
            # Shards interleave gather reads and slab writes, so the
            # serial path's consume-then-write ordering guarantee is gone:
            # any aliasing would race.
            raise PlanError("sharded execution: out must not alias the grid")
        return src.reshape(-1), out

    def apply(
        self,
        grid: np.ndarray,
        out: np.ndarray | None = None,
        arena: "WorkspaceArena | None" = None,
        telemetry: Telemetry | None = None,
    ) -> np.ndarray:
        """Sharded split→fuse→stitch of one grid; bit-identical to serial.

        ``out`` (optional) receives the stitched grid; each shard writes
        only its own row slab.  ``arena`` (optional) supplies the shared
        window buffer and zero-boundary source.  The zero-boundary band
        fix is **not** applied here — callers (``FlashFFTStencil.
        _apply_impl``) run it after the join, exactly as on the serial
        path.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        seg = self.segments
        src_flat, out = self._source(grid, out, arena)
        windows = (
            arena.windows
            if arena is not None
            else np.empty((seg.total_segments,) + seg.local_shape, dtype=seg.dtype)
        )
        self._phase("split", lambda i: self._split_rows(i, src_flat, windows), tel)
        fused = self._phase("fuse", lambda i: self._fuse_rows(i, windows), tel)
        self._phase("stitch", lambda i: self._stitch_rows(i, fused[i], out), tel)
        if tel.enabled:
            self._count_application(tel)
            tel.record_cache(
                "sharding", workers=self.workers, shards=self.num_shards
            )
        return out

    def run_resident(
        self,
        grid: np.ndarray,
        applications: int,
        out: np.ndarray | None = None,
        arena: "WorkspaceArena | None" = None,
        telemetry: Telemetry | None = None,
    ) -> np.ndarray:
        """``applications`` fused applications with the window batch resident.

        One sharded split at entry, one sharded stitch at exit.  Per
        application each shard fuses its own window rows into the shared
        resident buffer; the pool join is the **single barrier per
        application**, after which the main thread runs the (cheap) halo
        exchange — the only step whose data crosses shard boundaries, and
        only in edge slabs of width ``halo``.  Bit-identical to
        ``applications`` serial apply calls, exactly like :meth:`apply`.

        The zero-boundary band fix runs in window space between fuse and
        exchange (see ``SegmentPlan.fix_zero_boundary_band_windows``), so
        the exchanged halos already carry the corrected band.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        seg = self.segments
        if applications < 1:
            raise PlanError(f"applications must be >= 1, got {applications}")
        src_flat, out = self._source(grid, out, arena)
        if arena is not None:
            cur = arena.windows
            nxt = arena.resident_windows()
        else:
            shape = (seg.total_segments,) + seg.local_shape
            cur = np.empty(shape, dtype=seg.dtype)
            nxt = np.empty(shape, dtype=seg.dtype)
        ex = seg.exchange_plan()
        halo_buf = (
            arena.halo_scratch(ex.stale_points)
            if arena is not None and ex.strategy == "gather"
            else None
        )
        zero_fix = seg.boundary == "zero" and seg.steps > 1

        def fuse_into_nxt(i: int) -> None:
            s0, s1, _, _ = self._bounds[i]
            np.copyto(nxt[s0:s1], self._fuse_rows(i, cur))

        self._phase("split", lambda i: self._split_rows(i, src_flat, cur), tel)
        for k in range(applications):
            self._phase("fuse", fuse_into_nxt, tel)
            if tel.enabled:
                tel.count("applications", 1)
                tel.count("windows", seg.total_segments)
                self._count_application(tel)
            if zero_fix:
                with tel.span("boundary_fix"):
                    seg.fix_zero_boundary_band_windows(cur, nxt)
            if k + 1 < applications:
                with tel.span("exchange"):
                    ex.refresh(nxt, scratch=halo_buf, telemetry=tel)
                if tel.enabled:
                    tel.count("hbm_round_trips_saved", 1)
            cur, nxt = nxt, cur
        self._phase(
            "stitch",
            lambda i: self._stitch_rows(
                i, cur[self._bounds[i][0] : self._bounds[i][1]], out
            ),
            tel,
        )
        if tel.enabled:
            tel.count("points_stitched", int(np.prod(seg.grid_shape)))
            tel.record_cache(
                "sharding", workers=self.workers, shards=self.num_shards
            )
        return out
