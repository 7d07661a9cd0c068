"""Process-parallel scale-out engine: real multi-process slab execution.

Thread sharding (:mod:`repro.parallel.sharding`) plateaus where every
shard contends on one GIL and one pocketfft pool.  This module takes the
same partition — contiguous first-axis tile ranges of one global
:class:`~repro.core.tailoring.SegmentPlan` — and gives each range to a
*process*: the window batch lives in POSIX shared memory, each worker owns
a contiguous slab of window rows (its resident batch plus a private view
of the ping-pong pair), and between fused applications only the
cross-process halo bands move, through the
:meth:`~repro.core.tailoring.HaloExchangePlan.refresh_rows` maps.

The ownership argument is the resident engine's, one level up: overlap-
save valid interiors partition the grid, so every halo point has exactly
one owner and the restricted per-rank refreshes tile the global refresh.
Combined with a double-buffered window batch, one barrier per application
suffices:

* ``fuse`` writes only the rank's own rows of the *next* buffer;
* the zero-boundary band fix reads *valid* positions of the current
  buffer (any rank's) and writes its own rows of the next — valid reads
  never collide with concurrent halo-position writes, and cross-rank
  valid positions were sealed before the previous barrier;
* after the barrier, ``refresh_rows`` writes only the rank's own halo
  positions while reading any rank's (sealed) valid positions.

Each write location has a single owner per application, so the result is
**bit-identical** to the serial engine — asserted by the test matrix and
re-asserted by ``benchmarks/bench_distributed.py`` on every measured
configuration.

``deterministic=True`` (or one process) runs the identical per-rank
schedule inline in the calling process — the mode
:class:`~repro.distributed.simulator.DistributedStencil` is now a thin
wrapper over, retaining the cost model for what-if analysis.

**Supervision.**  A production run cannot assume every rank stays healthy:
a worker can be OOM-killed mid-FFT, segfault in a native library, or stop
making progress entirely.  The parent therefore supervises each run
through two channels — process liveness (a dead rank is noticed within
one poll interval) and per-rank *heartbeat slots* in shared memory that
every worker bumps at each schedule point, so a rank that is alive but
silent past the run deadline (``$REPRO_RANK_TIMEOUT`` /
``rank_timeout``) is declared hung and killed.  Recovery is in-place and
bit-identity-preserving: for a single-application run whose surviving
ranks all finished, only the failed ranks' slabs are re-executed inline
(slabs own disjoint output rows, and their inputs — the sealed shared
source and post-split windows — are intact); any other failure re-runs
the whole schedule through the deterministic mode, which is bit-identical
to the process path by construction.  The crashed pool is torn down
(shared segments unlinked — no leaks) and respawned lazily for the next
batch; after ``max_rank_restarts`` pool restarts without an intervening
clean run the engine escalates a typed
:class:`~repro.errors.WorkerCrashError` instead of looping.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
import weakref
from multiprocessing import shared_memory
from multiprocessing.connection import wait as _conn_wait
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..core.tailoring import SegmentPlan
from ..envutil import env_choice, env_positive_float, env_positive_int
from ..errors import PlanError, WorkerCrashError
from ..observability import NULL_TELEMETRY, Telemetry
from ..parallel.backends import FFTBackend, get_backend
from ..parallel.sharding import cpu_count
from ..robustness.faults import process_fault_element

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import FlashFFTStencil
    from ..robustness.faults import FaultInjector

__all__ = [
    "ProcessEngine",
    "choose_processes",
    "run_many_processes",
    "PROCS_ENV",
    "START_METHOD_ENV",
    "RANK_TIMEOUT_ENV",
]

#: Environment override for the process count (``plan.run(processes=None)``
#: consults it; small grids still degrade to serial, see AUTO floors).
PROCS_ENV = "REPRO_PROCS"

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_START_METHOD"

#: Environment default for the per-run rank deadline (seconds): a worker
#: that neither replies nor advances its heartbeat for this long is
#: declared hung and recovered.  Unset disables hang detection (crash
#: detection via process liveness always runs).
RANK_TIMEOUT_ENV = "REPRO_RANK_TIMEOUT"

#: Pool-restart budget spent on crash/hang recovery before the engine
#: escalates a :class:`~repro.errors.WorkerCrashError` (the counter
#: resets after every clean run, so the budget bounds *consecutive*
#: failures, not lifetime ones).
DEFAULT_MAX_RANK_RESTARTS = 2

#: Exit code the ``rank_crash`` fault uses; also a recognisable marker in
#: ``died with exit code N`` diagnostics.
_CRASH_EXIT_CODE = 23


def default_rank_timeout() -> float | None:
    """``$REPRO_RANK_TIMEOUT`` in seconds, or ``None`` (hang detection off)."""
    return env_positive_float(RANK_TIMEOUT_ENV)

#: ``processes=0`` (autotune) refuses to fork below this many grid points:
#: process dispatch plus the shared-memory round trip outweighs the win.
AUTO_MIN_POINTS = 1 << 19

#: An env-forced ``$REPRO_PROCS`` keeps a lower floor — it is an explicit
#: fleet-wide opt-in, but truly tiny grids still degrade gracefully to
#: serial instead of paying ~ms of process dispatch per run.
ENV_MIN_POINTS = 1 << 15


def default_start_method() -> str:
    """``$REPRO_START_METHOD`` or ``fork`` where available (cheapest)."""
    method = env_choice(START_METHOD_ENV, mp.get_all_start_methods())
    if method is not None:
        return method
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def choose_processes(
    total_points: int,
    max_ranks: int,
    requested: int | None = None,
) -> int:
    """Resolve a process count for a problem of ``total_points`` points.

    ``requested``: ``None`` consults ``$REPRO_PROCS`` (validated; serial
    when unset, and grids under :data:`ENV_MIN_POINTS` degrade to serial
    even when set); ``0`` autotunes from the visible CPU count with the
    :data:`AUTO_MIN_POINTS` floor; ``N >= 1`` is honoured.  Every path
    clamps to ``max_ranks`` (one process per first-axis tile at most).
    """
    max_ranks = max(1, int(max_ranks))
    if requested is None:
        env = env_positive_int(PROCS_ENV)
        if env is None or total_points < ENV_MIN_POINTS:
            return 1
        return min(env, max_ranks)
    requested = int(requested)
    if requested < 0:
        raise PlanError(f"processes must be >= 0, got {requested}")
    if requested == 0:
        if total_points < AUTO_MIN_POINTS:
            return 1
        return max(1, min(cpu_count(), max_ranks))
    return min(requested, max_ranks)


def backend_spec(backend: "FFTBackend | str | None") -> str:
    """A picklable registry spec reproducing ``backend`` in a worker.

    Workers rebuild their FFT provider by name (plus the scipy worker
    suffix); custom providers must be registered at import time of
    :mod:`repro.parallel.backends` in the child as well.  ``None``
    resolves as a plan's backend does (``$REPRO_FFT_BACKEND``, else
    numpy), so an engine built from bare segments runs the plan's FFTs.
    """
    if backend is None:
        backend = get_backend(None)
    if isinstance(backend, str):
        return backend
    workers = getattr(backend, "workers", None)
    if workers is not None:
        return f"{backend.name}:{workers}"
    return backend.name


# ---------------------------------------------------------------- internals


def _partition(segments: SegmentPlan, ranks: int) -> list[tuple[int, int, int, int]]:
    """Per-rank ``(s0, s1, r0, r1)``: flat window-row range + output row slab.

    Identical to :class:`~repro.parallel.sharding.ShardedExecutor`'s
    partition, so the process engine's ownership geometry matches the
    thread path's — a contiguous first-axis tile range is a contiguous
    flat window range (C order) stitching a contiguous grid row slab.
    """
    n0 = segments.num_segments[0]
    rest = segments.total_segments // n0
    bounds: list[tuple[int, int, int, int]] = []
    for chunk in np.array_split(np.arange(n0), ranks):
        t0, t1 = int(chunk[0]), int(chunk[-1]) + 1
        r1 = (
            int(segments.starts[0][t1])
            if t1 < n0
            else segments.grid_shape[0]
        )
        bounds.append(
            (t0 * rest, t1 * rest, int(segments.starts[0][t0]), r1)
        )
    return bounds


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned block without claiming ownership of it.

    Only the parent tracks (and unlinks) these blocks.  On Python < 3.13
    there is no ``track=False``, and the tracker's cache is a plain set
    shared with the parent — an attach-side register/unregister pair would
    *remove* the parent's registration (and KeyError every later one) —
    so registration is suppressed for the duration of the attach instead.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig


def _fire_control_faults(faults, stage: str, apply_index: int) -> None:
    """Execute shipped ``rank_crash``/``rank_hang`` faults at a stage site.

    ``rank_crash`` exits without cleanup (no pipe message, no barrier
    abort) — exactly what a segfault or the OOM killer looks like from the
    parent.  ``rank_hang`` spins without heartbeating, detectable only by
    the run deadline.
    """
    for fault in faults:
        if fault["stage"] != stage or fault["apply_index"] != apply_index:
            continue
        if fault["kind"] == "rank_crash":
            os._exit(_CRASH_EXIT_CODE)
        if fault["kind"] == "rank_hang":
            while True:  # pragma: no cover - killed by the supervisor
                time.sleep(0.05)


def _fire_halo_faults(
    faults, stage: str, apply_index: int, slab: np.ndarray, rank: int
) -> None:
    """NaN one deterministic element of a freshly refreshed halo slab.

    Fires *after* ``refresh_rows`` so the corruption models a bad exchange
    rather than a bad fuse; it must be caught downstream by the numerical
    guards, not by the supervisor — the worker stays healthy.
    """
    for fault in faults:
        if (
            fault["kind"] == "halo_corrupt"
            and fault["stage"] == stage
            and fault["apply_index"] == apply_index
        ):
            flat = slab.reshape(-1)
            flat[
                process_fault_element(
                    fault["seed"], stage, apply_index, rank, flat.size
                )
            ] = np.nan


def _run_rank(
    seg: SegmentPlan,
    backend: FFTBackend,
    bounds: tuple[int, int, int, int],
    bufs: dict[str, np.ndarray],
    applications: int,
    barrier,
    tel: Telemetry,
    rank: int = 0,
    faults: Sequence[Mapping[str, Any]] = (),
) -> None:
    """One rank's schedule for one run: split → (fuse/fix/exchange)* → stitch.

    ``barrier`` is ``None`` in deterministic mode (where the caller
    sequences ranks stage-by-stage — same data flow, one process) and in
    inline slab recovery (where the surviving ranks are already done).
    When ``bufs`` carries a ``"hb"`` block the rank heartbeats into its
    slot at every schedule point: slot 0 is a monotonically bumped beat
    counter, slot 1 flags *parked at a barrier* (waiting on peers is not a
    hang, however long it takes).
    """
    s0, s1, r0, r1 = bounds
    hb = bufs.get("hb")

    def beat(parked: float = 0.0) -> None:
        # Racy single-word stores by design: the supervisor only compares
        # successive reads, so a torn observation merely delays hang
        # detection by one poll interval.
        if hb is not None:
            hb[rank, 1] = parked
            hb[rank, 0] += 1.0

    def sync() -> None:
        if barrier is not None:
            beat(parked=1.0)
            barrier.wait()
            beat(parked=0.0)

    src_flat = bufs["src"].reshape(-1)
    cur, nxt = bufs["wina"], bufs["winb"]
    ex = seg.exchange_plan("gather")
    zero_fix = seg.boundary == "zero" and seg.steps > 1
    with tel.span("split"):
        np.take(src_flat, seg._gather_flat[s0:s1], out=cur[s0:s1])
    beat()
    sync()
    for k in range(applications):
        beat()
        _fire_control_faults(faults, "fuse", k)
        with tel.span("fuse"):
            rows = cur[s0:s1]
            axes = tuple(range(1, rows.ndim))
            spec = backend.rfftn(rows, axes)
            spec *= seg._half_spectrum
            np.copyto(
                nxt[s0:s1], backend.irfftn(spec, seg.local_shape, axes)
            )
        if zero_fix:
            with tel.span("boundary_fix"):
                seg.fix_zero_boundary_band_windows(cur, nxt, rows=(s0, s1))
        if k + 1 < applications:
            sync()
            _fire_control_faults(faults, "exchange", k)
            with tel.span("exchange"):
                ex.refresh_rows(nxt, (s0, s1), telemetry=tel)
            _fire_halo_faults(faults, "exchange", k, nxt[s0:s1], rank)
        cur, nxt = nxt, cur
    beat()
    with tel.span("stitch"):
        np.take(
            cur.reshape(-1), seg._stitch_flat[r0:r1], out=bufs["out"][r0:r1]
        )


def _worker_main(
    rank: int,
    spec: dict[str, Any],
    conn,
    barrier,
    shm_names: dict[str, str],
) -> None:
    """Persistent worker loop: rebuild the plan locally, serve run commands.

    Module-level (spawn-safe); the worker owns no shared memory — it
    attaches to the parent's blocks and detaches on exit.  Errors abort
    the barrier (releasing peers) and travel back over the pipe.
    """
    shms: list[shared_memory.SharedMemory] = []
    bufs: dict[str, np.ndarray] = {}
    try:
        seg = SegmentPlan(
            spec["grid_shape"],
            spec["kernel"],
            spec["steps"],
            spec["tile"],
            spec["boundary"],
        )
        backend = get_backend(spec["backend"])
        bounds = _partition(seg, spec["processes"])[rank]
        for key, shape in spec["shapes"].items():
            shm = _attach_shm(shm_names[key])
            shms.append(shm)
            bufs[key] = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
        # Force the per-rank halo maps once, outside the serving loop.
        seg.exchange_plan("gather").maps_for_rows((bounds[0], bounds[1]))
        conn.send(("ready", None))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, applications, want_tel, faults = msg
            tel = Telemetry() if want_tel else NULL_TELEMETRY
            try:
                _run_rank(
                    seg,
                    backend,
                    bounds,
                    bufs,
                    applications,
                    barrier,
                    tel,
                    rank=rank,
                    faults=faults,
                )
            except Exception:
                barrier.abort()
                conn.send(("error", traceback.format_exc()))
                break
            conn.send(("done", tel.snapshot() if want_tel else None))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    except Exception:  # pragma: no cover - construction failure
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        bufs.clear()  # drop buffer views before closing their mappings
        for shm in shms:
            try:
                shm.close()
            except Exception:  # pragma: no cover - teardown
                pass
        conn.close()


def _release(procs, conns, shms) -> None:
    """Tear down a worker pool + shared blocks (idempotent; finalizer-safe)."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for shm in shms:
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass


class ProcessEngine:
    """Multi-process resident execution of one :class:`SegmentPlan`.

    Parameters
    ----------
    segments:
        The global plan; ranks own contiguous first-axis tile ranges.
    processes:
        Rank count (clamped to the first-axis tile count).
    backend:
        FFT provider forwarded to workers as a registry spec.
    start_method:
        ``fork`` / ``spawn`` / ``forkserver``; ``None`` consults
        ``$REPRO_START_METHOD`` and prefers ``fork``.
    deterministic:
        Run the identical per-rank schedule inline (no processes, no
        shared memory) — the simulator mode, also taken when the clamped
        rank count is 1.
    rank_timeout:
        Seconds a rank may go without replying or heartbeating before the
        supervisor declares it hung (kills and recovers it).  ``None``
        defers to ``$REPRO_RANK_TIMEOUT``; unset there too disables hang
        detection.  Crash detection (process death) is always on.
    max_rank_restarts:
        Consecutive crash/hang recoveries tolerated before :meth:`run`
        escalates a :class:`~repro.errors.WorkerCrashError`; a clean run
        resets the counter.  ``None`` means
        :data:`DEFAULT_MAX_RANK_RESTARTS`.

    Workers are started lazily on first :meth:`run` and persist across
    runs (the barrier and window buffers are reused); :meth:`close` — or
    garbage collection — releases them.
    """

    def __init__(
        self,
        segments: SegmentPlan,
        processes: int,
        backend: "FFTBackend | str | None" = None,
        start_method: str | None = None,
        deterministic: bool = False,
        rank_timeout: float | None = None,
        max_rank_restarts: int | None = None,
    ) -> None:
        if processes < 1:
            raise PlanError(f"processes must be >= 1, got {processes}")
        if rank_timeout is not None and not rank_timeout > 0:
            raise PlanError(f"rank_timeout must be > 0, got {rank_timeout}")
        if max_rank_restarts is not None and max_rank_restarts < 0:
            raise PlanError(
                f"max_rank_restarts must be >= 0, got {max_rank_restarts}"
            )
        self.segments = segments
        self.processes = min(int(processes), segments.num_segments[0])
        self.bounds = _partition(segments, self.processes)
        self.deterministic = bool(deterministic) or self.processes == 1
        self.backend_spec = backend_spec(backend)
        self.rank_timeout = rank_timeout
        self.max_rank_restarts = (
            DEFAULT_MAX_RANK_RESTARTS
            if max_rank_restarts is None
            else int(max_rank_restarts)
        )
        self.start_method = (
            start_method if start_method is not None else default_start_method()
        )
        if self.start_method not in mp.get_all_start_methods():
            raise PlanError(
                f"start method {self.start_method!r} unavailable; have "
                f"{', '.join(mp.get_all_start_methods())}"
            )
        src_shape = (
            segments._source_shape
            if segments.boundary == "zero"
            else segments.grid_shape
        )
        self._shapes: dict[str, tuple[int, ...]] = {
            "src": tuple(int(n) for n in src_shape),
            "wina": (segments.total_segments,) + segments.local_shape,
            "winb": (segments.total_segments,) + segments.local_shape,
            "out": segments.grid_shape,
            # Per-rank supervision slots: [rank, 0] beat counter,
            # [rank, 1] parked-at-barrier flag.
            "hb": (self.processes, 2),
        }
        self._procs: list = []
        self._conns: list = []
        self._shms: list[shared_memory.SharedMemory] = []
        self._bufs: dict[str, np.ndarray] = {}
        self._det_bufs: dict[str, np.ndarray] | None = None
        self._barrier = None
        self._finalizer = None
        self.closed = False
        self.runs_completed = 0
        #: Consecutive pool restarts spent on crash/hang recovery.
        self.rank_restarts = 0

    # ------------------------------------------------------------- stats

    def cross_halo_points(self) -> int:
        """Halo points whose owner lives in another rank (per exchange)."""
        ex = self.segments.exchange_plan("gather")
        return sum(
            ex.cross_rows_points((s0, s1)) for s0, s1, _, _ in self.bounds
        )

    def cross_halo_bytes(self) -> int:
        """Bytes crossing rank boundaries per exchange (FP64)."""
        return 8 * self.cross_halo_points()

    # -------------------------------------------------------------- pool

    def _plan_spec(self) -> dict[str, Any]:
        seg = self.segments
        return {
            "grid_shape": seg.grid_shape,
            "kernel": seg.kernel,
            "steps": seg.steps,
            "tile": seg.valid_shape,
            "boundary": seg.boundary,
            "backend": self.backend_spec,
            "processes": self.processes,
            "shapes": self._shapes,
        }

    def _ensure_pool(self) -> None:
        if self._procs:
            return
        if self.closed:
            raise PlanError("ProcessEngine is closed")
        ctx = mp.get_context(self.start_method)
        names: dict[str, str] = {}
        try:
            for key, shape in self._shapes.items():
                nbytes = int(np.prod(shape)) * 8
                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                self._shms.append(shm)
                arr = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
                if key == "hb" or (
                    key == "src" and self.segments.boundary == "zero"
                ):
                    # hb starts quiet; the zero-boundary border stays zero
                    # for the engine's lifetime.
                    arr.fill(0.0)
                self._bufs[key] = arr
                names[key] = shm.name
            self._barrier = ctx.Barrier(self.processes)
            spec = self._plan_spec()
            for rank in range(self.processes):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(rank, spec, child_conn, self._barrier, names),
                    daemon=True,
                    name=f"repro-rank{rank}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except BaseException:
            # A half-built pool has no finalizer yet — release whatever was
            # created so an allocation/spawn failure cannot leak segments.
            self._bufs = {}
            _release(self._procs, self._conns, self._shms)
            self._procs, self._conns, self._shms = [], [], []
            self._barrier = None
            raise
        self._finalizer = weakref.finalize(
            self, _release, list(self._procs), list(self._conns), list(self._shms)
        )
        errors = []
        for rank in range(self.processes):
            msg = self._recv(rank)
            if msg[0] != "ready":
                errors.append(f"rank {rank}: {msg[1]}")
        if errors:
            self.close()
            raise PlanError(
                "process engine worker startup failed:\n" + "\n".join(errors)
            )

    def _recv(self, rank: int):
        """Receive one message from ``rank``, noticing silent worker death."""
        conn, proc = self._conns[rank], self._procs[rank]
        while not conn.poll(0.05):
            if not proc.is_alive():
                return (
                    "error",
                    f"worker rank {rank} (pid {proc.pid}) died with "
                    f"exit code {proc.exitcode}",
                )
        try:
            return conn.recv()
        except EOFError:
            return ("error", f"worker rank {rank} closed its pipe")

    def _reset_pool(self) -> None:
        """Tear down the pool + shared blocks; the engine stays usable.

        The next :meth:`run` respawns workers lazily — this is the
        recovery half of :meth:`close`, shared with it so every teardown
        path (including crash recovery) unlinks the segments exactly once.
        """
        self._bufs = {}  # drop views before the mappings close
        if self._finalizer is not None:
            self._finalizer()  # runs _release exactly once
            self._finalizer = None
        elif self._shms:
            _release(self._procs, self._conns, self._shms)
        self._procs, self._conns, self._shms = [], [], []
        self._barrier = None

    def _abort_barrier(self) -> None:
        """Break any peers parked in the barrier (best-effort)."""
        if self._barrier is not None:
            try:
                self._barrier.abort()
            except Exception:  # pragma: no cover - teardown race
                pass

    def close(self) -> None:
        """Stop the workers and free the shared blocks (idempotent)."""
        self.closed = True
        self._reset_pool()

    # --------------------------------------------------------------- run

    def run(
        self,
        grid: np.ndarray,
        applications: int,
        out: np.ndarray | None = None,
        telemetry: Telemetry | None = None,
        *,
        injector: "FaultInjector | None" = None,
        rank_timeout: float | None = None,
        max_rank_restarts: int | None = None,
    ) -> np.ndarray:
        """``applications`` fused applications; bit-identical to serial.

        The grid is staged into the shared source block, workers execute
        the resident schedule (one barrier per application), and the
        stitched result is copied out of the shared output block into
        ``out`` (or a fresh array) — the shared blocks are engine-owned
        and reused across runs.

        The run is supervised: a rank that dies, or stalls past the
        effective deadline (``rank_timeout`` argument > engine setting >
        ``$REPRO_RANK_TIMEOUT``), is recovered in place — see
        :meth:`_recover` — and only a streak of failures beyond
        ``max_rank_restarts`` escalates a
        :class:`~repro.errors.WorkerCrashError`.  ``injector`` ships any
        armed process-level faults to the workers they target.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        seg = self.segments
        grid = np.ascontiguousarray(grid, dtype=np.float64)
        if grid.shape != seg.grid_shape:
            raise PlanError(
                f"grid shape {grid.shape} != plan {seg.grid_shape}"
            )
        if applications < 1:
            raise PlanError(
                f"applications must be >= 1, got {applications}"
            )
        if out is not None and (
            out.shape != seg.grid_shape or out.dtype != np.float64
        ):
            raise PlanError(
                f"out must be float64 {seg.grid_shape}, got "
                f"{out.dtype} {out.shape}"
            )
        if self.deterministic:
            return self._run_deterministic(grid, applications, out, tel)
        self._ensure_pool()
        with tel.span("scatter"):
            if seg.boundary == "zero":
                seg.window_source(grid, out=self._bufs["src"])
            else:
                np.copyto(self._bufs["src"], grid)
        by_rank: dict[int, list[dict]] = {}
        if injector is not None:
            by_rank = injector.take_process_faults(self.processes, telemetry=tel)
        for rank, conn in enumerate(self._conns):
            conn.send(("run", applications, tel.enabled, by_rank.get(rank, ())))
        timeout = rank_timeout
        if timeout is None:
            timeout = self.rank_timeout
        if timeout is None:
            timeout = default_rank_timeout()
        done, sent, failed = self._collect(timeout)
        if failed:
            return self._recover(
                grid,
                applications,
                out,
                tel,
                done,
                sent,
                failed,
                max_rank_restarts,
            )
        if sent:
            self.close()
            raise PlanError(
                "process engine run failed:\n"
                + "\n".join(f"rank {r}:\n{sent[r]}" for r in sorted(sent))
            )
        with tel.span("gather"):
            if out is None:
                out = np.array(self._bufs["out"])
            else:
                np.copyto(out, self._bufs["out"])
        self.runs_completed += 1
        self.rank_restarts = 0  # a clean run closes the failure streak
        if tel.enabled:
            for snap in done.values():
                if snap is not None:
                    tel.merge(snap)
            self._count_run(tel, applications)
        return out

    def _collect(
        self, timeout: float | None
    ) -> tuple[dict[int, Any], dict[int, str], dict[int, tuple[str, str]]]:
        """Await every rank's reply, supervising liveness and progress.

        Multiplexes over all pipes (a sequential per-rank wait would stall
        behind rank 0 while a higher rank dies silently, with the
        remaining peers parked in the barrier forever).  Returns three
        disjoint rank maps: ``done`` (reply → telemetry snapshot or
        ``None``), ``sent`` (worker-raised error → traceback text), and
        ``failed`` (supervisor-detected → ``("crash"|"hang", reason)``).

        A rank counts as hung only when its heartbeat stalls *outside* a
        barrier wait (parked flag clear) for ``timeout`` seconds — peers
        waiting on a slow rank are innocent and get 3× the deadline as a
        last-resort backstop.  Detecting a death or hang aborts the
        barrier so those peers fail fast instead of waiting forever.
        """
        pending = set(range(self.processes))
        done: dict[int, Any] = {}
        sent: dict[int, str] = {}
        failed: dict[int, tuple[str, str]] = {}
        hb = self._bufs["hb"]
        now = time.monotonic()
        beats = {r: (float(hb[r, 0]), now) for r in pending}
        while pending:
            rmap = {self._conns[r]: r for r in pending}
            for conn in _conn_wait(list(rmap), timeout=0.05):
                rank = rmap[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    failed[rank] = ("crash", "closed its pipe mid-run")
                    pending.discard(rank)
                    self._abort_barrier()
                    continue
                if msg[0] == "done":
                    done[rank] = msg[1]
                else:
                    sent[rank] = str(msg[1])
                pending.discard(rank)
            now = time.monotonic()
            for rank in sorted(pending):
                proc = self._procs[rank]
                beat = float(hb[rank, 0])
                last, seen = beats[rank]
                if beat != last:
                    beats[rank] = (beat, now)
                    seen = now
                if not proc.is_alive():
                    if self._conns[rank].poll(0):
                        continue  # a final reply raced the exit; drain it
                    failed[rank] = (
                        "crash",
                        f"died with exit code {proc.exitcode}",
                    )
                    pending.discard(rank)
                    self._abort_barrier()
                    continue
                if timeout is None:
                    continue
                # Parked ranks are waiting on peers, not hanging; give
                # them a generous backstop in case abort() itself is lost.
                limit = timeout if hb[rank, 1] == 0.0 else 3.0 * timeout
                if now - seen > limit:
                    proc.terminate()
                    proc.join(1.0)
                    if proc.is_alive():  # pragma: no cover - stubborn child
                        proc.kill()
                        proc.join(1.0)
                    failed[rank] = (
                        "hang",
                        f"hung: no heartbeat for {now - seen:.2f}s "
                        f"(deadline {timeout:g}s)",
                    )
                    pending.discard(rank)
                    self._abort_barrier()
        return done, sent, failed

    def _recover(
        self,
        grid: np.ndarray,
        applications: int,
        out: np.ndarray | None,
        tel: Telemetry,
        done: dict[int, Any],
        sent: dict[int, str],
        failed: dict[int, tuple[str, str]],
        max_rank_restarts: int | None,
    ) -> np.ndarray:
        """Recover a run with crashed/hung ranks; bit-identity preserved.

        Fast path — single application, every surviving rank replied
        ``done``: only the failed ranks' slabs are re-executed inline on
        the shared buffers.  Sound because the surviving ranks passed the
        post-split barrier (so the failed rank finished its split and its
        windows are intact), slabs own disjoint output rows, and the
        sealed source/window reads the slab needs are exactly the ones
        the worker would have done.

        Anything else (multi-application runs, where a halo exchange may
        have consumed a partial write, or collateral barrier aborts) is
        re-run whole through the deterministic mode — bit-identical to
        the process path by construction.

        Either way the crashed pool is torn down (segments unlinked, no
        leaks) and respawned lazily on the next run; a failure streak
        longer than the restart budget escalates
        :class:`~repro.errors.WorkerCrashError` instead.
        """
        ranks = tuple(sorted(failed))
        crashes = [r for r in ranks if failed[r][0] == "crash"]
        hangs = [r for r in ranks if failed[r][0] == "hang"]
        detail = "; ".join(f"rank {r} {failed[r][1]}" for r in ranks)
        budget = (
            self.max_rank_restarts
            if max_rank_restarts is None
            else int(max_rank_restarts)
        )
        self.rank_restarts += 1
        if tel.enabled:
            if crashes:
                tel.count("rank_crashes", len(crashes))
            if hangs:
                tel.count("rank_hangs", len(hangs))
        if self.rank_restarts > budget:
            self._reset_pool()
            if tel.enabled:
                tel.count("rank_crash_escalations", 1)
                tel.event(
                    "worker_crash_escalated",
                    ranks=list(ranks),
                    restarts=self.rank_restarts,
                    detail=detail,
                )
            raise WorkerCrashError(
                f"worker failure streak exceeded max_rank_restarts="
                f"{budget}: {detail}",
                ranks=ranks,
                restarts=self.rank_restarts,
            )
        survivors = set(range(self.processes)) - set(ranks)
        with tel.span("rank_recovery"):
            if applications == 1 and not sent and set(done) == survivors:
                mode = "slab"
                backend = get_backend(self.backend_spec)
                for rank in ranks:
                    _run_rank(
                        self.segments,
                        backend,
                        self.bounds[rank],
                        self._bufs,
                        applications,
                        None,
                        tel,
                        rank=rank,
                    )
                if out is None:
                    out = np.array(self._bufs["out"])
                else:
                    np.copyto(out, self._bufs["out"])
                self.runs_completed += 1
                if tel.enabled:
                    for snap in done.values():
                        if snap is not None:
                            tel.merge(snap)
                    self._count_run(tel, applications)
                result = out
                self._reset_pool()
            else:
                mode = "full"
                self._reset_pool()
                result = self._run_deterministic(grid, applications, out, tel)
        if tel.enabled:
            tel.count("rank_recoveries", 1)
            tel.count("rank_restarts", 1)
            tel.event(
                "rank_recovered",
                ranks=list(ranks),
                mode=mode,
                restarts=self.rank_restarts,
                detail=detail,
            )
        return result

    def _run_deterministic(
        self,
        grid: np.ndarray,
        applications: int,
        out: np.ndarray | None,
        tel: Telemetry,
    ) -> np.ndarray:
        """The same per-rank schedule, sequenced inline in this process.

        Stage loops over ranks play the role of the barrier; the data flow
        (and therefore the numerics) is identical to the process path,
        which is what makes this a faithful simulator mode.
        """
        seg = self.segments
        if self._det_bufs is None:
            shape = (seg.total_segments,) + seg.local_shape
            self._det_bufs = {
                "wina": np.empty(shape, dtype=np.float64),
                "winb": np.empty(shape, dtype=np.float64),
                "out": np.empty(seg.grid_shape, dtype=np.float64),
                "src": (
                    np.zeros(seg._source_shape, dtype=np.float64)
                    if seg.boundary == "zero"
                    else np.empty(seg.grid_shape, dtype=np.float64)
                ),
            }
        bufs = self._det_bufs
        with tel.span("scatter"):
            if seg.boundary == "zero":
                seg.window_source(grid, out=bufs["src"])
            else:
                np.copyto(bufs["src"], grid)
        backend = get_backend(self.backend_spec)
        ex = seg.exchange_plan("gather")
        zero_fix = seg.boundary == "zero" and seg.steps > 1
        src_flat = bufs["src"].reshape(-1)
        cur, nxt = bufs["wina"], bufs["winb"]
        with tel.span("split"):
            for s0, s1, _, _ in self.bounds:
                np.take(src_flat, seg._gather_flat[s0:s1], out=cur[s0:s1])
        for k in range(applications):
            with tel.span("fuse"):
                for s0, s1, _, _ in self.bounds:
                    rows = cur[s0:s1]
                    axes = tuple(range(1, rows.ndim))
                    spec = backend.rfftn(rows, axes)
                    spec *= seg._half_spectrum
                    np.copyto(
                        nxt[s0:s1],
                        backend.irfftn(spec, seg.local_shape, axes),
                    )
            if zero_fix:
                with tel.span("boundary_fix"):
                    for s0, s1, _, _ in self.bounds:
                        seg.fix_zero_boundary_band_windows(
                            cur, nxt, rows=(s0, s1)
                        )
            if k + 1 < applications:
                with tel.span("exchange"):
                    for s0, s1, _, _ in self.bounds:
                        ex.refresh_rows(nxt, (s0, s1), telemetry=tel)
            cur, nxt = nxt, cur
        with tel.span("stitch"):
            for _, _, r0, r1 in self.bounds:
                np.take(
                    cur.reshape(-1),
                    seg._stitch_flat[r0:r1],
                    out=bufs["out"][r0:r1],
                )
        self.runs_completed += 1
        if tel.enabled:
            self._count_run(tel, applications)
        if out is None:
            return np.array(bufs["out"])
        np.copyto(out, bufs["out"])
        return out

    def _count_run(self, tel: Telemetry, applications: int) -> None:
        """Counters of one run, independent of the rank count: one logical
        FFT batch per application, ``processes`` shard tasks each (the
        thread path's ``fft_batches``/``shard_tasks`` convention)."""
        seg = self.segments
        tel.count("applications", applications)
        tel.count("fft_batches", applications)
        tel.count("shard_tasks", applications * self.processes)
        tel.count("windows", applications * seg.total_segments)
        tel.count("points_stitched", int(np.prod(seg.grid_shape)))
        tel.count("process_tasks", self.processes)
        if applications > 1:
            tel.count("hbm_round_trips_saved", applications - 1)
        tel.record_cache(
            "processes",
            processes=self.processes,
            deterministic=int(self.deterministic),
            runs=self.runs_completed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "deterministic" if self.deterministic else self.start_method
        return (
            f"ProcessEngine(processes={self.processes}, mode={mode}, "
            f"grid={self.segments.grid_shape})"
        )


# ------------------------------------------------------- batched scale-out


def _many_worker_main(
    spec: dict[str, Any],
    chunk: int,
    b0: int,
    b1: int,
    total_steps: int,
    shm_names: dict[str, str],
    batch_shape: tuple[int, ...],
    want_tel: bool,
    faults: Sequence[Mapping[str, Any]],
    conn,
) -> None:
    """One-shot ``run_many`` worker: serve grids ``[b0, b1)`` end-to-end.

    Grids are independent, so each worker rebuilds the plan locally and
    runs its chunk serially (``workers=1``, ``processes=1`` — a worker
    must never recurse into thread pools or nested process engines).  The
    worker bumps heartbeat slot ``chunk`` before each grid; shipped
    process-level faults address grids by their global batch index
    (``apply_index``) and fire before that grid is served.
    """
    shms: list[shared_memory.SharedMemory] = []
    try:
        from ..core.plan import FlashFFTStencil

        plan = FlashFFTStencil(
            spec["grid_shape"],
            spec["kernel"],
            fused_steps=spec["steps"],
            boundary=spec["boundary"],
            tile=spec["tile"],
            backend=spec["backend"],
            workers=1,
        )
        arrs: dict[str, np.ndarray] = {}
        for key in ("grids", "out"):
            shm = _attach_shm(shm_names[key])
            shms.append(shm)
            arrs[key] = np.ndarray(
                batch_shape, dtype=np.float64, buffer=shm.buf
            )
        hb_shm = _attach_shm(shm_names["hb"])
        shms.append(hb_shm)
        hb = np.ndarray((hb_shm.size // 8,), dtype=np.float64, buffer=hb_shm.buf)
        tel = Telemetry() if want_tel else NULL_TELEMETRY
        for b in range(b0, b1):
            hb[chunk] += 1.0
            _fire_control_faults(faults, "fuse", b)
            arrs["out"][b] = plan.run(
                arrs["grids"][b],
                total_steps,
                telemetry=tel,
                processes=1,
            )
        hb[chunk] += 1.0
        conn.send(("done", tel.snapshot() if want_tel else None))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        if "arrs" in locals():
            del arrs
        if "hb" in locals():
            del hb
        for shm in shms:
            try:
                shm.close()
            except Exception:
                pass
        conn.close()


def run_many_processes(
    plan: "FlashFFTStencil",
    grids: Sequence[np.ndarray],
    total_steps: int,
    processes: int,
    telemetry: Telemetry | None = None,
    start_method: str | None = None,
    *,
    injector: "FaultInjector | None" = None,
    on_error: str = "recover",
    rank_timeout: float | None = None,
) -> "np.ndarray | tuple[np.ndarray, dict[int, Exception]]":
    """Advance B independent grids across one-shot worker processes.

    The grid axis is the partition (tenants are independent — no exchange
    at all); input and output stacks live in shared memory so the only
    per-grid pickling is the plan spec.  Bit-identical to the serial
    ``run_many`` path, which is itself bit-identical to per-grid ``run``.

    Chunk failures are isolated: each worker is supervised (liveness +
    heartbeat against ``rank_timeout`` / ``$REPRO_RANK_TIMEOUT``), and a
    chunk that crashes, hangs, or raises never takes the healthy chunks'
    results with it.  ``on_error`` picks the policy:

    * ``"recover"`` (default) — the failed chunks' grids are re-run
      inline, one by one, on the serial path (bit-identical); a grid that
      *still* fails raises its real typed error.
    * ``"raise"`` — strict: a crash/hang raises
      :class:`~repro.errors.WorkerCrashError`, a worker-sent error raises
      :class:`~repro.errors.PlanError` (pre-supervision behaviour).
    * ``"return"`` — returns ``(stack, errors)`` where ``errors`` maps a
      failing grid's batch index to its exception; those rows of the
      stack are NaN-filled so accidental use is loud.

    ``injector`` ships armed process-level faults; for this entry point a
    fault's ``rank`` addresses the *chunk* index, ``apply_index`` the
    global grid index it fires before (stage ``"fuse"``).
    """
    if on_error not in ("recover", "raise", "return"):
        raise PlanError(
            f"on_error must be 'recover', 'raise', or 'return', got {on_error!r}"
        )
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    gs = [np.ascontiguousarray(g, dtype=np.float64) for g in grids]
    if not gs:
        raise PlanError("run_many needs at least one grid")
    for b, g in enumerate(gs):
        if g.shape != plan.grid_shape:
            raise PlanError(
                f"grid {b} has shape {g.shape} != plan {plan.grid_shape}"
            )
    batch = len(gs)
    procs = max(1, min(int(processes), batch))
    method = start_method if start_method is not None else default_start_method()
    timeout = rank_timeout if rank_timeout is not None else default_rank_timeout()
    ctx = mp.get_context(method)
    batch_shape = (batch,) + plan.grid_shape
    nbytes = int(np.prod(batch_shape)) * 8
    seg = plan.segments
    spec = {
        "grid_shape": seg.grid_shape,
        "kernel": seg.kernel,
        "steps": plan.fused_steps,
        "tile": seg.valid_shape,
        "boundary": seg.boundary,
        "backend": backend_spec(plan.backend),
    }
    chunks = [
        c for c in np.array_split(np.arange(batch), procs) if len(c)
    ]
    by_chunk: dict[int, list[dict]] = {}
    if injector is not None:
        by_chunk = injector.take_process_faults(len(chunks), telemetry=tel)
    shm_in = shared_memory.SharedMemory(create=True, size=nbytes)
    try:
        shm_out = shared_memory.SharedMemory(create=True, size=nbytes)
    except BaseException:
        shm_in.close()
        shm_in.unlink()
        raise
    try:
        shm_hb = shared_memory.SharedMemory(create=True, size=8 * len(chunks))
    except BaseException:
        for shm in (shm_in, shm_out):
            shm.close()
            shm.unlink()
        raise
    workers: list = []
    conns: list = []
    try:
        stack = np.ndarray(batch_shape, dtype=np.float64, buffer=shm_in.buf)
        for b, g in enumerate(gs):
            np.copyto(stack[b], g)
        hb = np.ndarray((len(chunks),), dtype=np.float64, buffer=shm_hb.buf)
        hb.fill(0.0)
        names = {
            "grids": shm_in.name,
            "out": shm_out.name,
            "hb": shm_hb.name,
        }
        for i, chunk in enumerate(chunks):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_many_worker_main,
                args=(
                    spec,
                    i,
                    int(chunk[0]),
                    int(chunk[-1]) + 1,
                    total_steps,
                    names,
                    batch_shape,
                    tel.enabled,
                    by_chunk.get(i, ()),
                    child_conn,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers.append(proc)
            conns.append(parent_conn)
        # ---- supervised collection: liveness + heartbeat per chunk ----
        statuses: list[tuple[str, Any]] = []
        for i, (proc, conn) in enumerate(zip(workers, conns)):
            status: tuple[str, Any] | None = None
            last = float(hb[i])
            seen = time.monotonic()
            while status is None:
                if conn.poll(0.05):
                    try:
                        msg = conn.recv()
                    except EOFError:
                        status = ("crash", "closed its pipe")
                        break
                    status = (
                        ("done", msg[1]) if msg[0] == "done"
                        else ("error", msg[1])
                    )
                    break
                now = time.monotonic()
                beat = float(hb[i])
                if beat != last:
                    last, seen = beat, now
                elif not proc.is_alive():
                    status = ("crash", f"died with exit code {proc.exitcode}")
                elif timeout is not None and now - seen > timeout:
                    proc.terminate()
                    proc.join(1.0)
                    if proc.is_alive():  # pragma: no cover - stubborn child
                        proc.kill()
                        proc.join(1.0)
                    status = ("hang", f"no heartbeat for {now - seen:.2f}s")
            statuses.append(status)
        failed = [i for i, s in enumerate(statuses) if s[0] != "done"]
        if failed and on_error == "raise":
            infra = [i for i in failed if statuses[i][0] in ("crash", "hang")]
            lines = [f"chunk {i}: {statuses[i][1]}" for i in failed]
            if infra:
                raise WorkerCrashError(
                    "run_many worker failure:\n" + "\n".join(lines),
                    ranks=tuple(infra),
                )
            raise PlanError(
                "run_many process execution failed:\n" + "\n".join(lines)
            )
        errors: dict[int, Exception] = {}
        if failed:
            # Chunk isolation: healthy chunks' rows are already in the
            # output stack; only the failed chunks' grids are redone,
            # serially — the same numerics, so still bit-identical.
            out_arr = np.ndarray(
                batch_shape, dtype=np.float64, buffer=shm_out.buf
            )
            for i in failed:
                kind, reason = statuses[i]
                if tel.enabled:
                    tel.count(
                        "chunk_crashes" if kind == "crash"
                        else "chunk_hangs" if kind == "hang"
                        else "chunk_errors",
                        1,
                    )
                    tel.event(
                        "chunk_recovered", chunk=i, kind=kind,
                        detail=str(reason)[-500:],
                    )
                for b in range(int(chunks[i][0]), int(chunks[i][-1]) + 1):
                    try:
                        out_arr[b] = plan.run(stack[b], total_steps, processes=1)
                    except Exception as exc:
                        if on_error == "recover":
                            raise
                        errors[b] = exc
                        out_arr[b].fill(np.nan)
            if tel.enabled:
                tel.count("chunk_recoveries", len(failed))
        for status in statuses:
            if status[0] == "done" and status[1] is not None:
                tel.merge(status[1])
        result = np.array(
            np.ndarray(batch_shape, dtype=np.float64, buffer=shm_out.buf)
        )
        if tel.enabled:
            tel.count("batch_worker_chunks", len(chunks))
            tel.record_cache(
                "batch_processes", processes=len(chunks), grids=batch
            )
        if on_error == "return":
            return result, errors
        return result
    finally:
        if "hb" in locals():
            del hb
        _release(workers, conns, [shm_in, shm_out, shm_hb])
