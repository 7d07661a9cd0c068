"""Asyncio micro-batcher: coalesce stencil requests without a fill wait.

A serving replica receives a stream of independent ``(grid, steps)``
requests.  Executing each alone pays the per-call fixed costs B times and
leaves the batched-FFT path (:func:`repro.parallel.batch.run_many`) idle;
holding requests back to fill a batch buys that throughput with latency.
:class:`StencilServer` dispatches *work-conservingly* instead:

* requests enter through **admission control** (bounded queue, per-tenant
  caps — :class:`~repro.serving.admission.AdmissionController`), then a
  **deficit-round-robin scheduler** so no tenant's backlog starves the
  others (:class:`~repro.serving.scheduler.DeficitRoundRobin`);
* whenever requests are queued and no batch is in flight, the batch loop
  yields once (so submissions and timers already on the ready queue
  land), pops up to the batch target and runs it at once — the engine
  never idles while work waits, and no timer holds a lone request back.
  Requests that arrive while a batch runs form the next batch, so under
  backlog batches still fill to ``max_batch``;
* the batch target is ``max_batch``, capped by the online tuner's
  measured batch size when one is attached — one controller;
* collected requests are grouped by ``(steps, precision)`` and executed
  through :func:`~repro.parallel.batch.serve_batch`, in a thread-pool
  executor (so the event loop keeps accepting submissions mid-batch)
  unless an EWMA of per-grid service time predicts the batch finishes
  faster than the executor hop, in which case it runs inline.
  ``submit(..., tolerance=...)`` opts a request into accuracy-budget
  routing: the plan's :class:`~repro.analysis.accuracy.PrecisionRouter`
  picks the cheapest precision tier predicted to meet the budget, routed
  groups are spot-checked against the float64 reference on the router's
  sentinel cadence, and a breach sticky-escalates the whole server to
  float64 — a batch never mixes tiers, so co-batched exact requests stay
  bit-identical.

Batched execution is numerically exact: responses are bit-identical to a
per-request ``plan.run`` loop (grids are stacked, never mixed); routed
float32 responses are returned in the plan's dtype (float64 by default)
and are within the declared tolerance of the float64 reference.  The
measured latency effect of dropping the fill wait is tabulated in
``docs/TECHNIQUES.md`` §15.

**Failure isolation.**  Co-batching must not create shared fate: one bad
request failing every co-batched tenant would undo the multi-tenancy
story.  Three mechanisms compose:

* *validation at admission* — malformed grids (wrong shape, non-finite
  values) and over-ceiling step counts are refused at ``submit`` time,
  before they can enter a batch at all;
* *per-request deadlines* — ``request_timeout_ms`` fails only the
  expired request's future; the batch it would have joined is unaffected;
* *bisection* — a failed group execution is split in halves that re-run
  independently, so the poisoned request alone fails and every healthy
  co-batched request is re-run — bit-identical to what it would have
  gotten in a clean batch, because batching never mixes grids.

:meth:`StencilServer.health` exposes the whole picture — expiry/poison
counters, admission stats — for load balancers to scrape.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..errors import ServingError
from ..observability import NULL_TELEMETRY, Telemetry
from ..parallel.batch import serve_batch
from .admission import AdmissionController
from .scheduler import DeficitRoundRobin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.plan import FlashFFTStencil
    from ..robustness.guards import GuardPolicy
    from ..tuner import OnlineTuner

__all__ = ["ServingConfig", "StencilServer"]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the micro-batching policy.

    ``max_batch`` caps how many queued requests one batch takes; batches
    launch as soon as the engine is idle, whatever their fill.
    ``ewma_alpha`` smooths the per-grid service time that decides inline
    vs executor dispatch.  ``quantum`` is the DRR credit per tenant visit
    in grid-point units (``None``: one plan-sized grid, i.e. roughly one
    request per tenant per round).
    """

    max_batch: int = 8
    max_queue: int = 256
    max_pending_per_tenant: int | None = None
    ewma_alpha: float = 0.3
    quantum: float | None = None
    weights: Mapping[str, float] | None = None
    double_layer: bool = False
    workers: int | None = None
    #: Batches whose EWMA-predicted service time is below this run inline
    #: on the event loop instead of hopping to the thread-pool executor:
    #: the ~0.5 ms dispatch round trip would otherwise dominate sub-ms
    #: batches.  Blocking the loop that briefly costs less than the hop
    #: it saves; 0 disables inlining entirely.
    inline_below_ms: float = 2.0
    #: Validate each request at admission (shape, finite values, step
    #: ceiling) so a malformed grid is refused before it can poison a
    #: batch.  ``max_steps`` is the per-request step ceiling (``None``:
    #: unbounded).
    validate_requests: bool = True
    max_steps: int | None = None
    #: End-to-end per-request deadline: a request still unanswered this
    #: long after submit fails (alone) with ``ServingError``.  ``None``
    #: disables expiry.
    request_timeout_ms: float | None = None
    #: Output guards for each batch (a ``GuardPolicy``): non-finite or
    #: out-of-range batch results raise instead of being returned, which
    #: is what arms the bisection path for execution-time poison.
    guards: "GuardPolicy | None" = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.inline_below_ms < 0:
            raise ServingError(
                f"inline_below_ms must be >= 0, got {self.inline_below_ms}"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ServingError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.max_steps is not None and self.max_steps < 0:
            raise ServingError(
                f"max_steps must be >= 0, got {self.max_steps}"
            )
        if self.request_timeout_ms is not None and self.request_timeout_ms <= 0:
            raise ServingError(
                f"request_timeout_ms must be > 0, got {self.request_timeout_ms}"
            )


@dataclass
class _Request:
    grid: np.ndarray
    steps: int
    tenant: str
    future: "asyncio.Future[np.ndarray]"
    cost: float
    #: Accuracy budget (None: exact — the plan's own tier).
    tolerance: float | None = None
    #: Tier the router picked at admission; the co-batching group key is
    #: ``(steps, precision)`` so a batch never mixes precisions.
    precision: str = "float64"
    t_submit: float = field(default_factory=time.perf_counter)


class StencilServer:
    """Async multi-tenant front-end over one :class:`FlashFFTStencil` plan.

    Usage::

        async with StencilServer(plan) as server:
            out = await server.submit(grid, steps=24, tenant="alice")

    One server instance serves one plan (grid shape + kernel + fusion
    depth); requests may differ in ``steps`` and are grouped per batch.
    All public coroutines must run on the server's event loop.
    """

    def __init__(
        self,
        plan: "FlashFFTStencil",
        config: ServingConfig | None = None,
        telemetry: Telemetry | None = None,
        tuner: "OnlineTuner | None" = None,
    ) -> None:
        self.plan = plan
        self.config = config if config is not None else ServingConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Online tuner (:class:`~repro.tuner.OnlineTuner`): when present,
        #: the batch size becomes a tuner dimension — live per-grid
        #: service observations per batch size feed
        #: :meth:`~repro.tuner.OnlineTuner.observe_batch`, and once the
        #: tuner decides, its target caps ``max_batch``.
        self.tuner = tuner
        self._tuner_sig = None
        if tuner is not None:
            from ..tuner import workload_signature

            # Serving workloads vary per-request steps, so the serving
            # signature pins steps=0 and carries the batch ceiling: one
            # tuned batch decision per (plan, machine, max_batch).
            self._tuner_sig = workload_signature(
                plan, 0, batch=self.config.max_batch
            )
        points = float(np.prod(plan.grid_shape))
        quantum = self.config.quantum if self.config.quantum is not None else points
        self._scheduler = DeficitRoundRobin(
            quantum=quantum, weights=self.config.weights
        )
        self._admission = AdmissionController(
            max_queue=self.config.max_queue,
            max_pending_per_tenant=self.config.max_pending_per_tenant,
            telemetry=self.telemetry,
        )
        self._cost = points
        self._wake: asyncio.Event | None = None
        self._worker: asyncio.Task | None = None
        self._running = False
        self._draining = False
        self._inflight = 0
        #: EWMA of per-grid service time (seconds); None until first batch.
        #: It only chooses inline vs executor dispatch, never batch size.
        self._service_ewma: float | None = None
        self.batches = 0
        self.served = 0
        self.expired = 0
        self.poisoned = 0
        self.bisections = 0

    # --------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        if self._running:
            raise ServingError("server already running")
        self._wake = asyncio.Event()
        self._running = True
        self._draining = False
        self._worker = asyncio.create_task(self._batch_loop())

    async def stop(self, drain: bool = True) -> None:
        """Stop the server; with ``drain`` (default) serve the backlog first."""
        if not self._running:
            return
        if drain:
            self._draining = True
            assert self._wake is not None
            self._wake.set()
            assert self._worker is not None
            await self._worker
        else:
            self._running = False
            assert self._worker is not None
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            shed = self._scheduler.pop_batch(max(1, len(self._scheduler)))
            for req in shed:
                if not req.future.done():
                    req.future.set_exception(
                        ServingError("server stopped without draining")
                    )
        self._running = False
        self._worker = None

    async def __aenter__(self) -> "StencilServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop(drain=True)

    # ----------------------------------------------------------------- submit

    def submit_nowait(
        self,
        grid: np.ndarray,
        steps: int,
        tenant: str = "default",
        tolerance: float | None = None,
    ) -> "asyncio.Future[np.ndarray]":
        """Enqueue one request; return the result future without awaiting.

        Admission control runs synchronously: a shed request raises
        :class:`~repro.errors.ServingError` right here (queue full, tenant
        over cap, server not running) — callers see backpressure, not
        silent queue growth.  Must be called on the server's event loop;
        gathering these raw futures skips the per-request task wrap of
        ``gather(submit(...))``, which matters at high request rates.

        ``tolerance`` opts the request into precision routing: the tier is
        chosen here, at admission, so the batch loop can co-schedule
        same-tier requests (the group key is ``(steps, precision)``).
        """
        if not self._running or self._draining:
            raise ServingError("server is not accepting requests")
        cfg = self.config
        if cfg.validate_requests:
            grid = self._admission.validate(
                grid,
                steps,
                self.plan.grid_shape,
                cfg.max_steps,
                dtype=self.plan.dtype,
                tolerance=tolerance,
            )
        elif steps < 0:
            raise ServingError(f"steps must be >= 0, got {steps}")
        precision = self.plan.precision
        if tolerance is not None:
            precision = self.plan.router().route(
                int(steps), float(tolerance), self.telemetry
            )
            self.telemetry.count(
                "precision_requests_f32"
                if precision == "float32"
                else "precision_requests_f64"
            )
        self._admission.admit(
            tenant,
            self._scheduler.pending() + self._inflight,
            self._scheduler.pending(tenant),
        )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[np.ndarray]" = loop.create_future()
        req = _Request(
            grid=grid,
            steps=int(steps),
            tenant=tenant,
            future=future,
            cost=self._cost,
            tolerance=None if tolerance is None else float(tolerance),
            precision=precision,
        )
        self._scheduler.push(tenant, req, cost=req.cost)
        if cfg.request_timeout_ms is not None:
            handle = loop.call_later(
                cfg.request_timeout_ms / 1000.0, self._expire, req
            )
            future.add_done_callback(lambda _f, _h=handle: _h.cancel())
        assert self._wake is not None
        self._wake.set()
        return future

    def _expire(self, req: _Request) -> None:
        """Deadline timer fired: fail *this* request, leave its batch alone.

        The request may still sit in the scheduler or already be queued in
        a collected group — both paths skip requests whose future is done,
        so expiry never perturbs the co-batched tenants.
        """
        if req.future.done():  # pragma: no cover - cancel/complete race
            return
        self.expired += 1
        self.telemetry.count("requests_expired")
        req.future.set_exception(
            ServingError(
                f"request expired after {self.config.request_timeout_ms} ms "
                f"(tenant {req.tenant!r})"
            )
        )

    async def submit(
        self,
        grid: np.ndarray,
        steps: int,
        tenant: str = "default",
        tolerance: float | None = None,
    ) -> np.ndarray:
        """Enqueue one request and await its result (see `submit_nowait`)."""
        return await self.submit_nowait(grid, steps, tenant, tolerance)

    # ------------------------------------------------------------- batch loop

    def _batch_size_target(self) -> int:
        """How many queued requests the next batch takes.

        ``max_batch``, capped by a tuner-decided batch target (measured
        per-grid service time per batch size) once the tuner has one.
        """
        target = self.config.max_batch
        if self.tuner is not None:
            tuned = self.tuner.tuned_batch(self._tuner_sig)
            if tuned is not None:
                target = min(target, tuned)
        return max(1, target)

    async def _batch_loop(self) -> None:
        assert self._wake is not None
        while True:
            while not len(self._scheduler):
                if self._draining:
                    return
                self._wake.clear()
                if len(self._scheduler):
                    continue  # submit raced the clear; re-check before waiting
                await self._wake.wait()
            # Work-conserving: the engine is idle and work is queued, so
            # yield once — submissions and expiry timers already on the
            # ready queue land — then run whatever is there.  Arrivals
            # during this batch form the next one.
            await asyncio.sleep(0)
            batch = self._scheduler.pop_batch(self._batch_size_target())
            if batch:
                await self._execute(batch)

    async def _execute(self, batch: list[_Request]) -> None:
        """Run one collected batch, grouped by ``steps``, off the loop."""
        self._inflight += len(batch)
        tel = self.telemetry
        groups: "OrderedDict[tuple[int, str], list[_Request]]" = OrderedDict()
        for req in batch:
            groups.setdefault((req.steps, req.precision), []).append(req)
        loop = asyncio.get_running_loop()
        try:
            await self._execute_groups(groups, loop, tel, batch)
        except asyncio.CancelledError:
            # stop(drain=False) cancelled mid-batch: fail the waiters
            # instead of abandoning their futures.
            for req in batch:
                if not req.future.done():
                    req.future.set_exception(
                        ServingError("server stopped without draining")
                    )
            raise
        finally:
            self._inflight -= len(batch)

    async def _execute_groups(self, groups, loop, tel, batch) -> None:
        for (steps, precision), reqs in groups.items():
            await self._execute_group(steps, precision, reqs, loop, tel)
        self.batches += 1
        if tel.enabled:
            tel.observe("serve_batch_size", float(len(batch)))

    async def _execute_group(self, steps, precision, reqs, loop, tel) -> None:
        """Serve one same-``(steps, precision)`` group; bisect on failure.

        A failed group is bisected: halves re-run independently until the
        poisoned request is alone and fails its own future, while every
        healthy request gets its bit-identical result (batching never
        mixes grids, so a re-run half equals its slice of the original
        batch).
        """
        live = [r for r in reqs if not r.future.done()]
        if not live:
            return
        try:
            results, inline, per_grid = await self._dispatch(
                steps, live, loop, tel, precision
            )
        except Exception as e:
            live = [r for r in live if not r.future.done()]
            if len(live) == 1:
                self.poisoned += 1
                tel.count("serving_poisoned_requests")
                live[0].future.set_exception(e)
            elif live:
                self.bisections += 1
                tel.count("serving_bisections")
                mid = len(live) // 2
                await self._execute_group(steps, precision, live[:mid], loop, tel)
                await self._execute_group(steps, precision, live[mid:], loop, tel)
            return
        if precision == "float32" and precision != self.plan.precision:
            results = await self._spot_check_group(steps, live, results, loop, tel)
        self._finish_group(live, results, inline, per_grid, tel)

    async def _dispatch(self, steps, reqs, loop, tel, precision=None):
        """Run one group through ``serve_batch`` on ``precision``'s plan."""
        plan = self.plan
        if precision is not None and precision != plan.precision:
            plan = plan.variant(precision)
        call = functools.partial(
            serve_batch,
            plan,
            [r.grid for r in reqs],
            steps,
            double_layer=self.config.double_layer,
            workers=self.config.workers,
            telemetry=tel,
            guards=self.config.guards,
        )
        # The executor hop costs ~0.5 ms round trip; batches the EWMA
        # predicts to finish faster than inline_below_ms run on the
        # loop directly.  First batch (no EWMA yet) stays off-loop.
        predicted_ms = (
            None
            if self._service_ewma is None
            else self._service_ewma * 1000.0 * len(reqs)
        )
        inline = (
            predicted_ms is not None
            and predicted_ms < self.config.inline_below_ms
        )
        t0 = time.perf_counter()
        if inline:
            results = call()
        else:
            results = await loop.run_in_executor(None, call)
        elapsed = time.perf_counter() - t0
        return results, inline, elapsed / len(reqs)

    async def _spot_check_group(self, steps, reqs, results, loop, tel):
        """Verify a routed float32 group on the router's sentinel cadence.

        Off-cadence this is a no-op.  On cadence the first request is
        re-run at float64 and compared against its declared tolerance
        (the tightest in the group, to be safe); a breach sticky-escalates
        the router — every later request routes float64 — and the whole
        group is re-served on the reference tier so no caller ever
        receives the breaching result.
        """
        live = [r for r in reqs if not r.future.done()]
        if not live:
            return results
        tols = [r.tolerance for r in live if r.tolerance is not None]
        if not tols:
            return results
        router = self.plan.router()
        ref = await loop.run_in_executor(
            None,
            functools.partial(
                router.spot_check,
                live[0].grid,
                results[reqs.index(live[0])],
                steps,
                min(tols),
                tel,
            ),
        )
        if ref is None:
            return results
        tel.count("serving_precision_escalations")
        results, _inline, _per_grid = await self._dispatch(
            steps, reqs, loop, tel, "float64"
        )
        return results

    def _finish_group(self, reqs, results, inline, per_grid, tel) -> None:
        alpha = self.config.ewma_alpha
        self._service_ewma = (
            per_grid
            if self._service_ewma is None
            else alpha * per_grid + (1 - alpha) * self._service_ewma
        )
        if self.tuner is not None:
            self.tuner.observe_batch(self._tuner_sig, len(reqs), per_grid)
        t_done = time.perf_counter()
        want = self.plan.dtype
        for r, out in zip(reqs, results):
            if not r.future.done():
                # Routed groups computed in another tier come home in the
                # serving plan's dtype, so callers see one stable dtype.
                r.future.set_result(out.astype(want, copy=False))
            if tel.enabled:
                tel.observe(
                    "serve_latency_ms", (t_done - r.t_submit) * 1000.0
                )
        self.served += len(reqs)
        if tel.enabled:
            tel.observe("serve_service_ms_per_grid", per_grid * 1000.0)
            tel.count(
                "serving_inline_batches" if inline
                else "serving_executor_batches"
            )

    # ------------------------------------------------------------- introspect

    def info(self) -> dict:
        return {
            "running": self._running,
            "pending": self._scheduler.pending(),
            "inflight": self._inflight,
            "batches": self.batches,
            "served": self.served,
            "batch_target": self._batch_size_target(),
            "tuned_batch": (
                None
                if self.tuner is None
                else self.tuner.tuned_batch(self._tuner_sig)
            ),
            "service_ewma_ms": (
                None if self._service_ewma is None else self._service_ewma * 1000.0
            ),
            "admission": self._admission.info(),
        }

    def health(self) -> dict:
        """Liveness + degradation snapshot for a load balancer to scrape.

        Read-only: never mutates counters.
        """
        return {
            "running": self._running,
            "draining": self._draining,
            "pending": self._scheduler.pending(),
            "inflight": self._inflight,
            "batches": self.batches,
            "served": self.served,
            "expired": self.expired,
            "poisoned": self.poisoned,
            "bisections": self.bisections,
            "admission": self._admission.info(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StencilServer(plan={self.plan.grid_shape}, "
            f"running={self._running}, served={self.served})"
        )
