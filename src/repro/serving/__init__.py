"""Async multi-tenant serving front-end for FlashFFTStencil plans.

The production-facing layer above :mod:`repro.parallel`: an asyncio
micro-batcher (:class:`StencilServer`) that coalesces independent stencil
requests into batched :func:`~repro.parallel.batch.run_many` executions.
Dispatch is work-conserving: a batch launches whenever the engine is idle
and work is queued, never held back to fill.  Around it sit
deficit-round-robin tenant fairness (:class:`DeficitRoundRobin`),
bounded-queue admission control (:class:`AdmissionController`), and a
persistent on-disk plan/spectrum cache (:class:`PlanDiskCache`) so a
fresh process warm-starts planning instead of re-deriving it.

Failure isolation lives here too: request validation at admission,
per-request deadlines, retry-then-bisection batch recovery, and a
:class:`CircuitBreaker` that degrades the execution mode
(processes → threads → serial) under repeated worker crashes.
"""

from .admission import AdmissionController
from .batcher import ServingConfig, StencilServer
from .breaker import DEGRADATION_LADDER, CircuitBreaker
from .plancache import PLAN_CACHE_ENV, PlanDiskCache
from .scheduler import DeficitRoundRobin

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "DEGRADATION_LADDER",
    "DeficitRoundRobin",
    "PlanDiskCache",
    "PLAN_CACHE_ENV",
    "ServingConfig",
    "StencilServer",
]
