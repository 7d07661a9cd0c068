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
per-request deadlines, and bisection of a failed batch so a poisoned
request fails alone.
"""

from .admission import AdmissionController
from .batcher import ServingConfig, StencilServer
from .plancache import PLAN_CACHE_ENV, PlanDiskCache
from .scheduler import DeficitRoundRobin

__all__ = [
    "AdmissionController",
    "DeficitRoundRobin",
    "PlanDiskCache",
    "PLAN_CACHE_ENV",
    "ServingConfig",
    "StencilServer",
]
