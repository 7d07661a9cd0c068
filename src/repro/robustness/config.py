"""The :class:`RobustnessConfig` bundle wired through ``FlashFFTStencil``.

One object opts a ``run()``/``apply()`` into the fault-tolerant execution
layer: numerical guards, drift sentinel, checkpoint/restart, bounded retry,
and (for tests/benchmarks) a fault injector.  ``RobustnessConfig()`` is the
sensible production default — guards raise on non-finite data, transient
stage faults are retried, and everything else stays off until asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanError
from .checkpoint import CheckpointStore
from .faults import FaultInjector, RetryPolicy
from .guards import GuardPolicy
from .sentinel import SentinelConfig

__all__ = ["RobustnessConfig"]


@dataclass(frozen=True)
class RobustnessConfig:
    """Fault-tolerance switches for one plan execution.

    Parameters
    ----------
    guards:
        Numerical guard policy (see :class:`~repro.robustness.GuardPolicy`).
    sentinel:
        Drift-sentinel cadence/tolerance; ``None`` disables probing.
    checkpoint_every:
        Snapshot the time-stepping state every N applications (0 = off).
    checkpoint_store:
        Where snapshots go; defaults to a fresh in-memory store per run
        when ``checkpoint_every`` is set.
    retry:
        Bounded retry with backoff for transient stage faults.
    max_restores:
        Checkpoint-restore budget per run (guards against replay loops).
    fallback_to_reference:
        After retries (and restores) are exhausted — or on a sentinel
        breach — recompute on the reference path instead of failing the
        run.  With this off, the typed error propagates.
    injector:
        Fault-injection harness for exercising the recovery paths.
    """

    guards: GuardPolicy = field(default_factory=GuardPolicy)
    sentinel: SentinelConfig | None = None
    checkpoint_every: int = 0
    checkpoint_store: CheckpointStore | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_restores: int = 2
    fallback_to_reference: bool = True
    injector: FaultInjector | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise PlanError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.max_restores < 0:
            raise PlanError(f"max_restores must be >= 0, got {self.max_restores}")
