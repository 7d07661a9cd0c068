"""Exception hierarchy for the FlashFFTStencil reproduction.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything originating here with a single ``except`` clause while
still letting programming errors (``TypeError`` on wrong argument types,
etc.) propagate normally.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "KernelError",
    "PlanError",
    "PFAError",
    "SimulationError",
    "BoundaryError",
    "NumericalError",
    "CheckpointError",
    "FaultInjected",
    "ServingError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class KernelError(ReproError, ValueError):
    """Invalid stencil kernel definition (offsets/weights mismatch, empty, ...)."""


class PlanError(ReproError, ValueError):
    """A FlashFFTStencil execution plan could not be constructed or applied."""


class PFAError(ReproError, ValueError):
    """Prime-Factor FFT constraints violated (non co-prime factors, size mismatch)."""


class SimulationError(ReproError, RuntimeError):
    """The GPU performance model was driven with inconsistent inputs."""


class BoundaryError(ReproError, ValueError):
    """Unsupported or inconsistent boundary-condition request."""


class NumericalError(ReproError, ArithmeticError):
    """A numerical guard tripped: non-finite or out-of-range values in a
    grid, kernel spectrum, or pipeline stage output."""


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint could not be saved, found, or restored."""


class ServingError(ReproError, RuntimeError):
    """The serving front-end rejected or failed a request.

    Raised by admission control (bounded-queue backpressure, per-tenant
    quota breaches) and by the micro-batcher when a request cannot be
    served (server not running, shutdown without drain).  Typed so callers
    can distinguish load shedding from numerical/plan errors and retry
    against another replica.
    """


class FaultInjected(ReproError, RuntimeError):
    """An artificial fault planted by the fault-injection harness.

    ``transient`` marks faults that model recoverable glitches (a retry of
    the same stage may succeed); persistent faults corrupt data instead of
    raising and are surfaced by the numerical guards or the drift sentinel.
    """

    def __init__(self, message: str, *, transient: bool = False) -> None:
        super().__init__(message)
        self.transient = bool(transient)
