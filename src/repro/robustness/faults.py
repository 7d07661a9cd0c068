"""Fault-injection harness: deterministic, seedable pipeline sabotage.

Recovery paths that are never exercised are broken paths.  The injector
plants three fault classes at the split/fuse/stitch/output boundaries of
specific applications:

* ``"transient"`` — raises :class:`~repro.errors.FaultInjected`
  (``transient=True``) a configured number of consecutive times, modelling
  glitches a bounded retry absorbs;
* ``"nan"`` — poisons one deterministic element of the stage output with
  NaN, which the numerical guards must catch;
* ``"corrupt"`` — perturbs the whole stage output by a finite, in-range
  offset (a miscomputed stage corrupts everything it touches) — invisible
  to finiteness/magnitude guards, caught only by the drift sentinel.

Fault sites are addressed by ``(stage, apply_index)``; the poisoned element
index derives from the injector seed and the fault's coordinates (CRC of
the stage name — never Python's randomized ``hash``), so every run of a
given configuration corrupts the same element.  The injector keeps a log of
what it actually fired, which the tests and ``benchmarks/bench_robustness``
assert against.

:class:`RetryPolicy` is the matching recovery knob: bounded attempts with
(optional) exponential backoff for transient stage faults.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import FaultInjected
from ..observability import NULL_TELEMETRY, Telemetry

__all__ = ["FaultSpec", "FaultInjector", "RetryPolicy"]

_KINDS = ("transient", "nan", "corrupt")
_STAGES = ("input", "split", "fuse", "stitch", "output")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: where, what, and how often.

    Parameters
    ----------
    stage:
        Pipeline boundary to hit: ``"input"``, ``"split"``, ``"fuse"``,
        ``"stitch"``, or ``"output"`` (after the boundary fix).
    kind:
        ``"transient"``, ``"nan"``, or ``"corrupt"``.
    apply_index:
        0-based application index within a ``run()`` to target.
    count:
        How many times the fault fires (consecutive visits to the site —
        for transients, the number of attempts that fail before the site
        heals).
    value:
        Offset added to every element by ``"corrupt"`` faults.
    """

    stage: str
    kind: str
    apply_index: int = 0
    count: int = 1
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.stage not in _STAGES:
            raise ValueError(f"stage must be one of {_STAGES}, got {self.stage!r}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.apply_index < 0:
            raise ValueError(f"apply_index must be >= 0, got {self.apply_index}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for transient stage faults."""

    attempts: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )


class FaultInjector:
    """Fires the configured :class:`FaultSpec` set at visited stage sites."""

    def __init__(self, faults: "list[FaultSpec] | tuple[FaultSpec, ...]", seed: int = 0) -> None:
        self.faults = tuple(faults)
        self.seed = int(seed)
        self._remaining = [f.count for f in self.faults]
        self.log: list[dict] = []

    def reset(self) -> None:
        """Re-arm every fault and clear the firing log."""
        self._remaining = [f.count for f in self.faults]
        self.log.clear()

    @property
    def pending(self) -> int:
        """Total fault firings still armed."""
        return sum(self._remaining)

    def _element(self, fault: FaultSpec, size: int) -> int:
        """Deterministic flat element index for a data fault."""
        mix = np.random.default_rng(
            (self.seed, zlib.crc32(fault.stage.encode()), fault.apply_index)
        )
        return int(mix.integers(size))

    def visit(
        self,
        stage: str,
        arr: np.ndarray,
        apply_index: int,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> np.ndarray:
        """Pass ``arr`` through the stage site, firing any armed fault.

        Data faults (``nan``/``corrupt``) return a poisoned *copy*;
        transient faults raise :class:`~repro.errors.FaultInjected`.
        """
        for i, fault in enumerate(self.faults):
            if (
                fault.stage != stage
                or fault.apply_index != apply_index
                or self._remaining[i] <= 0
            ):
                continue
            self._remaining[i] -= 1
            self.log.append(
                {"stage": stage, "kind": fault.kind, "apply_index": apply_index}
            )
            if telemetry.enabled:
                telemetry.count("faults_injected", 1)
                telemetry.event(
                    "fault_injected",
                    stage=stage,
                    kind=fault.kind,
                    apply_index=apply_index,
                )
            if fault.kind == "transient":
                raise FaultInjected(
                    f"transient fault injected at stage {stage!r} "
                    f"(application {apply_index})",
                    transient=True,
                )
            arr = np.array(arr, dtype=np.float64)
            if fault.kind == "nan":
                flat = arr.reshape(-1)
                flat[self._element(fault, flat.size)] = np.nan
            else:  # corrupt: finite, in-range, and systematic
                arr += fault.value
        return arr
