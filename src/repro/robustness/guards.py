"""Numerical guards: finiteness / magnitude checks on grids and stage outputs.

The fused FFT→multiply→iFFT pipeline trades many small HBM round trips for
long fused iteration chains — exactly where silent numerical failure lives.
A NaN in one window propagates through split/fuse/stitch and lands in the
output with no diagnostic; a spectrum whose magnitude exceeds 1 amplifies
round-off exponentially in the fused step count.  :func:`check_array` is the
single choke point: it validates an array's finiteness (and optionally its
magnitude) and reacts according to a :class:`GuardPolicy` — raise a typed
:class:`~repro.errors.NumericalError`, warn, or sanitize in place.

The hot-path cost of a passing check is a single NaN-propagating BLAS
reduction (sum of squares) — no temporaries, no boolean mask — with an
exact ``min``/``max`` fallback when the magnitude bound is inconclusive.
The expensive diagnostics (counting non-finite elements) run only on the
failure path.
With ``GUARDS_OFF`` (or any policy whose ``mode`` is ``"off"``) the check
returns immediately, so guards-off call sites stay zero-overhead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError
from ..observability import NULL_TELEMETRY, Telemetry

__all__ = [
    "GuardPolicy",
    "GUARDS_OFF",
    "DEFAULT_GUARDS",
    "NumericalWarning",
    "check_array",
]

_MODES = ("off", "warn", "raise", "sanitize")


class NumericalWarning(RuntimeWarning):
    """Emitted instead of :class:`NumericalError` under ``mode="warn"``."""


@dataclass(frozen=True)
class GuardPolicy:
    """What to check and how to react when a check fails.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) raises :class:`~repro.errors.NumericalError`;
        ``"warn"`` emits a :class:`NumericalWarning` and passes the data
        through unchanged; ``"sanitize"`` replaces NaN with 0 and clamps
        ±Inf / out-of-range values to ``±max_abs``; ``"off"`` disables all
        checks (zero overhead).
    max_abs:
        Magnitude ceiling.  ``None`` checks finiteness only.
    check_inputs / check_outputs:
        Validate grids entering the pipeline / final stage outputs.
    check_stages:
        Additionally validate intermediate stage outputs (split windows,
        fused windows) — more coverage, proportionally more reductions.
    """

    mode: str = "raise"
    max_abs: float | None = 1e100
    check_inputs: bool = True
    check_outputs: bool = True
    check_stages: bool = False

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"guard mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_abs is not None and not self.max_abs > 0:
            raise ValueError(f"max_abs must be positive or None, got {self.max_abs}")

    @property
    def enabled(self) -> bool:
        return self.mode != "off"


#: Disable every check — the zero-overhead policy.
GUARDS_OFF = GuardPolicy(mode="off")

#: The default raise-on-violation policy.
DEFAULT_GUARDS = GuardPolicy()


def _describe(arr: np.ndarray, name: str, max_abs: float | None) -> str:
    """Failure-path diagnostics: how many elements are bad, and how."""
    finite = np.isfinite(arr)
    n_nan = int(np.isnan(arr).sum())
    n_inf = int(arr.size - finite.sum() - n_nan)
    parts = []
    if n_nan:
        parts.append(f"{n_nan} NaN")
    if n_inf:
        parts.append(f"{n_inf} Inf")
    if max_abs is not None and finite.any():
        peak = float(np.abs(arr[finite]).max(initial=0.0))
        if peak > max_abs:
            parts.append(f"|max| {peak:.3e} > limit {max_abs:.3e}")
    detail = ", ".join(parts) or "out-of-range values"
    return f"numerical guard tripped on {name!r} (shape {arr.shape}): {detail}"


def check_array(
    arr: np.ndarray,
    name: str,
    policy: GuardPolicy = DEFAULT_GUARDS,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> np.ndarray:
    """Validate ``arr`` under ``policy``; return it (or a sanitized copy).

    A passing check costs one reduction.  Violations increment the
    ``guard_violations`` telemetry counter and record a ``guard_violation``
    event before reacting per ``policy.mode``.
    """
    if not policy.enabled or arr.size == 0:
        return arr
    if telemetry.enabled:
        telemetry.count("guard_checks", 1)
    # One fused-multiply pass: the sum of squares propagates NaN/±Inf, and
    # sqrt(ss) bounds max|x|, so a finite ss below max_abs**2 proves the
    # array clean without a second reduction.  The exact extrema run only
    # when that bound is inconclusive (legit data whose rms is within a
    # factor sqrt(n) of max_abs, or an ss overflow).  Scalar classification
    # uses math.isfinite: np.isfinite's ufunc dispatch on a Python float
    # costs as much as the reduction itself.  The reduction is einsum, not
    # vdot: vdot goes through BLAS, whose thread pool wake-up costs
    # milliseconds per call on a multi-core host (complex data is summed
    # as its interleaved real/imaginary parts, i.e. sum |x|^2).
    flat = np.ascontiguousarray(arr).reshape(-1)
    if flat.dtype.kind == "c":
        flat = flat.view(flat.real.dtype)
    ss = float(abs(np.einsum("i,i->", flat, flat)))
    if math.isfinite(ss) and (
        policy.max_abs is None or ss <= policy.max_abs * policy.max_abs
    ):
        return arr
    lo = float(arr.min())
    hi = float(arr.max())
    bad = not (math.isfinite(lo) and math.isfinite(hi))
    if not bad and policy.max_abs is not None:
        bad = max(-lo, hi) > policy.max_abs
    if not bad:
        return arr

    msg = _describe(np.asarray(arr), name, policy.max_abs)
    if telemetry.enabled:
        telemetry.count("guard_violations", 1)
        telemetry.event("guard_violation", array=name, mode=policy.mode)
    if policy.mode == "raise":
        raise NumericalError(msg)
    if policy.mode == "warn":
        warnings.warn(msg, NumericalWarning, stacklevel=2)
        return arr
    # sanitize: NaN -> 0, ±Inf and out-of-range -> ±cap.
    cap = policy.max_abs if policy.max_abs is not None else np.finfo(np.float64).max
    cleaned = np.nan_to_num(arr, nan=0.0, posinf=cap, neginf=-cap)
    np.clip(cleaned, -cap, cap, out=cleaned)
    if telemetry.enabled:
        telemetry.count("guard_sanitized", 1)
    return cleaned
