"""Pipeline telemetry: nested timing spans, counters, cache metrics.

The paper's evaluation is built on *per-stage* visibility: Figure 7
attributes the 11x breakdown ladder to individual techniques, and Table 4
ties achieved performance to pipeline/memory counters.  This module gives
the host-side engine the same visibility: a :class:`Telemetry` sink records

* **spans** — nested wall-time regions (``split`` / ``fuse`` / ``stitch`` /
  ``boundary_fix`` / ``tail``, plus ``exchange`` for the segment-resident
  halo refresh that replaces stitch + re-split between fused
  applications), keyed by their slash-joined nesting path;
* **counters** — monotonic event counts (FFT batches, windows processed,
  points stitched, MMA ops, cache hits/misses; resident iteration adds
  ``halo_points_exchanged`` — values copied between neighbouring windows
  per exchange — and ``hbm_round_trips_saved`` — full grid round trips the
  resident loop avoided, one per application transition);
* **cache stats** — point-in-time snapshots of the module-level plan cache
  and the kernel-spectrum cache;
* **events** — a bounded log of discrete occurrences (guard violations,
  injected faults, checkpoint restores, reference fallbacks) recorded by
  the robustness layer; the oldest entries are dropped past
  ``EVENT_LIMIT`` and the drop count is kept so nothing vanishes silently;
* **observations** — value distributions (serving request latencies,
  chosen micro-batch sizes) with exact count/sum/min/max and a rolling
  sample window for percentiles (:meth:`Telemetry.observe` /
  :meth:`Telemetry.percentile`).

Everything is JSON-serializable via :meth:`Telemetry.snapshot` /
:func:`telemetry_to_json`.  The default sink is :data:`NULL_TELEMETRY`, a
:class:`NullTelemetry` whose every operation is a no-op — the hot path pays
nothing when observability is off.

A :class:`Telemetry` instance is guarded by a lock for counter/cache
updates so concurrent ``run()`` callers can share one sink; span timing
uses a per-thread stack so nesting paths stay coherent under threading.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Mapping

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "telemetry_to_json",
]


class _Span:
    """Reusable context manager for one named region of a Telemetry sink."""

    __slots__ = ("_telemetry", "_name", "_t0")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._telemetry._push(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        dt = time.perf_counter() - self._t0
        self._telemetry._pop(self._name, dt)


class _NullSpan:
    """A do-nothing context manager shared by every NullTelemetry span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Telemetry:
    """A telemetry sink: nested spans, monotonic counters, cache metrics.

    Spans nest: entering ``span("fuse")`` inside ``span("apply")`` records
    under the path ``"apply/fuse"``.  Each path accumulates total seconds
    and a call count.  Counters only ever increase.  ``record_cache``
    overwrites the latest stats for a named cache (hits/misses/size are
    already cumulative at the source).
    """

    enabled = True

    #: Maximum retained events; older entries are dropped (and counted).
    EVENT_LIMIT = 256

    #: Maximum retained samples per observed distribution; once full, the
    #: oldest samples roll off (count/sum/min/max stay exact).
    OBSERVE_LIMIT = 1024

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: dict[str, dict[str, float]] = {}
        self._counters: dict[str, int] = {}
        self._caches: dict[str, dict[str, int]] = {}
        self._events: list[dict[str, Any]] = []
        self._events_dropped = 0
        self._observations: dict[str, dict[str, Any]] = {}

    # ------------------------------------------------------------- spans

    def span(self, name: str) -> _Span:
        """Context manager timing one named region (nesting-aware)."""
        return _Span(self, str(name))

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name: str) -> None:
        self._stack().append(name)

    def _pop(self, name: str, dt: float) -> None:
        stack = self._stack()
        path = "/".join(stack)
        if stack and stack[-1] == name:
            stack.pop()
        with self._lock:
            rec = self._spans.get(path)
            if rec is None:
                rec = self._spans[path] = {"total_s": 0.0, "calls": 0}
            rec["total_s"] += dt
            rec["calls"] += 1

    # ----------------------------------------------------------- counters

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` (>= 0) to the monotonic counter ``name``."""
        if n < 0:
            raise ValueError(f"counters are monotonic; got increment {n}")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented).

        The serving and precision tests poll individual counters
        (``serving_bisections``, ``precision_probes``) between requests;
        a full :meth:`snapshot` per poll copies every span and event for
        no reason.
        """
        with self._lock:
            return self._counters.get(name, 0)

    def record_cache(self, name: str, **stats: int) -> None:
        """Store the latest stats (hits/misses/size/...) for cache ``name``."""
        with self._lock:
            self._caches[str(name)] = {k: int(v) for k, v in stats.items()}

    # ------------------------------------------------------------- events

    def event(self, name: str, **fields: Any) -> None:
        """Append a discrete event (JSON-serializable fields) to the log."""
        rec = {"event": str(name), **fields}
        with self._lock:
            self._events.append(rec)
            overflow = len(self._events) - self.EVENT_LIMIT
            if overflow > 0:
                del self._events[:overflow]
                self._events_dropped += overflow

    def events(self, name: str | None = None) -> list[dict[str, Any]]:
        """Recorded events, optionally filtered by event name."""
        with self._lock:
            evs = list(self._events)
        if name is None:
            return evs
        return [e for e in evs if e["event"] == name]

    # ------------------------------------------------------- distributions

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the value distribution ``name``.

        The serving tier feeds request latencies and chosen batch sizes
        through here; count/sum/min/max are exact over the whole stream
        while percentiles are computed over the latest ``OBSERVE_LIMIT``
        samples (a rolling window — recent behaviour is what an adaptive
        controller and an operator dashboard both want).
        """
        v = float(value)
        with self._lock:
            rec = self._observations.get(name)
            if rec is None:
                rec = self._observations[name] = {
                    "count": 0,
                    "sum": 0.0,
                    "min": v,
                    "max": v,
                    "samples": [],
                    "dropped": 0,
                }
            rec["count"] += 1
            rec["sum"] += v
            rec["min"] = min(rec["min"], v)
            rec["max"] = max(rec["max"], v)
            rec["samples"].append(v)
            overflow = len(rec["samples"]) - self.OBSERVE_LIMIT
            if overflow > 0:
                del rec["samples"][:overflow]
                rec["dropped"] += overflow

    def percentile(self, name: str, q: float) -> float | None:
        """The ``q``-th percentile (0-100) of the retained samples of
        ``name``, or ``None`` when nothing was observed."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            rec = self._observations.get(name)
            samples = sorted(rec["samples"]) if rec else []
        if not samples:
            return None
        # Nearest-rank on the sorted window: robust, no interpolation.
        rank = min(len(samples) - 1, max(0, int(round(q / 100.0 * (len(samples) - 1)))))
        return samples[rank]

    def observation(self, name: str) -> dict[str, Any] | None:
        """Summary (count/sum/mean/min/max/p50/p99) for ``name``."""
        with self._lock:
            rec = self._observations.get(name)
            if rec is None:
                return None
            count = rec["count"]
            summary = {
                "count": count,
                "sum": rec["sum"],
                "mean": rec["sum"] / count if count else 0.0,
                "min": rec["min"],
                "max": rec["max"],
                "dropped": rec["dropped"],
            }
        summary["p50"] = self.percentile(name, 50.0)
        summary["p99"] = self.percentile(name, 99.0)
        return summary

    # -------------------------------------------------------------- merge

    def merge(self, other: "Telemetry | Mapping[str, Any]") -> None:
        """Fold another sink (or a prior ``snapshot()``) into this one.

        The sharded executor and batched serving give every worker thread
        a *private* sink and merge at join — per-worker recording with a
        single locked update per shard, instead of contending on one lock
        at every span/counter in the hot loop.  Spans and counters
        accumulate; cache stats take the incoming (newer) snapshot; events
        append under the usual ``EVENT_LIMIT`` cap.
        """
        snap = other.snapshot() if isinstance(other, Telemetry) else dict(other)
        with self._lock:
            for path, rec in snap.get("spans", {}).items():
                mine = self._spans.get(path)
                if mine is None:
                    mine = self._spans[path] = {"total_s": 0.0, "calls": 0}
                mine["total_s"] += float(rec["total_s"])
                mine["calls"] += int(rec["calls"])
            for name, n in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(n)
            for name, stats in snap.get("caches", {}).items():
                self._caches[name] = dict(stats)
            events = snap.get("events", [])
            if events:
                self._events.extend(dict(e) for e in events)
                overflow = len(self._events) - self.EVENT_LIMIT
                if overflow > 0:
                    del self._events[:overflow]
                    self._events_dropped += overflow
            self._events_dropped += int(snap.get("events_dropped", 0))
            for name, rec in snap.get("observations", {}).items():
                mine = self._observations.get(name)
                if mine is None:
                    mine = self._observations[name] = {
                        "count": 0,
                        "sum": 0.0,
                        "min": float(rec["min"]),
                        "max": float(rec["max"]),
                        "samples": [],
                        "dropped": 0,
                    }
                mine["count"] += int(rec["count"])
                mine["sum"] += float(rec["sum"])
                mine["min"] = min(mine["min"], float(rec["min"]))
                mine["max"] = max(mine["max"], float(rec["max"]))
                mine["samples"].extend(float(v) for v in rec.get("samples", []))
                mine["dropped"] += int(rec.get("dropped", 0))
                overflow = len(mine["samples"]) - self.OBSERVE_LIMIT
                if overflow > 0:
                    del mine["samples"][:overflow]
                    mine["dropped"] += overflow

    # ----------------------------------------------------------- export

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable copy of everything recorded so far."""
        with self._lock:
            return {
                "spans": {
                    path: {"total_s": rec["total_s"], "calls": int(rec["calls"])}
                    for path, rec in sorted(self._spans.items())
                },
                "counters": dict(sorted(self._counters.items())),
                "caches": {k: dict(v) for k, v in sorted(self._caches.items())},
                "events": [dict(e) for e in self._events],
                "events_dropped": self._events_dropped,
                "observations": {
                    name: {
                        "count": rec["count"],
                        "sum": rec["sum"],
                        "min": rec["min"],
                        "max": rec["max"],
                        "samples": list(rec["samples"]),
                        "dropped": rec["dropped"],
                    }
                    for name, rec in sorted(self._observations.items())
                },
            }

    def stage_seconds(self) -> dict[str, float]:
        """Leaf-stage wall time: seconds per span path that has no children."""
        snap = self.snapshot()["spans"]
        paths = list(snap)
        out = {}
        for path in paths:
            prefix = path + "/"
            if not any(p.startswith(prefix) for p in paths):
                out[path] = snap[path]["total_s"]
        return out

    def reset(self) -> None:
        """Drop all recorded spans, counters, and cache stats."""
        with self._lock:
            self._spans.clear()
            self._counters.clear()
            self._caches.clear()
            self._events.clear()
            self._events_dropped = 0
            self._observations.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"Telemetry(spans={len(self._spans)}, "
                f"counters={len(self._counters)}, caches={len(self._caches)})"
            )


class NullTelemetry(Telemetry):
    """A telemetry sink that records nothing — the zero-overhead default.

    Every operation is a no-op; ``span`` hands back one shared, stateless
    context manager, so instrumented code paths cost a single attribute
    lookup when observability is disabled.
    """

    enabled = False

    def __init__(self) -> None:  # no lock, no dicts — nothing is stored
        pass

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def counter(self, name: str) -> int:
        return 0

    def record_cache(self, name: str, **stats: int) -> None:
        pass

    def merge(self, other: "Telemetry | Mapping[str, Any]") -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def events(self, name: str | None = None) -> list[dict[str, Any]]:
        return []

    def observe(self, name: str, value: float) -> None:
        pass

    def percentile(self, name: str, q: float) -> float | None:
        return None

    def observation(self, name: str) -> dict[str, Any] | None:
        return None

    def snapshot(self) -> dict[str, Any]:
        return {
            "spans": {},
            "counters": {},
            "caches": {},
            "events": [],
            "events_dropped": 0,
            "observations": {},
        }

    def stage_seconds(self) -> dict[str, float]:
        return {}

    def reset(self) -> None:
        pass


#: Shared process-wide null sink; ``telemetry or NULL_TELEMETRY`` is the
#: idiom instrumented call sites use to default to zero overhead.
NULL_TELEMETRY = NullTelemetry()


def telemetry_to_json(
    telemetry: Telemetry | Mapping[str, Any], indent: int | None = 2
) -> str:
    """Serialize a telemetry sink (or a prior ``snapshot()``) to JSON."""
    snap = (
        telemetry.snapshot() if isinstance(telemetry, Telemetry) else dict(telemetry)
    )
    return json.dumps(snap, indent=indent, sort_keys=True)
