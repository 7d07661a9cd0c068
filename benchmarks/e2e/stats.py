"""Statistics and accounting rules of the end-to-end benchmark.

Standard library only: the orchestrator, ``compare.py`` and the tests use
these without importing the program under test.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

#: Percentiles the benchmark may report as a tail, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A reported percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def _beyond(q: float) -> Fraction:
    return 1 - Fraction(str(q)) / 100


def min_samples(q: float) -> int:
    """Smallest sample count that leaves ``TAIL_SAMPLES`` beyond percentile ``q``."""
    return math.ceil(TAIL_SAMPLES / _beyond(q))


def supported_percentile(n: int) -> float | None:
    """The highest percentile in ``PERCENTILES`` with at least ten of ``n``
    samples beyond it, or ``None`` when even the median is unsupported."""
    best = None
    for q in PERCENTILES:
        if n * _beyond(q) >= TAIL_SAMPLES:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method); NaN for no
    samples, which the report drops as an unmeasured metric."""
    if not values:
        return math.nan
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median, with quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ------------------------------------------------------------- self time


def union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Mapping]) -> dict[int, int]:
    """Per span id: its duration minus the union of its children's intervals.

    Children clipped to the parent; overlapping children (e.g. two shard
    threads) are counted once, never summed.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.get("parent_id") is not None:
            children.setdefault(s["parent_id"], []).append(
                (s["start_ns"], s["end_ns"])
            )
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        kids = [
            (max(a, lo), min(b, hi))
            for a, b in children.get(s["span_id"], ())
            if min(b, hi) > max(a, lo)
        ]
        out[s["span_id"]] = (hi - lo) - union_ns(kids)
    return out


def self_ms_by_name(spans: Sequence[Mapping]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self time in ms."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        rec = out.setdefault(s["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        rec["calls"] += 1
        rec["total_ms"] += (s["end_ns"] - s["start_ns"]) / 1e6
        rec["self_ms"] += selfs[s["span_id"]] / 1e6
    return out


# ------------------------------------------------------------- failures


@dataclass
class Outcomes:
    """Ops attempted and how they failed; every failure kind counts."""

    attempted: int = 0
    wrong: int = 0
    errors: int = 0
    rejected: int = 0
    expired: int = 0

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.rejected + self.expired

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @classmethod
    def from_json(cls, d: Mapping[str, int]) -> "Outcomes":
        return cls(**{f.name: d[f.name] for f in fields(cls)})

    def add(self, other: "Outcomes") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_json(self) -> dict[str, int]:
        return {**asdict(self), "failed": self.failed}
