"""In-memory span recorder for the traced run.

Spans wrap public calls made from benchmark code only.  They are kept in
memory and written as JSON lines once, when the traced run ends, so no
file I/O happens while anything is being timed.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator


@dataclass
class OpenSpan:
    """A span still being timed: its ids, and attributes to record with it."""

    trace_id: int
    span_id: int
    attrs: dict[str, Any]


class Tracer:
    """Collects ``{trace_id, span_id, parent_id, name, start_ns, end_ns,
    thread, attrs}`` records."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)

    def new_trace(self) -> int:
        return next(self._traces)

    def new_span_id(self) -> int:
        return next(self._ids)

    def add(
        self,
        name: str,
        trace_id: int,
        start_ns: int,
        end_ns: int,
        parent_id: int | None = None,
        span_id: int | None = None,
        **attrs: Any,
    ) -> int:
        """Record a finished span (for intervals timed by the caller)."""
        sid = span_id if span_id is not None else self.new_span_id()
        rec = {
            "trace_id": trace_id,
            "span_id": sid,
            "parent_id": parent_id,
            "name": name,
            "start_ns": int(start_ns),
            "end_ns": int(end_ns),
            "thread": threading.current_thread().name,
            "attrs": attrs,
        }
        self.spans.append(rec)
        return sid

    @contextmanager
    def span(
        self, name: str, trace_id: int | None = None, parent_id: int | None = None,
        **attrs: Any,
    ) -> Iterator[OpenSpan]:
        """Time the ``with`` body; attributes added to ``.attrs`` are kept."""
        sp = OpenSpan(
            trace_id if trace_id is not None else self.new_trace(),
            self.new_span_id(),
            dict(attrs),
        )
        start = time.perf_counter_ns()
        try:
            yield sp
        finally:
            self.add(
                name, sp.trace_id, start, time.perf_counter_ns(), parent_id,
                sp.span_id, **sp.attrs,
            )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
