"""Open-loop request generator for the serving workload.

All load comes from the event loop of the process under test: the
generator is one coroutine that sleeps until each request is due and
submits it, adding no threads.  Latency runs from the due time, not the
send time, so a stall that delays later sends is charged to them.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from repro import ServingError, StencilServer

from spans import Tracer
from spec import SERVE_TOLERANCE, SLO_P99_MS, Requests, rel_err
from stats import Outcomes


@dataclass
class PhaseResult:
    """What one fixed-rate phase measured."""

    rate: float
    lat_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    submit_us: list[float] = field(default_factory=list)
    outcomes: Outcomes = field(default_factory=Outcomes)
    #: Requests still unanswered when the last one was sent.
    backlog: int = 0


async def open_loop(
    server: StencilServer,
    reqs: Requests,
    pool: list[np.ndarray],
    oracle: dict[tuple[int, int], np.ndarray],
    rate: float,
    tracer: Tracer | None = None,
) -> PhaseResult:
    """Send ``reqs`` at their due times and check every answer.

    An exact answer must equal ``oracle[(grid, steps)]`` bit for bit; a
    tolerance-routed one must lie within its tolerance of it.  Wrong
    answers, exceptions, admission rejections and expiries all count as
    failed.
    """
    res = PhaseResult(rate)
    out = res.outcomes
    expired0 = server.expired
    answered = 0

    def on_done(i: int, due: float, span: tuple[int, int] | None, fut) -> None:
        nonlocal answered
        t_done = time.perf_counter()
        answered += 1
        if sent_all and answered == submitted:
            finished.set()
        if fut.cancelled() or fut.exception() is not None:
            out.errors += 1
            return
        key = (int(reqs.grid[i]), int(reqs.steps[i]))
        got = fut.result()
        if reqs.tolerant[i]:
            ok = rel_err(got, oracle[key]) <= SERVE_TOLERANCE
        else:
            ok = np.array_equal(got, oracle[key])
        if not ok:
            out.wrong += 1
            return
        res.lat_ms.append((t_done - due) * 1e3)
        if span is not None:
            trace_id, span_id = span
            tracer.add(
                "serving.request", trace_id, int(due * 1e9), int(t_done * 1e9),
                span_id=span_id, steps=key[1], tolerant=bool(reqs.tolerant[i]),
            )

    # Futures are not kept: holding every answer would charge the
    # generator's memory to the program's peak RSS.
    submitted = 0
    sent_all = False
    finished = asyncio.Event()
    t0 = time.perf_counter() + 0.005
    for i in range(len(reqs)):
        due = t0 + float(reqs.due_s[i])
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        t_send = time.perf_counter()
        res.late_ms.append((t_send - due) * 1e3)
        out.attempted += 1
        try:
            fut = server.submit_nowait(
                pool[int(reqs.grid[i])],
                int(reqs.steps[i]),
                tenant=f"t{int(reqs.tenant[i])}",
                tolerance=SERVE_TOLERANCE if reqs.tolerant[i] else None,
            )
        except ServingError:
            out.rejected += 1
            continue
        t_sent = time.perf_counter()
        res.submit_us.append((t_sent - t_send) * 1e6)
        span = None
        if tracer is not None:
            trace_id, span_id = tracer.new_trace(), tracer.new_span_id()
            tracer.add(
                "serving.submit", trace_id, int(t_send * 1e9), int(t_sent * 1e9),
                parent_id=span_id,
            )
            span = (trace_id, span_id)
        fut.add_done_callback(functools.partial(on_done, i, due, span))
        submitted += 1
    res.backlog = submitted - answered
    sent_all = True
    if answered < submitted:
        await finished.wait()
    out.expired = server.expired - expired0
    # An expiry surfaces as an exception on the future; count it once.
    out.errors -= out.expired
    return res


def drained(res: PhaseResult) -> bool:
    """No growing queue: the backlog when the last request went out is at
    most one latency limit's worth of arrivals."""
    return res.backlog <= res.rate * SLO_P99_MS / 1e3
