"""Serving failure-isolation tests: validation, deadlines, bisection, breaker.

One bad tenant must never become everyone's outage.  These tests drive
:class:`~repro.serving.StencilServer` through each isolation layer in
turn — malformed requests refused at admission, per-request deadlines
failing only their own future, bisection isolating an execution-time
poison while every healthy co-batched request still gets the bit-exact
serial answer, and the circuit breaker degrading the execution mode
under repeated worker crashes then climbing back after the cooldown.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil
from repro.errors import ServingError, WorkerCrashError
from repro.observability import Telemetry
from repro.robustness.guards import GuardPolicy
from repro.serving import CircuitBreaker, ServingConfig, StencilServer
import repro.serving.batcher as batcher_mod

SHAPE = (48, 48)


def _plan() -> FlashFFTStencil:
    return FlashFFTStencil(SHAPE, kz.heat_2d(), fused_steps=2)


def _run(coro):
    return asyncio.run(coro)


class TestValidation:
    def test_nonfinite_and_misshapen_grids_refused(self, rng):
        async def body():
            plan = _plan()
            async with StencilServer(plan, ServingConfig()) as srv:
                with pytest.raises(ServingError, match="non-finite"):
                    srv.submit_nowait(np.full(SHAPE, np.nan), 4)
                with pytest.raises(ServingError, match="shape"):
                    srv.submit_nowait(np.zeros((3, 3)), 4)
                with pytest.raises(ServingError, match="steps"):
                    srv.submit_nowait(rng.normal(size=SHAPE), -1)
                assert srv._admission.invalid == 3
                assert srv.health()["admission"]["invalid"] == 3

        _run(body())

    def test_step_ceiling(self, rng):
        async def body():
            plan = _plan()
            cfg = ServingConfig(max_steps=10)
            async with StencilServer(plan, cfg) as srv:
                with pytest.raises(ServingError, match="ceiling"):
                    srv.submit_nowait(rng.normal(size=SHAPE), 100)
                out = await srv.submit(rng.normal(size=SHAPE), 4)
                assert out.shape == SHAPE

        _run(body())

    def test_validation_can_be_disabled(self, rng):
        async def body():
            plan = _plan()
            cfg = ServingConfig(validate_requests=False)
            async with StencilServer(plan, cfg) as srv:
                # No content gate: the NaN grid is admitted and served
                # (garbage in, garbage out — the pre-isolation contract).
                out = await srv.submit(np.full(SHAPE, np.nan), 2)
                assert np.isnan(out).any()
                with pytest.raises(ServingError, match="steps"):
                    srv.submit_nowait(rng.normal(size=SHAPE), -1)

        _run(body())

    def test_config_validation(self):
        with pytest.raises(ServingError, match="request_timeout_ms"):
            ServingConfig(request_timeout_ms=0.0)
        with pytest.raises(ServingError, match="max_execution_retries"):
            ServingConfig(max_execution_retries=-1)
        with pytest.raises(ServingError, match="retry_backoff_factor"):
            ServingConfig(retry_backoff_factor=0.5)
        with pytest.raises(ServingError, match="breaker_threshold"):
            ServingConfig(breaker_threshold=0)
        with pytest.raises(ServingError, match="breaker_cooldown_s"):
            ServingConfig(breaker_cooldown_s=0.0)
        with pytest.raises(ServingError, match="max_steps"):
            ServingConfig(max_steps=-1)


class TestRequestDeadline:
    def test_expiry_fails_only_the_expired_request(self, rng):
        async def body():
            plan = _plan()
            cfg = ServingConfig(request_timeout_ms=30.0)
            async with StencilServer(plan, cfg) as srv:
                f = srv.submit_nowait(rng.normal(size=SHAPE), 4)
                # Hold the event loop past the 30 ms timeout, as a long
                # inline batch would: the request stays queued, and its
                # expiry lands in the turn the batch loop yields before
                # popping, so it is never executed.
                time.sleep(0.06)
                (r,) = await asyncio.gather(f, return_exceptions=True)
                assert isinstance(r, ServingError) and "expired" in str(r)
                assert srv.expired == 1
                assert srv.health()["expired"] == 1
            assert srv.served == 0  # stop() drained: it never ran

        _run(body())

    def test_served_request_cancels_its_timer(self, rng):
        async def body():
            plan = _plan()
            cfg = ServingConfig(max_batch=1, request_timeout_ms=10_000.0)
            async with StencilServer(plan, cfg) as srv:
                g = rng.normal(size=SHAPE)
                out = await srv.submit(g, 4)
                assert np.array_equal(out, plan.run(g, 4))
                assert srv.expired == 0

        _run(body())


class TestBisection:
    def test_poison_isolated_healthy_bit_identical(self, rng):
        async def body():
            plan = _plan()
            tel = Telemetry()
            cfg = ServingConfig(
                max_batch=8,
                max_execution_retries=0,
                guards=GuardPolicy(),
                inline_below_ms=0.0,
            )
            async with StencilServer(plan, cfg, telemetry=tel) as srv:
                grids = [rng.normal(size=SHAPE) for _ in range(5)]
                # Finite at admission, overflows to inf mid-run: only the
                # output guards + bisection can catch this one.
                poison = np.full(SHAPE, 1e300)
                futs = [srv.submit_nowait(g, 4) for g in grids[:2]]
                pf = srv.submit_nowait(poison, 4)
                futs += [srv.submit_nowait(g, 4) for g in grids[2:]]
                results = await asyncio.gather(*futs, return_exceptions=True)
                (perr,) = await asyncio.gather(pf, return_exceptions=True)
                assert isinstance(perr, Exception)
                for g, r in zip(grids, results):
                    assert not isinstance(r, Exception)
                    assert np.array_equal(r, plan.run(g, 4))
                h = srv.health()
                assert h["poisoned"] == 1
                assert h["bisections"] >= 1
                assert tel.counter("serving_poisoned_requests") == 1
                assert tel.counter("serving_bisections") >= 1

        _run(body())


class TestBreaker:
    def test_unit_ladder_trip_probe_recover(self):
        t = {"now": 0.0}
        br = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=lambda: t["now"])
        assert br.mode() == "processes"
        assert br.record_failure() is False
        assert br.record_failure() is True  # trip
        assert br.mode() == "threads"
        assert br.health()["degraded"]
        t["now"] = 6.0
        assert br.mode() == "processes"  # half-open probe armed
        assert br.health()["probing"]
        br.record_failure()  # probe fails: back to threads, cooldown re-armed
        assert br.mode() == "threads"
        t["now"] = 12.0
        assert br.mode() == "processes"
        br.record_success()
        assert br.mode() == "processes"
        assert br.health() == {
            "mode": "processes",
            "level": 0,
            "degraded": False,
            "probing": False,
            "consecutive_failures": 0,
            "cooldown_remaining_s": None,
            "trips": 1,
            "probes": 2,
            "recoveries": 1,
        }

    def test_failed_probe_does_not_count_toward_threshold(self):
        t = {"now": 0.0}
        br = CircuitBreaker(threshold=2, cooldown_s=1.0, clock=lambda: t["now"])
        br.record_failure()
        br.record_failure()
        assert br.mode() == "threads"
        for i in range(5):  # five failed probes must not trip to serial
            t["now"] += 2.0
            assert br.mode() == "processes"
            br.record_failure()
        assert br.health()["mode"] == "threads"
        assert br.trips == 1

    def test_server_degrades_then_recovers(self, rng, monkeypatch):
        async def body():
            plan = _plan()
            tel = Telemetry()
            cfg = ServingConfig(
                breaker_threshold=2,
                breaker_cooldown_s=0.2,
                max_execution_retries=3,
                retry_backoff_ms=0.0,
                inline_below_ms=0.0,
            )
            real = batcher_mod.serve_batch
            state = {"crashes": 0}
            calls = []

            def flaky(plan_, grids, steps, **kw):
                calls.append(kw["processes"])
                if state["crashes"] < 2:
                    state["crashes"] += 1
                    raise WorkerCrashError(
                        "synthetic pool crash", ranks=(0,), restarts=1
                    )
                return real(plan_, grids, steps, **kw)

            monkeypatch.setattr(batcher_mod, "serve_batch", flaky)
            async with StencilServer(plan, cfg, telemetry=tel) as srv:
                g = rng.normal(size=SHAPE)
                out = await srv.submit(g, 4)
                assert np.array_equal(out, plan.run(g, 4))
                h = srv.health()
                assert h["breaker"]["trips"] == 1
                assert h["breaker"]["mode"] == "threads"
                assert h["execution_retries"] == 2
                await asyncio.sleep(0.25)  # cooldown elapses -> probe
                out2 = await srv.submit(g, 4)
                assert np.array_equal(out2, plan.run(g, 4))
                h2 = srv.health()
                assert h2["breaker"]["mode"] == "processes"
                assert h2["breaker"]["recoveries"] == 1
            # Call 3 ran post-trip in threads mode (processes forced to 1);
            # the probe after cooldown ran at full capability again.
            assert calls[2] == 1
            assert calls[3] is None
            assert tel.counter("breaker_trips") == 1
            assert tel.counter("serving_worker_crashes") == 2

        _run(body())

    def test_data_errors_do_not_trip_breaker(self, rng):
        async def body():
            plan = _plan()
            cfg = ServingConfig(
                max_batch=4,
                max_execution_retries=0,
                guards=GuardPolicy(),
                inline_below_ms=0.0,
                breaker_threshold=1,
            )
            async with StencilServer(plan, cfg) as srv:
                pf = srv.submit_nowait(np.full(SHAPE, 1e300), 4)
                (perr,) = await asyncio.gather(pf, return_exceptions=True)
                assert isinstance(perr, Exception)
                # A poisoned request is a data failure: even at
                # threshold=1 the execution mode must not degrade.
                assert srv.health()["breaker"]["mode"] == "processes"
                assert srv.health()["breaker"]["trips"] == 0

        _run(body())


class TestHealthSnapshot:
    def test_health_is_readonly_and_complete(self, rng):
        async def body():
            plan = _plan()
            async with StencilServer(plan, ServingConfig()) as srv:
                g = rng.normal(size=SHAPE)
                await srv.submit(g, 4)
                h = srv.health()
                for key in (
                    "running", "draining", "breaker", "pending", "inflight",
                    "batches", "served", "expired", "poisoned", "bisections",
                    "execution_retries", "admission",
                ):
                    assert key in h
                assert h["running"] and h["served"] == 1
                # health() must not arm a breaker probe (mode() does).
                assert not h["breaker"]["probing"]

        _run(body())
