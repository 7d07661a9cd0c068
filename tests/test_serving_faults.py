"""Serving failure-isolation tests: validation, deadlines, bisection.

One bad tenant must never become everyone's outage.  These tests drive
:class:`~repro.serving.StencilServer` through each isolation layer in
turn — malformed requests refused at admission, per-request deadlines
failing only their own future, and bisection isolating an execution-time
poison while every healthy co-batched request still gets the bit-exact
serial answer.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil
from repro.errors import NumericalError, ServingError
from repro.observability import Telemetry
from repro.robustness.guards import GuardPolicy
from repro.serving import ServingConfig, StencilServer
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
        with pytest.raises(ServingError, match="max_steps"):
            ServingConfig(max_steps=-1)
        with pytest.raises(ServingError, match="max_batch"):
            ServingConfig(max_batch=0)
        with pytest.raises(ServingError, match="inline_below_ms"):
            ServingConfig(inline_below_ms=-1.0)
        with pytest.raises(ServingError, match="ewma_alpha"):
            ServingConfig(ewma_alpha=0.0)


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


    def test_failed_request_runs_once(self, rng, monkeypatch):
        async def body():
            plan = _plan()
            cfg = ServingConfig(inline_below_ms=0.0)
            calls = []

            def failing(plan_, grids, steps, **kw):
                calls.append(len(grids))
                raise NumericalError("synthetic execution failure")

            monkeypatch.setattr(batcher_mod, "serve_batch", failing)
            async with StencilServer(plan, cfg) as srv:
                (err,) = await asyncio.gather(
                    srv.submit_nowait(rng.normal(size=SHAPE), 4),
                    return_exceptions=True,
                )
                assert isinstance(err, NumericalError)
                # A lone request has nothing to bisect: it fails with the
                # execution error after exactly one dispatch.
                assert calls == [1]
                assert srv.health()["poisoned"] == 1

        _run(body())


class TestHealthSnapshot:
    def test_health_is_readonly_and_complete(self, rng):
        async def body():
            plan = _plan()
            async with StencilServer(plan, ServingConfig()) as srv:
                g = rng.normal(size=SHAPE)
                await srv.submit(g, 4)
                h = srv.health()
                assert set(h) == {
                    "running", "draining", "pending", "inflight", "batches",
                    "served", "expired", "poisoned", "bisections", "admission",
                }
                assert h["running"] and h["served"] == 1
                # Reading health twice changes nothing.
                assert srv.health() == h

        _run(body())
