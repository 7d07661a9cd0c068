"""Throughput engine: sharding, FFT backends, batched serving, arenas.

Covers the four layers of ``repro.parallel``:

* backend registry — resolution rules, env override, numerical agreement;
* sharded execution — bit-equivalence with the serial path across
  dimensionality, boundary, ragged tiling, and worker counts; telemetry
  counter integrity under concurrent shards;
* batched multi-grid serving — ``apply_many``/``run_many`` equivalence
  with per-grid loops, Double-layer packing (including odd batch sizes),
  aliasing rejection;
* workspace arenas — geometry checks, pooled reuse correctness, and the
  zero-retained-allocation steady state (tracemalloc).
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil
from repro.errors import PlanError
from repro.observability import Telemetry
from repro.parallel import (
    FFTBackend,
    NumpyFFTBackend,
    ScipyFFTBackend,
    ShardedExecutor,
    WorkspaceArena,
    available_backends,
    choose_workers,
    get_backend,
    register_backend,
)
from repro.parallel.backends import BACKEND_ENV
from repro.parallel.sharding import MIN_POINTS_PER_WORKER, WORKERS_ENV


# --------------------------------------------------------------- backends


class TestBackendRegistry:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert get_backend().name == "numpy"
        assert get_backend(None).name == "numpy"

    def test_instance_passthrough(self):
        be = NumpyFFTBackend()
        assert get_backend(be) is be

    def test_name_and_worker_suffix(self):
        assert get_backend("numpy").name == "numpy"
        sp = get_backend("scipy:3")
        assert isinstance(sp, ScipyFFTBackend)
        assert sp.workers == 3
        assert get_backend("scipy:-1").workers == -1
        assert get_backend("scipy").workers is None

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "scipy:2")
        be = get_backend()
        assert be.name == "scipy" and be.workers == 2

    def test_unknown_backend_raises(self):
        with pytest.raises(PlanError, match="unknown FFT backend"):
            get_backend("cufft")

    def test_bad_worker_suffix_raises(self):
        with pytest.raises(PlanError, match="worker suffix"):
            get_backend("scipy:many")

    def test_available_backends(self):
        names = available_backends()
        assert "numpy" in names and "scipy" in names

    def test_register_custom_backend(self):
        class Tagged(NumpyFFTBackend):
            name = "tagged"

        register_backend("tagged", lambda workers=None: Tagged())
        try:
            assert get_backend("tagged").name == "tagged"
        finally:
            # keep the registry clean for other tests
            from repro.parallel import backends as _b

            with _b._registry_lock:
                _b._REGISTRY.pop("tagged", None)

    @pytest.mark.parametrize("spec", ["scipy", "scipy:2"])
    def test_scipy_agrees_with_numpy(self, rng, spec):
        g = rng.standard_normal((40, 36))
        ref = FlashFFTStencil(g.shape, kz.heat_2d(), fused_steps=4)
        alt = FlashFFTStencil(g.shape, kz.heat_2d(), fused_steps=4, backend=spec)
        assert alt.backend.name == "scipy"
        np.testing.assert_allclose(alt.apply(g), ref.apply(g), atol=1e-12, rtol=0)

    def test_plan_env_backend(self, rng, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "scipy")
        g = rng.standard_normal(128)
        plan = FlashFFTStencil(g.shape, kz.heat_1d(), fused_steps=4)
        assert plan.backend.name == "scipy"
        ref = FlashFFTStencil(
            g.shape, kz.heat_1d(), fused_steps=4, backend="numpy"
        )
        np.testing.assert_allclose(
            plan.run(g, 12), ref.run(g, 12), atol=1e-12, rtol=0
        )


# --------------------------------------------------------------- sharding


class TestChooseWorkers:
    def test_requested_wins(self):
        assert choose_workers(1000, 3) == 3

    def test_requested_must_be_positive(self):
        with pytest.raises(PlanError):
            choose_workers(100, 0)

    def test_small_plans_run_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert choose_workers(4) == 1
        assert choose_workers(MIN_POINTS_PER_WORKER - 1) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert choose_workers(10_000) == 5

    def test_autotune_respects_point_floor(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        # 2.5 floors' worth of window points keeps at most 2 workers.
        assert choose_workers(5 * MIN_POINTS_PER_WORKER // 2) <= 2

    def test_points_not_windows(self, monkeypatch):
        # One huge window still shards: what counts is the work per worker.
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr("repro.parallel.sharding.cpu_count", lambda: 4)
        assert choose_workers(128**3) == 4


SHARD_CASES = [
    # (grid_shape, kernel_factory, boundary, tile)
    ((4096,), kz.heat_1d, "periodic", 128),
    ((4096,), kz.heat_1d, "zero", 128),
    ((4099,), kz.star_1d5p, "periodic", 130),  # ragged remainder tiles
    ((96, 80), kz.heat_2d, "periodic", (24, 20)),
    ((96, 80), kz.box_2d9p, "zero", (24, 20)),
    ((97, 83), kz.heat_2d, "periodic", (24, 20)),  # ragged in both axes
    ((24, 20, 28), kz.heat_3d, "periodic", (12, 10, 14)),
    ((24, 20, 28), kz.box_3d27p, "zero", (12, 10, 14)),
]


def _case_id(case):
    shape, kf, boundary, _ = case
    return f"{len(shape)}d-{kf.__name__}-{boundary}"


class TestShardedEquivalence:
    @pytest.mark.parametrize("case", SHARD_CASES, ids=_case_id)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_bit_identical_to_serial(self, rng, case, workers):
        shape, kf, boundary, tile = case
        g = rng.standard_normal(shape)
        serial = FlashFFTStencil(
            shape, kf(), fused_steps=4, boundary=boundary, tile=tile, workers=1
        )
        sharded = FlashFFTStencil(
            shape,
            kf(),
            fused_steps=4,
            boundary=boundary,
            tile=tile,
            workers=workers,
        )
        assert np.array_equal(serial.apply(g), sharded.apply(g))
        assert np.array_equal(serial.run(g, 11), sharded.run(g, 11))

    def test_deterministic_across_worker_counts(self, rng):
        g = rng.standard_normal((96, 80))
        results = []
        for w in (1, 2, 3, 4):
            plan = FlashFFTStencil(
                g.shape, kz.heat_2d(), fused_steps=4, tile=(24, 20), workers=w
            )
            results.append(plan.run(g, 13))
        for r in results[1:]:
            assert np.array_equal(results[0], r)

    def test_workers_capped_by_first_axis_tiles(self):
        plan = FlashFFTStencil(
            (96, 80), kz.heat_2d(), fused_steps=4, tile=(48, 20), workers=16
        )
        ex = plan._shard_executor
        assert ex is not None
        # only 2 first-axis tiles exist -> at most 2 shards
        assert ex.num_shards <= 2

    def test_sharded_rejects_aliased_out(self, rng):
        g = rng.standard_normal(4096)
        plan = FlashFFTStencil(
            g.shape, kz.heat_1d(), fused_steps=4, tile=128, workers=2
        )
        ex = plan._shard_executor
        assert ex is not None
        with pytest.raises(PlanError, match="alias"):
            ex.apply(g, out=g)

    def test_plan_apply_inplace_falls_back_serial(self, rng):
        """`apply(g, out=g)` must stay correct even on a sharded plan."""
        g = rng.standard_normal(4096)
        expect = FlashFFTStencil(
            g.shape, kz.heat_1d(), fused_steps=4, tile=128, workers=1
        ).apply(g)
        plan = FlashFFTStencil(
            g.shape, kz.heat_1d(), fused_steps=4, tile=128, workers=2
        )
        buf = g.copy()
        res = plan.apply(buf, out=buf)
        assert res is buf
        assert np.array_equal(res, expect)

    def test_sharded_telemetry_counters(self, rng):
        g = rng.standard_normal(4096)
        plan = FlashFFTStencil(
            g.shape, kz.heat_1d(), fused_steps=4, tile=128, workers=2
        )
        tel = Telemetry()
        plan.apply(g, telemetry=tel)
        snap = tel.snapshot()
        assert snap["counters"]["applications"] == 1
        assert snap["counters"]["sharded_applies"] == 1
        assert snap["counters"]["shard_tasks"] >= 2
        assert snap["counters"]["windows"] == plan.segments.total_segments
        # per-worker spans merged at join: every stage shows up
        for stage in ("split", "fuse", "stitch"):
            assert stage in snap["spans"]
        assert snap["caches"]["sharding"]["workers"] == 2

    def test_counters_are_logical_under_sharding(self, rng):
        """One FFT batch per application whatever the shard count; the
        per-shard work is ``shard_tasks``."""
        g = rng.standard_normal((64, 64))
        plan = FlashFFTStencil(
            g.shape, kz.heat_2d(), fused_steps=2, tile=(16, 16), workers=2
        )
        shards = plan._shard_executor.num_shards
        assert shards == 2
        for resident in (False, True):
            tel = Telemetry()
            plan.run(g, 6, telemetry=tel, resident=resident, processes=1)
            c = tel.snapshot()["counters"]
            assert c["applications"] == 3
            assert c["fft_batches"] == c["applications"]
            assert c["shard_tasks"] == shards * c["applications"]

    def test_sharded_stage_spans_are_wall_clock(self, rng):
        """One wall span per phase around the join; per-shard durations
        are observations, so spans never sum past wall time."""
        g = rng.standard_normal((64, 64))
        plan = FlashFFTStencil(
            g.shape, kz.heat_2d(), fused_steps=2, tile=(16, 16), workers=2
        )
        tel = Telemetry()
        plan.apply(g, telemetry=tel)
        snap = tel.snapshot()
        for stage in ("split", "fuse", "stitch"):
            assert snap["spans"][stage]["calls"] == 1
            assert tel.observation(f"shard_{stage}_s")["count"] == 2

    def test_concurrent_runs_share_one_plan(self, rng):
        """Satellite (b): concurrent callers on one plan stay correct and
        telemetry counters stay exact under sharded execution."""
        g = rng.standard_normal((96, 80))
        plan = FlashFFTStencil(
            g.shape, kz.heat_2d(), fused_steps=4, tile=(24, 20), workers=2
        )
        expect = FlashFFTStencil(
            g.shape, kz.heat_2d(), fused_steps=4, tile=(24, 20), workers=1
        ).run(g, 12)
        tel = Telemetry()
        results: list[np.ndarray] = [None] * 6  # type: ignore[list-item]
        errors: list[BaseException] = []

        def worker(i: int) -> None:
            try:
                results[i] = plan.run(g, 12, telemetry=tel)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for r in results:
            assert np.array_equal(r, expect)
        assert tel.snapshot()["counters"]["applications"] == 6 * 3


class TestTelemetryMerge:
    def test_merge_accumulates(self):
        a, b = Telemetry(), Telemetry()
        a.count("x", 2)
        b.count("x", 3)
        b.count("y", 1)
        with b.span("fuse"):
            pass
        b.event("boom", detail=1)
        b.record_cache("c", hits=4)
        a.merge(b)
        snap = a.snapshot()
        assert snap["counters"]["x"] == 5
        assert snap["counters"]["y"] == 1
        assert snap["spans"]["fuse"]["calls"] == 1
        assert snap["caches"]["c"]["hits"] == 4
        assert len(a.events("boom")) == 1

    def test_merge_accepts_snapshot_mapping(self):
        a, b = Telemetry(), Telemetry()
        b.count("x", 7)
        a.merge(b.snapshot())
        assert a.snapshot()["counters"]["x"] == 7


# ------------------------------------------------------- batched serving


class TestApplyMany:
    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_matches_per_grid_apply(self, rng, boundary):
        plan = FlashFFTStencil(
            (48, 40), kz.heat_2d(), fused_steps=3, boundary=boundary, tile=(24, 20)
        )
        gs = [rng.standard_normal((48, 40)) for _ in range(5)]
        batched = plan.apply_many(gs)
        assert batched.shape == (5, 48, 40)
        for g, b in zip(gs, batched):
            assert np.array_equal(plan.apply(g), b)

    def test_accepts_stacked_array(self, rng):
        plan = FlashFFTStencil(128, kz.heat_1d(), fused_steps=4, tile=32)
        stack = rng.standard_normal((4, 128))
        batched = plan.apply_many(stack)
        for g, b in zip(stack, batched):
            assert np.array_equal(plan.apply(g), b)

    def test_rejects_empty_and_bad_shapes(self, rng):
        plan = FlashFFTStencil(128, kz.heat_1d(), fused_steps=2, tile=32)
        with pytest.raises(PlanError, match="at least one grid"):
            plan.apply_many([])
        with pytest.raises(PlanError, match="shape"):
            plan.apply_many([rng.standard_normal(64)])

    def test_rejects_out_aliasing_input(self, rng):
        plan = FlashFFTStencil(128, kz.heat_1d(), fused_steps=2, tile=32)
        stack = rng.standard_normal((3, 128))
        with pytest.raises(PlanError, match="alias"):
            plan.apply_many(list(stack), out=stack)

    @pytest.mark.parametrize("batch", [2, 5, 8])
    def test_double_layer_close_to_real_path(self, rng, batch):
        plan = FlashFFTStencil(
            (48, 40), kz.heat_2d(), fused_steps=3, tile=(24, 20)
        )
        gs = [rng.standard_normal((48, 40)) for _ in range(batch)]
        real = plan.apply_many(gs)
        packed = plan.apply_many(gs, double_layer=True)
        np.testing.assert_allclose(packed, real, atol=1e-12, rtol=0)

    def test_telemetry_counts_grids(self, rng):
        plan = FlashFFTStencil(128, kz.heat_1d(), fused_steps=2, tile=32)
        tel = Telemetry()
        plan.apply_many([rng.standard_normal(128) for _ in range(3)], telemetry=tel)
        snap = tel.snapshot()
        assert snap["counters"]["grids_served"] == 3
        assert snap["counters"]["batched_applies"] == 1
        assert snap["counters"]["fft_batches"] == 1


class TestRunMany:
    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    @pytest.mark.parametrize("total_steps", [0, 4, 13])
    def test_matches_per_grid_run(self, rng, boundary, total_steps):
        plan = FlashFFTStencil(
            (48, 40), kz.heat_2d(), fused_steps=4, boundary=boundary, tile=(24, 20)
        )
        gs = [rng.standard_normal((48, 40)) for _ in range(4)]
        batched = plan.run_many(gs, total_steps)
        for g, b in zip(gs, batched):
            assert np.array_equal(plan.run(g, total_steps), b)

    @pytest.mark.parametrize("batch", [3, 8])  # odd B exercises the tail grid
    def test_double_layer_run(self, rng, batch):
        plan = FlashFFTStencil(128, kz.heat_1d(), fused_steps=4, tile=32)
        gs = [rng.standard_normal(128) for _ in range(batch)]
        batched = plan.run_many(gs, 13, double_layer=True)
        for g, b in zip(gs, batched):
            np.testing.assert_allclose(plan.run(g, 13), b, atol=1e-12, rtol=0)

    def test_grid_axis_sharding_matches_serial(self, rng):
        plan = FlashFFTStencil(128, kz.heat_1d(), fused_steps=4, tile=32)
        gs = [rng.standard_normal(128) for _ in range(7)]
        serial = plan.run_many(gs, 12, workers=1)
        sharded = plan.run_many(gs, 12, workers=3)
        assert np.array_equal(serial, sharded)

    def test_negative_steps_rejected(self, rng):
        plan = FlashFFTStencil(128, kz.heat_1d(), fused_steps=2, tile=32)
        with pytest.raises(PlanError):
            plan.run_many([rng.standard_normal(128)], -1)


# ----------------------------------------------------------------- arenas


class TestWorkspaceArena:
    def test_geometry_check(self):
        p1 = FlashFFTStencil((48, 40), kz.heat_2d(), fused_steps=3, tile=(24, 20))
        p2 = FlashFFTStencil((48, 40), kz.heat_2d(), fused_steps=3, tile=(48, 20))
        arena = WorkspaceArena(p1.segments)
        assert arena.fits(p1.segments)
        assert not arena.fits(p2.segments)
        assert not arena.fits(p1.segments, batch=2)
        assert arena.nbytes() >= arena.windows.nbytes

    def test_zero_boundary_border_stays_zero(self, rng):
        plan = FlashFFTStencil(
            (48, 40), kz.heat_2d(), fused_steps=3, boundary="zero", tile=(24, 20)
        )
        g = rng.standard_normal((48, 40))
        first = plan.apply(g)
        # repeated applications through the pooled arena must not see stale
        # border values from earlier calls
        for _ in range(3):
            again = plan.apply(rng.standard_normal((48, 40)))
        assert np.array_equal(plan.apply(g), first)
        assert again.shape == g.shape

    def test_arena_reuse_is_bitwise_stable(self, rng):
        plan = FlashFFTStencil(128, kz.heat_1d(), fused_steps=4, tile=32)
        g = rng.standard_normal(128)
        ref = plan.apply(g)
        for _ in range(5):
            assert np.array_equal(plan.apply(g), ref)

    def test_arena_disabled_still_correct(self, rng):
        g = rng.standard_normal((48, 40))
        on = FlashFFTStencil((48, 40), kz.heat_2d(), fused_steps=3, tile=(24, 20))
        off = FlashFFTStencil(
            (48, 40), kz.heat_2d(), fused_steps=3, tile=(24, 20), arena=False
        )
        assert off._arena_acquire() is None
        assert np.array_equal(on.apply(g), off.apply(g))

    def test_pool_caps_retained_arenas(self):
        plan = FlashFFTStencil(128, kz.heat_1d(), fused_steps=2, tile=32)
        arenas = [plan._arena_acquire() for _ in range(4)]
        for a in arenas:
            plan._arena_release(a)
        assert len(plan._arena_pool) == plan._ARENA_POOL_MAX

    def test_steady_state_run_retains_no_memory(self, rng):
        """Acceptance criterion: zero *retained* per-application allocation
        in the steady state (FFT transients are freed within the call)."""
        g = rng.standard_normal(4096)
        plan = FlashFFTStencil(
            g.shape, kz.heat_1d(), fused_steps=8, tile=128, workers=1
        )
        # Warm every lazy cache: plan artifacts, arena pool, tail plan.
        plan.run(g, 20)
        plan.run(g, 20)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(5):
                plan.run(g, 20)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(s.size_diff for s in after.compare_to(before, "filename"))
        # Net retained growth should be far below one grid (32 KiB here);
        # allow slack for allocator/tracemalloc bookkeeping noise.
        assert retained < g.nbytes // 2, f"retained {retained} bytes"
