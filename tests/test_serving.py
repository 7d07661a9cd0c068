"""Tests for the serving front-end (``repro.serving``) and its bugfix riders.

Covers the tentpole — the asyncio micro-batcher with DRR tenant fairness,
admission control, and the persistent plan/spectrum disk cache — plus the
PR's bugfix satellites: atomic self-healing disk checkpoints, strict
boolean env parsing, and checkpoint dtype round-trips.  The acceptance
anchors:

* batched serving is **bit-identical** to a per-request ``run()`` loop;
* dispatch is work-conserving: a lone request runs on the next loop
  turn, and arrivals during a batch form the next batch;
* no tenant starves under deficit round-robin;
* a fresh *spawned* process warm-starts planning from the disk cache;
* admission rejections are typed ``ServingError`` and counted;
* a truncated newest checkpoint restores from the next-older snapshot;
* ``REPRO_RESIDENT=ture`` raises ``PlanError`` instead of silently
  disabling residency.
"""

from __future__ import annotations

import asyncio
import multiprocessing

import numpy as np
import pytest

from repro.core.kernels import heat_1d, heat_2d, spectrum_cache_clear
from repro.core.plan import FlashFFTStencil, plan_cache_clear, resident_default
from repro.envutil import env_flag
from repro.errors import CheckpointError, PlanError, ServingError
from repro.observability import Telemetry
from repro.parallel.batch import serve_batch
from repro.robustness import DiskCheckpointStore, MemoryCheckpointStore
from repro.serving import (
    AdmissionController,
    DeficitRoundRobin,
    PlanDiskCache,
    ServingConfig,
    StencilServer,
)


@pytest.fixture
def plan():
    return FlashFFTStencil((192,), heat_1d(), fused_steps=6)


def _grids(rng, n, shape=(192,)):
    return [rng.standard_normal(shape) for _ in range(n)]


# =========================================================================
# Satellite: strict boolean env parsing
# =========================================================================


class TestEnvFlagStrict:
    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "TRUE", " Yes "])
    def test_truthy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG") is True

    @pytest.mark.parametrize("raw", ["0", "false", "no", "off", "OFF", " no "])
    def test_falsy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG") is False

    def test_unset_and_blank_are_false(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG") is False
        monkeypatch.setenv("REPRO_TEST_FLAG", "   ")
        assert env_flag("REPRO_TEST_FLAG") is False

    @pytest.mark.parametrize("raw", ["ture", "2", "enabled", "tru"])
    def test_typo_raises_naming_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        with pytest.raises(PlanError, match="REPRO_TEST_FLAG"):
            env_flag("REPRO_TEST_FLAG")

    def test_resident_default_regression_typo(self, monkeypatch):
        # The original bug: REPRO_RESIDENT=ture silently parsed as False,
        # so the user's residency opt-in never took effect.
        monkeypatch.setenv("REPRO_RESIDENT", "ture")
        with pytest.raises(PlanError, match="REPRO_RESIDENT"):
            resident_default()

    def test_run_surfaces_env_typo(self, monkeypatch, plan, rng):
        monkeypatch.setenv("REPRO_RESIDENT", "ture")
        with pytest.raises(PlanError, match="REPRO_RESIDENT"):
            plan.run(rng.standard_normal(192), 12)


# =========================================================================
# Satellites: atomic, self-healing, dtype-preserving checkpoints
# =========================================================================


class TestCheckpointDurability:
    def test_truncated_newest_restores_older(self, tmp_path, rng):
        # The original bug: a snapshot torn mid-write (here: truncated
        # after the fact) made latest() fail outright even though keep=2
        # retained a perfectly good older snapshot.
        store = DiskCheckpointStore(tmp_path, keep=2)
        g1 = rng.standard_normal(64)
        g2 = rng.standard_normal(64)
        store.save(3, g1)
        store.save(6, g2)
        newest = sorted(tmp_path.glob("ckpt_*.npy"))[-1]
        newest.write_bytes(newest.read_bytes()[:10])  # torn write
        step, grid = store.latest()
        assert step == 3
        np.testing.assert_array_equal(grid, g1)

    def test_all_corrupt_raises_typed(self, tmp_path, rng):
        store = DiskCheckpointStore(tmp_path, keep=2)
        store.save(1, rng.standard_normal(16))
        store.save(2, rng.standard_normal(16))
        for p in tmp_path.glob("ckpt_*.npy"):
            p.write_bytes(b"not a numpy file")
        with pytest.raises(CheckpointError, match="cannot read"):
            store.latest()

    def test_save_leaves_no_temp_files(self, tmp_path, rng):
        store = DiskCheckpointStore(tmp_path, keep=3)
        for s in range(5):
            store.save(s, rng.standard_normal(32))
        stray = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert stray == []
        assert len(store) == 3

    @pytest.mark.parametrize("factory", [
        lambda tmp: MemoryCheckpointStore(keep=2),
        lambda tmp: DiskCheckpointStore(tmp, keep=2),
    ], ids=["memory", "disk"])
    def test_dtype_round_trip_float32(self, tmp_path, rng, factory):
        store = factory(tmp_path)
        g = rng.standard_normal(48).astype(np.float32)
        store.save(7, g)
        step, restored = store.latest()
        assert step == 7
        assert restored.dtype == np.float32
        np.testing.assert_array_equal(restored, g)


# =========================================================================
# Tentpole: deficit-round-robin scheduler
# =========================================================================


class TestDeficitRoundRobin:
    def test_fifo_within_tenant(self):
        drr = DeficitRoundRobin(quantum=1.0)
        for i in range(4):
            drr.push("a", i)
        assert drr.pop_batch(4) == [0, 1, 2, 3]
        assert len(drr) == 0

    def test_no_starvation_under_backlog(self):
        # Tenant a floods 50 requests before b's single one arrives; b is
        # still served in the very first batch (DRR visits every tenant).
        drr = DeficitRoundRobin(quantum=1.0)
        for i in range(50):
            drr.push("a", ("a", i))
        drr.push("b", ("b", 0))
        batch = drr.pop_batch(4)
        assert ("b", 0) in batch

    def test_round_robin_interleaves_fairly(self):
        drr = DeficitRoundRobin(quantum=1.0)
        for i in range(6):
            drr.push("a", ("a", i))
            drr.push("b", ("b", i))
        served = drr.pop_batch(12)
        # Equal-cost tenants alternate: after any even prefix the split is even.
        for k in range(2, 13, 2):
            counts = {t: sum(1 for x in served[:k] if x[0] == t) for t in "ab"}
            assert counts["a"] == counts["b"]

    def test_weights_bias_the_share(self):
        drr = DeficitRoundRobin(quantum=1.0, weights={"paid": 2.0})
        for i in range(8):
            drr.push("free", ("free", i))
            drr.push("paid", ("paid", i))
        served = drr.pop_batch(6)
        paid = sum(1 for x in served if x[0] == "paid")
        assert paid == 4  # 2:1 share at weight 2

    def test_costly_items_need_accumulated_credit(self):
        drr = DeficitRoundRobin(quantum=1.0)
        drr.push("a", "big", cost=3.0)
        drr.push("b", "small", cost=1.0)
        served = drr.pop_batch(2)
        # b's cheap item is served on the first round; a's expensive one
        # only once three rounds of credit accumulated — but it IS served.
        assert served == ["small", "big"]

    def test_pending_counts(self):
        drr = DeficitRoundRobin()
        drr.push("a", "a0")
        drr.push("b", "b0")
        drr.push("a", "a1")
        assert drr.pending() == 3
        assert drr.pending("a") == 2
        assert drr.pending("nobody") == 0

    def test_invalid_parameters_typed(self):
        with pytest.raises(ServingError):
            DeficitRoundRobin(quantum=0.0)
        with pytest.raises(ServingError):
            DeficitRoundRobin(weights={"t": -1.0})
        drr = DeficitRoundRobin()
        with pytest.raises(ServingError):
            drr.push("a", "x", cost=-1.0)
        with pytest.raises(ServingError):
            drr.pop_batch(0)


# =========================================================================
# Tentpole: admission control
# =========================================================================


class TestAdmission:
    def test_queue_bound_rejects_typed_and_counted(self):
        tel = Telemetry()
        adm = AdmissionController(max_queue=2, telemetry=tel)
        adm.admit("t", 0, 0)
        adm.admit("t", 1, 1)
        with pytest.raises(ServingError, match="queue full"):
            adm.admit("t", 2, 2)
        assert adm.accepted == 2
        assert adm.rejected == 1
        counters = tel.snapshot()["counters"]
        assert counters["admission_accepted"] == 2
        assert counters["admission_rejected"] == 1

    def test_per_tenant_cap(self):
        adm = AdmissionController(max_queue=100, max_pending_per_tenant=1)
        adm.admit("a", 0, 0)
        with pytest.raises(ServingError, match="pending cap"):
            adm.admit("a", 1, 1)
        adm.admit("b", 1, 0)  # other tenants unaffected


# =========================================================================
# Tentpole: the micro-batching server
# =========================================================================


class TestStencilServer:
    def test_batched_equals_serial_bit_identical(self, plan, rng):
        grids = _grids(rng, 12)
        serial = [plan.run(g, 18) for g in grids]

        async def main():
            cfg = ServingConfig(max_batch=8)
            async with StencilServer(plan, cfg) as server:
                return await asyncio.gather(
                    *[server.submit(g, 18, tenant=f"t{i % 3}")
                      for i, g in enumerate(grids)]
                )

        outs = asyncio.run(main())
        for got, want in zip(outs, serial):
            np.testing.assert_array_equal(got, want)

    def test_mixed_steps_grouped_correctly(self, plan, rng):
        grids = _grids(rng, 8)
        steps = [6, 18, 6, 13, 18, 13, 6, 0]
        serial = [plan.run(g, s) for g, s in zip(grids, steps)]

        async def main():
            async with StencilServer(plan, ServingConfig()) as server:
                return await asyncio.gather(
                    *[server.submit(g, s) for g, s in zip(grids, steps)]
                )

        outs = asyncio.run(main())
        for got, want in zip(outs, serial):
            np.testing.assert_array_equal(got, want)

    def test_work_conserving_dispatch(self, plan, rng):
        # A lone request is dispatched within a few loop turns, with no
        # timer to wait out; requests arriving while that batch is in
        # flight are served together as the next batch.
        grids = _grids(rng, 8)
        want = [plan.run(g, 12) for g in grids]

        async def main():
            # inline_below_ms=0 keeps every batch on the executor, so the
            # first batch is still in flight when the other seven arrive.
            cfg = ServingConfig(max_batch=8, inline_below_ms=0.0)
            async with StencilServer(plan, cfg) as server:
                first = server.submit_nowait(grids[0], 12)
                for _ in range(3):
                    await asyncio.sleep(0)
                assert server.info()["inflight"] == 1
                assert server.info()["pending"] == 0
                rest = [server.submit_nowait(g, 12) for g in grids[1:]]
                assert server.info()["pending"] == 7
                outs = await asyncio.gather(first, *rest)
                return outs, server.batches

        outs, batches = asyncio.run(main())
        for got, ref in zip(outs, want):
            np.testing.assert_array_equal(got, ref)
        assert batches == 2

    def test_no_tenant_starvation_under_load(self, plan, rng):
        # Tenant a floods the queue; b's lone request must complete before
        # a's backlog fully drains.
        done_order: list[str] = []

        async def main():
            cfg = ServingConfig(max_batch=4)
            async with StencilServer(plan, cfg) as server:
                async def tracked(tenant, grid):
                    await server.submit(grid, 12, tenant=tenant)
                    done_order.append(tenant)

                tasks = [
                    asyncio.create_task(tracked("a", g))
                    for g in _grids(rng, 16)
                ]
                await asyncio.sleep(0)  # let a's flood enqueue first
                tasks.append(asyncio.create_task(tracked("b", rng.standard_normal(192))))
                await asyncio.gather(*tasks)

        asyncio.run(main())
        assert "b" in done_order
        assert done_order.index("b") < len(done_order) - 1

    def test_rejection_is_typed_and_counted(self, plan, rng):
        async def main():
            # All four submits run in one loop turn, before the batch
            # loop wakes, so the bound is hit deterministically.
            cfg = ServingConfig(max_batch=8, max_queue=2)
            tel = Telemetry()
            server = StencilServer(plan, cfg, telemetry=tel)
            await server.start()
            tasks = [
                asyncio.create_task(server.submit(g, 6))
                for g in _grids(rng, 4)
            ]
            await asyncio.sleep(0.05)  # all submits have run
            await server.stop(drain=True)
            results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, server, tel

        results, server, tel = asyncio.run(main())
        rejected = [r for r in results if isinstance(r, ServingError)]
        served = [r for r in results if isinstance(r, np.ndarray)]
        assert len(rejected) == 2
        assert len(served) == 2
        assert server.info()["admission"]["rejected"] == 2
        assert tel.snapshot()["counters"]["admission_rejected"] == 2

    def test_submit_when_not_running_raises(self, plan, rng):
        async def main():
            server = StencilServer(plan)
            with pytest.raises(ServingError, match="not accepting"):
                await server.submit(rng.standard_normal(192), 6)

        asyncio.run(main())

    def test_latency_observations_recorded(self, plan, rng):
        tel = Telemetry()

        async def main():
            async with StencilServer(
                plan, ServingConfig(), telemetry=tel
            ) as server:
                await asyncio.gather(
                    *[server.submit(g, 6) for g in _grids(rng, 4)]
                )

        asyncio.run(main())
        summary = tel.observation("serve_latency_ms")
        assert summary is not None and summary["count"] == 4
        assert tel.percentile("serve_latency_ms", 99) >= 0.0
        assert tel.snapshot()["counters"]["serving_batch_grids"] == 4

    def test_serving_config_validation(self):
        with pytest.raises(ServingError):
            ServingConfig(max_batch=0)


def test_serve_batch_matches_run_many(plan, rng):
    grids = _grids(rng, 5)
    tel = Telemetry()
    outs = serve_batch(plan, grids, 12, telemetry=tel)
    assert isinstance(outs, list) and len(outs) == 5
    for g, got in zip(grids, outs):
        np.testing.assert_array_equal(got, plan.run(g, 12))
    counters = tel.snapshot()["counters"]
    assert counters["serving_batches"] == 1
    assert counters["serving_batch_grids"] == 5


# =========================================================================
# Tentpole: persistent plan/spectrum cache
# =========================================================================


class TestPlanDiskCache:
    def test_roundtrip_artifacts(self, tmp_path, plan):
        cache = PlanDiskCache(tmp_path)
        art = plan.planning_artifacts()
        cache.put("some-key", art)
        stored = cache.get("some-key")
        assert stored is not None
        assert stored["tile"] == art["tile"]
        assert stored["local_shape"] == art["local_shape"]
        assert stored["steps"] == art["steps"]
        np.testing.assert_array_equal(stored["fused_spectrum"], art["fused_spectrum"])

    def test_miss_then_hit(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        assert cache.get("absent") is None
        assert cache.info()["misses"] == 1
        cold = cache.warm_plan((192,), heat_1d(), fused_steps=6)
        warm = cache.warm_plan((192,), heat_1d(), fused_steps=6)
        assert cache.info() == {
            "directory": str(tmp_path), "entries": 1, "tuned_entries": 0,
            "hits": 1, "misses": 2,
        }
        assert warm.local_shape == cold.local_shape

    def test_warm_plan_matches_cold_bit_identical(self, tmp_path, rng):
        cache = PlanDiskCache(tmp_path)
        cold = cache.warm_plan((48, 48), heat_2d(), fused_steps=4)
        g = rng.standard_normal((48, 48))
        want = cold.run(g.copy(), 12)
        plan_cache_clear()
        spectrum_cache_clear()
        warm = cache.warm_plan((48, 48), heat_2d(), fused_steps=4)
        np.testing.assert_array_equal(warm.run(g.copy(), 12), want)

    def test_stale_host_window_records_rebuild_cold(self, tmp_path, monkeypatch):
        """Records from the Eq.-(5) host geometry, or cut for another slab
        count, miss: the plan is built cold with the current windows."""
        from repro.core.kernels import heat_3d
        from repro.core.plan import eq5_tile
        from repro.core.streamline import StreamlineConfig
        from repro.gpusim.spec import A100
        from repro.parallel.sharding import WORKERS_ENV
        from repro.serving.plancache import _key_string

        shape, k = (32, 32, 32), heat_3d()
        cache = PlanDiskCache(tmp_path)
        # Written before keys named their geometry: same request, no tag,
        # Eq.-(5) windows stored as the resolved tile.
        tile, _ = eq5_tile(shape, k, 2, A100, "float64")
        old = FlashFFTStencil(shape, k, fused_steps=2, tile=tile)
        legacy = _key_string(
            shape, k, 2, "periodic", A100, StreamlineConfig(), None, None
        ).split("|geometry=")[0]
        cache.put(legacy, old.planning_artifacts())
        # Written on a one-CPU host: one slab.
        monkeypatch.setenv(WORKERS_ENV, "1")
        one = cache.warm_plan(shape, k, fused_steps=2)
        assert one.segments.num_segments == (1, 1, 1)

        monkeypatch.setenv(WORKERS_ENV, "2")
        cold = cache.warm_plan(shape, k, fused_steps=2)
        assert cache.hits == 0
        assert cold.segments.num_segments == (2, 1, 1)
        assert cold.segments.halo == (2, 0, 0)
        assert cold.local_shape != old.local_shape
        warm = cache.warm_plan(shape, k, fused_steps=2)
        assert cache.hits == 1
        assert warm.local_shape == cold.local_shape
        assert warm._tile_override is None  # host windows stay tile=None

    def test_backend_does_not_split_the_cache(self, tmp_path):
        # Neither stored artifact depends on the FFT backend, so a plan
        # warmed under one backend warm-starts under another.
        cache = PlanDiskCache(tmp_path)
        cold = cache.warm_plan((192,), heat_1d(), fused_steps=6, backend="numpy")
        warm = cache.warm_plan((192,), heat_1d(), fused_steps=6, backend="scipy")
        assert cache.hits == 1 and cache.info()["entries"] == 1
        assert warm.backend.name == "scipy"
        assert warm.local_shape == cold.local_shape

    def test_corrupt_entry_reads_as_miss_and_heals(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        cache.warm_plan((192,), heat_1d(), fused_steps=6)
        for npz in tmp_path.glob("*.npz"):
            npz.write_bytes(b"garbage")
        assert cache.get("some-other-key") is None
        # The corrupt entry reads as a miss, is unlinked, and the next
        # warm_plan rebuilds it cold.
        rebuilt = cache.warm_plan((192,), heat_1d(), fused_steps=6)
        assert rebuilt.local_shape is not None
        assert cache.info()["entries"] == 1
        assert cache.get(
            _first_key(tmp_path)
        ) is not None  # healed entry round-trips again

    def test_key_separates_kernels_and_shapes(self, tmp_path):
        cache = PlanDiskCache(tmp_path)
        cache.warm_plan((192,), heat_1d(), fused_steps=6)
        cache.warm_plan((256,), heat_1d(), fused_steps=6)
        cache.warm_plan((192,), heat_1d(), fused_steps=4)
        assert cache.info()["entries"] == 3

    def test_directory_required(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
        with pytest.raises(ServingError, match="REPRO_PLAN_CACHE"):
            PlanDiskCache()

    def test_env_directory_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "pc"))
        cache = PlanDiskCache()
        assert cache.directory == tmp_path / "pc"

    def test_fresh_spawned_process_warm_starts(self, tmp_path):
        # The acceptance scenario: a replica restarts (spawn: nothing
        # inherited) and its first plan construction hits the disk cache.
        cache = PlanDiskCache(tmp_path)
        plan = cache.warm_plan((192,), heat_1d(), fused_steps=6)
        want = plan.run(np.linspace(-1.0, 1.0, 192), 12)
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.SimpleQueue()
        proc = ctx.Process(
            target=_spawn_warm_start_worker, args=(str(tmp_path), queue)
        )
        proc.start()
        try:
            hits, misses, checksum = queue.get()
        finally:
            proc.join(timeout=60)
        assert proc.exitcode == 0
        assert (hits, misses) == (1, 0)
        np.testing.assert_allclose(checksum, float(want.sum()), rtol=1e-12)


def _first_key(directory):
    import json

    meta = sorted(directory.glob("*.json"))[0]
    return json.loads(meta.read_text())["key"]


def _spawn_warm_start_worker(cache_dir: str, queue) -> None:
    """Runs in a fresh spawned interpreter: warm-start from disk only."""
    import numpy as np  # noqa: F811 - fresh interpreter

    from repro.core.kernels import heat_1d
    from repro.serving import PlanDiskCache

    cache = PlanDiskCache(cache_dir)
    plan = cache.warm_plan((192,), heat_1d(), fused_steps=6)
    out = plan.run(np.linspace(-1.0, 1.0, 192), 12)
    queue.put((cache.hits, cache.misses, float(out.sum())))
