"""Tests for the process-parallel scale-out engine (repro.distributed.engine).

The load-bearing property is *bit-identity*: however the global window
batch is partitioned across worker processes, and whichever start method
launches them, ``plan.run(..., processes=N)`` must return byte-for-byte
the serial result.  Everything else — env parsing, autoselection,
robustness interplay, the restricted halo maps — supports that claim.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil
from repro.distributed import (
    ProcessEngine,
    choose_processes,
    run_many_processes,
)
from repro.distributed.engine import (
    AUTO_MIN_POINTS,
    ENV_MIN_POINTS,
    PROCS_ENV,
    backend_spec,
)
from repro.errors import PlanError
from repro.observability import Telemetry
from repro.parallel.backends import BACKEND_ENV, ScipyFFTBackend, get_backend
from repro.parallel.sharding import WORKERS_ENV, choose_workers
from repro.robustness import (
    FaultInjector,
    FaultSpec,
    MemoryCheckpointStore,
    RobustnessConfig,
)

#: (id, grid shape, kernel factory, tile, fused steps, boundary) — spans
#: 1/2/3-D, periodic/zero, uniform/ragged tiling (ragged forces the
#: gather exchange strategy and uneven rank loads).
GEOMETRIES = [
    ("1d-periodic", (256,), kz.heat_1d, (32,), 4, "periodic"),
    ("1d-zero", (256,), kz.heat_1d, (32,), 4, "zero"),
    ("1d-ragged", (97,), kz.heat_1d, (32,), 4, "periodic"),
    ("2d-zero-ragged", (45, 40), kz.heat_2d, (16, 16), 2, "zero"),
    ("3d-periodic", (24, 24, 24), kz.heat_3d, (8, 8, 8), 2, "periodic"),
]


def _plan(geom) -> FlashFFTStencil:
    _, shape, kf, tile, fused, boundary = geom
    return FlashFFTStencil(
        shape, kf(), fused_steps=fused, tile=tile, boundary=boundary, workers=1
    )


class TestBitIdentity:
    @pytest.mark.parametrize("geom", GEOMETRIES, ids=[g[0] for g in GEOMETRIES])
    @pytest.mark.parametrize("procs", [2, 4])
    def test_run_matches_serial(self, geom, procs, rng):
        plan = _plan(geom)
        try:
            x = rng.standard_normal(geom[1])
            fused = geom[4]
            # With and without a remainder tail; the pool persists across
            # runs, so the second total also exercises buffer reuse.
            for total in (3 * fused, 3 * fused + max(1, fused // 2)):
                want = plan.run(x, total)
                got = plan.run(x, total, processes=procs)
                assert np.array_equal(got, want)
        finally:
            plan.close_processes()

    @pytest.mark.parametrize("geom", GEOMETRIES, ids=[g[0] for g in GEOMETRIES])
    def test_deterministic_mode_matches_serial(self, geom, rng):
        plan = _plan(geom)
        eng = ProcessEngine(plan.segments, 3, deterministic=True)
        assert eng.deterministic
        x = rng.standard_normal(geom[1])
        want = plan.run(x, 3 * geom[4])
        got = eng.run(x, 3)
        assert np.array_equal(got, want)

    def test_spawn_start_method(self, rng):
        # One spawn-launched pool (workers re-import the package, so this
        # is slow — keep it to a single geometry).
        plan = _plan(GEOMETRIES[0])
        eng = ProcessEngine(plan.segments, 2, start_method="spawn")
        try:
            x = rng.standard_normal(256)
            got = eng.run(x, 3)
            assert np.array_equal(got, plan.run(x, 12))
        finally:
            eng.close()

    def test_pool_reuse_and_out_buffer(self, rng):
        plan = _plan(GEOMETRIES[1])
        eng = ProcessEngine(plan.segments, 2)
        try:
            x = rng.standard_normal(256)
            out = np.empty(256)
            got = eng.run(x, 2, out=out)
            assert got is out
            assert np.array_equal(out, plan.run(x, 8))
            # Second run on the same pool, fresh input.
            y = rng.standard_normal(256)
            assert np.array_equal(eng.run(y, 3), plan.run(y, 12))
            assert eng.runs_completed == 2
        finally:
            eng.close()

    def test_telemetry_merge(self, rng):
        plan = _plan(GEOMETRIES[0])
        x = rng.standard_normal(256)
        # The pooled processes and the inline deterministic mode count alike.
        for deterministic in (False, True):
            eng = ProcessEngine(plan.segments, 2, deterministic=deterministic)
            try:
                tel = Telemetry()
                eng.run(x, 3, telemetry=tel)
            finally:
                eng.close()
            snap = tel.snapshot()
            c = snap["counters"]
            assert c["applications"] == 3
            assert c["process_tasks"] == 2
            # One logical FFT batch per application, whatever the rank
            # count; the per-rank work is shard_tasks.
            assert c["fft_batches"] == 3
            assert c["shard_tasks"] == 2 * 3
            assert c["hbm_round_trips_saved"] == 2
            # Per-rank restricted exchanges tile the full exchange.
            ex = plan.segments.exchange_plan("gather")
            assert c["halo_points_exchanged"] == 2 * ex.stale_points
            assert any("exchange" in k for k in snap["spans"])


class TestChooseProcesses:
    def test_explicit_counts(self):
        assert choose_processes(1 << 20, 8, 1) == 1
        assert choose_processes(1 << 20, 8, 3) == 3
        assert choose_processes(1 << 20, 2, 5) == 2  # clamped to tiles
        assert choose_processes(64, 8, 4) == 4  # explicit beats any floor
        with pytest.raises(PlanError):
            choose_processes(1 << 20, 8, -1)

    def test_env_paths(self, monkeypatch):
        monkeypatch.delenv(PROCS_ENV, raising=False)
        assert choose_processes(1 << 20, 8, None) == 1
        monkeypatch.setenv(PROCS_ENV, "4")
        assert choose_processes(1 << 20, 8, None) == 4
        assert choose_processes(1 << 20, 3, None) == 3
        # Small grids degrade to serial even when the env is set.
        assert choose_processes(ENV_MIN_POINTS - 1, 8, None) == 1

    def test_autotune_floor(self):
        assert choose_processes(AUTO_MIN_POINTS - 1, 8, 0) == 1
        got = choose_processes(AUTO_MIN_POINTS, 8, 0)
        assert 1 <= got <= 8

    @pytest.mark.parametrize("bad", ["abc", "0", "-2", "1.5"])
    def test_env_validation_names_variable(self, monkeypatch, bad):
        monkeypatch.setenv(PROCS_ENV, bad)
        with pytest.raises(PlanError, match=PROCS_ENV):
            choose_processes(1 << 20, 8, None)


class TestEnvValidation:
    """Satellite: every env knob rejects junk with the variable named."""

    @pytest.mark.parametrize("bad", ["abc", "0", "-3", ""])
    def test_workers_env(self, monkeypatch, bad):
        monkeypatch.setenv(WORKERS_ENV, bad)
        if bad == "":
            # Empty means unset, not an error.
            assert choose_workers(1 << 20, None) >= 1
        else:
            with pytest.raises(PlanError, match=WORKERS_ENV):
                choose_workers(1 << 20, None)

    def test_backend_env_unknown_name(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "bogusfft")
        with pytest.raises(PlanError, match=BACKEND_ENV):
            get_backend(None)

    def test_backend_env_bad_worker_suffix(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "scipy:lots")
        with pytest.raises(PlanError, match=BACKEND_ENV):
            get_backend(None)

    def test_backend_explicit_spec_keeps_plain_message(self):
        with pytest.raises(PlanError) as err:
            get_backend("scipy:lots")
        assert BACKEND_ENV not in str(err.value)


class TestPlanIntegration:
    def test_env_driven_run(self, rng, monkeypatch):
        plan = FlashFFTStencil(
            (1 << 16,), kz.heat_1d(), fused_steps=2, tile=(1 << 13,), workers=1
        )
        try:
            x = rng.standard_normal(1 << 16)
            want = plan.run(x, 6)
            monkeypatch.setenv(PROCS_ENV, "2")
            tel = Telemetry()
            got = plan.run(x, 6, telemetry=tel)
            assert np.array_equal(got, want)
            assert tel.snapshot()["counters"]["process_tasks"] > 0
        finally:
            plan.close_processes()

    def test_small_grid_stays_serial_under_env(self, rng, monkeypatch):
        monkeypatch.setenv(PROCS_ENV, "2")
        plan = _plan(GEOMETRIES[0])
        tel = Telemetry()
        plan.run(rng.standard_normal(256), 8, telemetry=tel)
        assert "process_tasks" not in tel.snapshot()["counters"]

    def test_emulate_tcu_conflicts(self, rng, monkeypatch):
        plan = _plan(GEOMETRIES[0])
        x = rng.standard_normal(256)
        with pytest.raises(PlanError, match="emulate_tcu"):
            plan.run(x, 8, emulate_tcu=True, processes=2)
        # Env-driven counts degrade silently instead of raising.
        monkeypatch.setenv(PROCS_ENV, "2")
        plan.run(x, 8, emulate_tcu=True)

    def test_closed_engine_raises(self, rng):
        plan = _plan(GEOMETRIES[0])
        eng = ProcessEngine(plan.segments, 2)
        eng.run(rng.standard_normal(256), 2)
        eng.close()
        eng.close()  # idempotent
        with pytest.raises(PlanError):
            eng.run(rng.standard_normal(256), 2)

    def test_single_application_uses_serial_path(self, rng):
        plan = _plan(GEOMETRIES[0])
        tel = Telemetry()
        got = plan.run(rng.standard_normal(256), 4, processes=2, telemetry=tel)
        assert got.shape == (256,)
        # One full application cannot amortise process dispatch.
        assert "process_tasks" not in tel.snapshot()["counters"]

    def test_backend_spec_roundtrip(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert backend_spec(None) == "numpy"
        # None resolves like a plan's backend: the environment decides.
        monkeypatch.setenv(BACKEND_ENV, "scipy")
        assert backend_spec(None) == "scipy"
        assert backend_spec("scipy:2") == "scipy:2"
        assert backend_spec(ScipyFFTBackend(workers=3)) == "scipy:3"


class TestRunMany:
    def test_matches_serial_run_many(self, rng):
        plan = _plan(GEOMETRIES[1])
        gs = np.stack([rng.standard_normal(256) for _ in range(5)])
        want = plan.run_many(gs, 10)
        got = run_many_processes(plan, gs, 10, 2)
        assert np.array_equal(got, want)

    def test_plan_run_many_dispatch(self, rng):
        plan = _plan(GEOMETRIES[2])
        gs = np.stack([rng.standard_normal(97) for _ in range(4)])
        tel = Telemetry()
        got = plan.run_many(gs, 9, processes=2, telemetry=tel)
        want = np.stack([plan.run(g, 9) for g in gs])
        assert np.array_equal(got, want)
        assert tel.snapshot()["counters"]["batch_worker_chunks"] == 2

    def test_validation(self, rng):
        plan = _plan(GEOMETRIES[0])
        with pytest.raises(PlanError):
            run_many_processes(plan, [], 4, 2)
        with pytest.raises(PlanError):
            run_many_processes(plan, [rng.standard_normal(7)], 4, 2)


class TestRobustnessInterplay:
    def test_checkpointed_run_matches(self, rng):
        plan = _plan(GEOMETRIES[1])
        try:
            x = rng.standard_normal(256)
            rb = RobustnessConfig(checkpoint_every=2)
            tel = Telemetry()
            got = plan.run(x, 16, robustness=rb, processes=2, telemetry=tel)
            assert np.array_equal(got, plan.run(x, 16))
            c = tel.snapshot()["counters"]
            assert c["checkpoint_saves"] >= 2
            assert c["process_tasks"] >= 2  # chunks ran on the engine
        finally:
            plan.close_processes()

    def test_fault_recovery_stays_bit_identical(self, rng):
        plan = _plan(GEOMETRIES[0])
        try:
            x = rng.standard_normal(256)
            injector = FaultInjector(
                [FaultSpec(stage="fuse", kind="transient", apply_index=2, count=1)]
            )
            rb = RobustnessConfig(
                checkpoint_every=2,
                checkpoint_store=MemoryCheckpointStore(),
                injector=injector,
            )
            tel = Telemetry()
            got = plan.run(x, 24, robustness=rb, processes=2, telemetry=tel)
            assert np.array_equal(got, plan.run(x, 24))
            c = tel.snapshot()["counters"]
            assert c["faults_injected"] >= 1
            assert c.get("stage_retries", 0) + c.get("checkpoint_restores", 0) >= 1
        finally:
            plan.close_processes()


class TestRestrictedMaps:
    """The searchsorted row-restricted views tile the full exchange maps."""

    @pytest.mark.parametrize("geom", GEOMETRIES, ids=[g[0] for g in GEOMETRIES])
    def test_maps_partition_exactly(self, geom):
        seg = _plan(geom).segments
        ex = seg.exchange_plan("gather")
        n0 = seg.num_segments[0]
        rest = seg.total_segments // n0
        cuts = [int(c[0]) * rest for c in np.array_split(np.arange(n0), 3) if len(c)]
        cuts.append(seg.total_segments)
        src_parts, dst_parts, zero_parts = [], [], []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            s, d, z = ex.maps_for_rows((lo, hi))
            src_parts.append(s)
            dst_parts.append(d)
            zero_parts.append(z)
        full_src, full_dst, full_zero = ex._gather_maps
        np.testing.assert_array_equal(np.concatenate(src_parts), full_src)
        np.testing.assert_array_equal(np.concatenate(dst_parts), full_dst)
        np.testing.assert_array_equal(np.concatenate(zero_parts), full_zero)

    def test_refresh_rows_partition_matches_full(self, rng):
        seg = _plan(GEOMETRIES[1]).segments
        ex = seg.exchange_plan("gather")
        batch = rng.standard_normal((seg.total_segments,) + seg.local_shape)
        full = batch.copy()
        ex.refresh(full)
        part = batch.copy()
        half = seg.total_segments // 2
        ex.refresh_rows(part, (0, half))
        ex.refresh_rows(part, (half, seg.total_segments))
        np.testing.assert_array_equal(part, full)

    def test_cross_rows_points_bounded_by_stale(self):
        plan = _plan(GEOMETRIES[0])
        eng = ProcessEngine(plan.segments, 2, deterministic=True)
        ex = plan.segments.exchange_plan("gather")
        assert 0 < eng.cross_halo_points() <= ex.stale_points
        assert eng.cross_halo_bytes() == 8 * eng.cross_halo_points()
        # More ranks cut more tile adjacencies, never fewer.
        eng4 = ProcessEngine(plan.segments, 4, deterministic=True)
        assert eng4.cross_halo_points() >= eng.cross_halo_points()
