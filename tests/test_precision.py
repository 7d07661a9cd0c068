"""Mixed-precision tier: equivalence matrix, dtype plumbing, routing.

The float32 tier is only useful if (a) its results stay within the
modeled bound of the float64 reference across every execution mode the
engine ships, (b) dtypes never leak across tiers (caches, arenas, disk
entries), and (c) the accuracy router actually routes, verifies, and
escalates.  These tests pin all three.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.accuracy import PrecisionErrorModel, PrecisionRouter
from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil
from repro.core.precision import (
    DTYPE_ENV,
    complex_dtype,
    precision_of,
    real_dtype,
    resolve_precision,
    validate_precision,
)
from repro.core.reference import run_stencil
from repro.core.spectral import apply_fft_stencil
from repro.errors import KernelError, PlanError
from repro.observability.telemetry import Telemetry
from repro.parallel.arena import WorkspaceArena
from repro.robustness.sentinel import normalized_drift
from repro.serving.plancache import PlanDiskCache

# A loose ceiling any healthy float32 run satisfies on these small cases;
# the router's own model predicts tighter per-plan bounds.
F32_TOL = 5e-5


def _drift(got, ref):
    return normalized_drift(got, ref)


# --------------------------------------------------------------- helpers


class TestPrecisionHelpers:
    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv(DTYPE_ENV, raising=False)
        assert resolve_precision(None) == "float64"

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        assert resolve_precision(None) == "float32"
        # explicit argument outranks the environment
        assert resolve_precision("float64") == "float64"

    def test_resolve_env_invalid(self, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float16")
        with pytest.raises(PlanError, match=DTYPE_ENV):
            resolve_precision(None)

    def test_validate_rejects_unknown(self):
        with pytest.raises(PlanError):
            validate_precision("bfloat16")

    def test_dtype_maps(self):
        assert real_dtype("float32") == np.dtype(np.float32)
        assert complex_dtype("float32") == np.dtype(np.complex64)
        assert real_dtype("float64") == np.dtype(np.float64)
        assert complex_dtype("float64") == np.dtype(np.complex128)
        assert precision_of(np.float32) == "float32"
        assert precision_of(np.complex128) == "float64"


# ------------------------------------------------- equivalence matrix


def _case_plans(kernel, shape, boundary, tile=None):
    # both tiers explicit: the matrix must compare f32 against the real
    # f64 reference even when $REPRO_DTYPE flips the session default
    kwargs = dict(fused_steps=3, boundary=boundary, tile=tile)
    p64 = FlashFFTStencil(shape, kernel, precision="float64", **kwargs)
    p32 = FlashFFTStencil(shape, kernel, precision="float32", **kwargs)
    return p64, p32


MATRIX = [
    (kz.heat_1d, (257,)),  # ragged: 257 does not tile evenly
    (kz.star_1d5p, (192,)),
    (kz.heat_2d, (33, 29)),
    (kz.box_2d9p, (32, 32)),
    (kz.heat_3d, (17, 16, 15)),
]


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    @pytest.mark.parametrize(
        "make_kernel,shape", MATRIX, ids=lambda v: getattr(v, "__name__", str(v))
    )
    def test_run_matches_reference_tier(self, rng, make_kernel, shape, boundary):
        kernel = make_kernel()
        p64, p32 = _case_plans(kernel, shape, boundary)
        x = rng.standard_normal(shape)
        ref = p64.run(x, 9)
        got = p32.run(x.astype(np.float32), 9)
        assert got.dtype == np.float32
        bound = PrecisionErrorModel(p64).predicted(9)
        assert np.isfinite(bound)
        assert _drift(got, ref) <= max(bound, F32_TOL)

    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_apply_fft_stencil_tiers(self, rng, boundary):
        kernel = kz.heat_2d()
        x = rng.standard_normal((24, 24))
        ref = apply_fft_stencil(
            x, kernel, boundary=boundary, steps=4, precision="float64"
        )
        got = apply_fft_stencil(
            x.astype(np.float32), kernel, boundary=boundary, steps=4,
            precision="float32",
        )
        assert ref.dtype == np.float64 and got.dtype == np.float32
        assert _drift(got, ref) < F32_TOL

    def test_resident_tier(self, rng):
        p64, p32 = _case_plans(kz.heat_1d(), (256,), "periodic")
        x = rng.standard_normal(256)
        ref = p64.run(x, 12, resident=True)
        got = p32.run(x.astype(np.float32), 12, resident=True)
        assert got.dtype == np.float32
        assert _drift(got, ref) < F32_TOL

    def test_sharded_tier(self, rng):
        k = kz.heat_1d()
        p64 = FlashFFTStencil((512,), k, fused_steps=3, tile=64, workers=2)
        p32 = FlashFFTStencil(
            (512,), k, fused_steps=3, tile=64, workers=2, precision="float32"
        )
        x = rng.standard_normal(512)
        ref = p64.run(x, 9)
        got = p32.run(x.astype(np.float32), 9)
        assert got.dtype == np.float32
        assert _drift(got, ref) < F32_TOL

    def test_run_many_tier(self, rng):
        p64, p32 = _case_plans(kz.heat_1d(), (192,), "zero")
        grids = [rng.standard_normal(192) for _ in range(3)]
        ref = p64.run_many(grids, 6)
        got = p32.run_many([g.astype(np.float32) for g in grids], 6)
        assert got.dtype == np.float32 and got.shape == ref.shape
        assert _drift(got, ref) < F32_TOL

    def test_run_many_double_layer_tier(self, rng):
        p64, p32 = _case_plans(kz.heat_1d(), (192,), "periodic")
        grids = [rng.standard_normal(192) for _ in range(4)]
        ref = p64.run_many(grids, 6, double_layer=True)
        got = p32.run_many(
            [g.astype(np.float32) for g in grids], 6, double_layer=True
        )
        assert got.dtype == np.float32
        assert _drift(got, ref) < F32_TOL

    def test_env_var_selects_tier(self, rng, monkeypatch):
        monkeypatch.setenv(DTYPE_ENV, "float32")
        plan = FlashFFTStencil((128,), kz.heat_1d(), fused_steps=2)
        assert plan.precision == "float32"
        out = plan.apply(rng.standard_normal(128).astype(np.float32))
        assert out.dtype == np.float32


# ----------------------------------------------- float64 path untouched


class TestReferenceTierUnchanged:
    def test_float64_bit_identical_to_direct_construction(self, rng, monkeypatch):
        # the claim is about the *unconfigured* default, so clear the env
        monkeypatch.delenv(DTYPE_ENV, raising=False)
        x = rng.standard_normal(512)
        k = kz.heat_1d()
        base = FlashFFTStencil((512,), k, fused_steps=4).run(x, 8)
        explicit = FlashFFTStencil(
            (512,), k, fused_steps=4, precision="float64"
        ).run(x, 8)
        np.testing.assert_array_equal(base, explicit)

    def test_variant_round_trip_is_cached(self):
        p64 = FlashFFTStencil(
            (256,), kz.heat_1d(), fused_steps=2, precision="float64"
        )
        p32 = p64.variant("float32")
        assert p32.precision == "float32"
        assert p32.variant("float32") is p32
        assert p64.variant("float32") is p32  # cache shared, not rebuilt
        sibling = p32.variant("float64")
        assert sibling.precision == "float64"
        assert sibling.variant("float32") is p32


# -------------------------------------------- dtype-preservation bugfix


class TestDtypePreservation:
    """Regression: the engine used to upcast float32 input to float64."""

    def test_apply_preserves_float32(self, rng):
        plan = FlashFFTStencil(
            (128,), kz.heat_1d(), fused_steps=2, precision="float32"
        )
        out = plan.apply(rng.standard_normal(128).astype(np.float32))
        assert out.dtype == np.float32

    def test_run_many_preserves_float32(self, rng):
        plan = FlashFFTStencil(
            (128,), kz.heat_1d(), fused_steps=2, precision="float32"
        )
        grids = [rng.standard_normal(128).astype(np.float32) for _ in range(2)]
        out = plan.run_many(grids, 4)
        assert out.dtype == np.float32

    def test_out_param_wrong_dtype_rejected(self, rng):
        plan = FlashFFTStencil(
            (128,), kz.heat_1d(), fused_steps=2, precision="float32"
        )
        with pytest.raises(PlanError):
            plan.apply(
                rng.standard_normal(128).astype(np.float32),
                out=np.empty(128, dtype=np.float64),
            )

    def test_apply_reference_matches_plan_dtype(self, rng):
        plan = FlashFFTStencil(
            (128,), kz.heat_1d(), fused_steps=2, precision="float32"
        )
        assert plan.apply_reference(
            rng.standard_normal(128).astype(np.float32)
        ).dtype == np.float32


# ------------------------------------------------------ cache isolation


class TestCacheIsolation:
    def test_spectrum_cache_keys_by_precision(self):
        k = kz.heat_1d()
        s64 = k.temporal_spectrum((64,), 3)
        s32 = k.temporal_spectrum((64,), 3, "float32")
        assert s64.dtype == np.complex128
        assert s32.dtype == np.complex64
        # the f32 entry is the rounded f64 entry, not a recomputation
        np.testing.assert_array_equal(s32, s64.astype(np.complex64))

    def test_seed_guard_refuses_f32_into_f64(self):
        k = kz.star_1d5p()
        spec32 = k.temporal_spectrum((64,), 2, "float32")
        with pytest.raises(KernelError, match="single precision"):
            kz.spectrum_cache_seed(k, (64,), 2, spec32)

    def test_arena_pools_by_dtype(self):
        p64 = FlashFFTStencil(
            (256,), kz.heat_1d(), fused_steps=2, tile=64, precision="float64"
        )
        p32 = p64.variant("float32")
        a64 = WorkspaceArena(p64.segments)
        a32 = WorkspaceArena(p32.segments)
        assert a64.windows.dtype == np.float64
        assert a32.windows.dtype == np.float32
        assert a64.fits(p64.segments) and not a64.fits(p32.segments)
        assert a32.fits(p32.segments) and not a32.fits(p64.segments)

    def test_plan_disk_cache_isolates_tiers(self, tmp_path, rng):
        cache = PlanDiskCache(tmp_path)
        k = kz.heat_1d()
        p32 = cache.warm_plan((128,), k, fused_steps=4, precision="float32")
        kz.spectrum_cache_clear()
        # the same key at float64 must miss, not warm-start from f32
        p64 = cache.warm_plan((128,), k, fused_steps=4, precision="float64")
        assert cache.hits == 0 and p64.precision == "float64"
        x = rng.standard_normal(128)
        assert _drift(p32.apply(x.astype(np.float32)), p64.apply(x)) < F32_TOL

    def test_plan_disk_cache_heals_mismatched_payload(self, tmp_path):
        from repro.core.streamline import StreamlineConfig
        from repro.gpusim.spec import A100
        from repro.serving.plancache import _key_string

        cache = PlanDiskCache(tmp_path)
        k = kz.heat_1d()
        cache.warm_plan((128,), k, fused_steps=4, precision="float32")
        key = _key_string(
            (128,), k, 4, "periodic", A100, StreamlineConfig(), None,
            None, "float32",
        )
        stored = cache.get(key, "float32")
        assert stored is not None
        # tamper: republish the payload upcast to complex128
        npz = cache.directory / f"{cache.digest(key)}.npz"
        np.savez(npz, fused_spectrum=stored["fused_spectrum"].astype(np.complex128))
        assert cache.get(key, "float32") is None
        assert not npz.exists()  # healed


# ---------------------------------------------------- float32 exclusions


class TestFloat32Exclusions:
    def test_tcu_emulation_is_float64_only(self, rng):
        plan = FlashFFTStencil(
            (128,), kz.heat_1d(), fused_steps=2, precision="float32"
        )
        with pytest.raises(PlanError, match="float64"):
            plan.apply(
                rng.standard_normal(128).astype(np.float32), emulate_tcu=True
            )


# ------------------------------------------------------- routing policy


class TestToleranceRouting:
    def test_loose_tolerance_routes_float32(self, rng):
        plan = FlashFFTStencil((256,), kz.heat_1d(), fused_steps=4)
        tel = Telemetry()
        x = rng.standard_normal(256)
        out = plan.run(x, 8, tolerance=1e-3, telemetry=tel)
        assert out.dtype == np.float64  # cast back to caller dtype
        assert tel.counter("precision_requests_f32") == 1
        assert _drift(out, plan.run(x, 8)) <= 1e-3

    def test_tight_tolerance_routes_float64(self, rng):
        plan = FlashFFTStencil(
            (256,), kz.heat_1d(), fused_steps=4, precision="float64"
        )
        tel = Telemetry()
        x = rng.standard_normal(256)
        out = plan.run(x, 8, tolerance=1e-14, telemetry=tel)
        assert tel.counter("precision_requests_f64") == 1
        np.testing.assert_array_equal(out, plan.run(x, 8))

    def test_router_caller_dtype_round_trip(self, rng):
        plan = FlashFFTStencil((128,), kz.heat_1d(), fused_steps=2)
        out = plan.apply(
            rng.standard_normal(128).astype(np.float32), tolerance=1e-3
        )
        assert out.dtype == np.float32

    def test_run_many_tolerance(self, rng):
        plan = FlashFFTStencil((128,), kz.heat_1d(), fused_steps=2)
        tel = Telemetry()
        grids = [rng.standard_normal(128) for _ in range(3)]
        out = plan.run_many(grids, 4, tolerance=1e-3, telemetry=tel)
        assert out.shape == (3, 128) and out.dtype == np.float64
        assert tel.counter("precision_requests_f32") == 3
        ref = plan.run_many(grids, 4)
        assert _drift(out, ref) <= 1e-3

    def test_probe_counted_once(self, rng):
        plan = FlashFFTStencil((128,), kz.heat_1d(), fused_steps=2)
        tel = Telemetry()
        x = rng.standard_normal(128)
        plan.run(x, 4, tolerance=1e-3, telemetry=tel)
        plan.run(x, 4, tolerance=1e-3, telemetry=tel)
        assert tel.counter("precision_probes") == 1

    def test_invalid_tolerance(self, rng):
        plan = FlashFFTStencil((128,), kz.heat_1d(), fused_steps=2)
        with pytest.raises(PlanError):
            plan.run(rng.standard_normal(128), 4, tolerance=0.0)

    def test_model_amplifies_with_steps(self):
        plan = FlashFFTStencil((128,), kz.heat_1d(), fused_steps=2)
        model = PrecisionErrorModel(plan)
        assert model.predicted(64) > model.predicted(2)
        assert model.predicted(0) == 0.0


class TestSentinelEscalation:
    def _optimistic_router(self, plan, verify_every=1):
        """A router whose model always predicts zero error — every request
        routes float32 and only the spot check can catch real drift."""
        router = PrecisionRouter(plan, verify_every=verify_every)
        router.model.predicted = lambda total_steps, telemetry=None: 0.0
        return router

    def test_breach_escalates_and_sticks(self, rng):
        plan = FlashFFTStencil(
            (256,), kz.heat_1d(), fused_steps=4, precision="float64"
        )
        router = self._optimistic_router(plan)
        tel = Telemetry()
        x = rng.standard_normal(256)
        # an impossible tolerance for float32: the spot check must breach
        out = router.run(x, 8, 1e-12, telemetry=tel)
        assert router.escalated
        assert tel.counter("precision_escalations") == 1
        # the breaching request got the float64 reference, not the f32 result
        np.testing.assert_array_equal(out, plan.run(x, 8))
        # sticky: later requests route float64 even with a loose budget
        assert router.route(8, 1e-3) == "float64"

    def test_verify_cadence(self, rng):
        plan = FlashFFTStencil((128,), kz.heat_1d(), fused_steps=2)
        router = self._optimistic_router(plan, verify_every=2)
        x = rng.standard_normal(128)
        out32 = plan.variant("float32").run(x.astype(np.float32), 4)
        # 1st routed request is on cadence and passes its loose budget
        assert router.spot_check(x, out32, 4, 1.0) is None
        assert not router.escalated
        # 2nd is off cadence: even an impossible budget goes unchecked
        assert router.spot_check(x, out32, 4, 1e-20) is None
        assert not router.escalated
        # 3rd is on cadence again: the impossible budget now breaches
        assert router.spot_check(x, out32, 4, 1e-20) is not None
        assert router.escalated

    def test_run_many_breach_recomputes_batch(self, rng):
        plan = FlashFFTStencil(
            (128,), kz.heat_1d(), fused_steps=2, precision="float64"
        )
        router = self._optimistic_router(plan)
        tel = Telemetry()
        grids = [rng.standard_normal(128) for _ in range(2)]
        out = router.run_many(grids, 4, 1e-12, telemetry=tel)
        assert router.escalated
        np.testing.assert_array_equal(out, plan.run_many(grids, 4))


class TestServingRouting:
    def test_server_routes_and_groups(self, rng):
        import asyncio

        from repro.serving import StencilServer
        from repro.serving.batcher import ServingConfig

        plan = FlashFFTStencil(
            (128,), kz.heat_1d(), fused_steps=4, precision="float64"
        )
        tel = Telemetry()
        cfg = ServingConfig(max_batch=4)

        async def main():
            async with StencilServer(plan, cfg, telemetry=tel) as srv:
                g = rng.standard_normal(128)
                return g, await asyncio.gather(
                    srv.submit(g, 8, tenant="a", tolerance=1e-3),
                    srv.submit(g, 8, tenant="b"),
                )

        g, (routed, exact) = asyncio.run(main())
        ref = plan.run(g, 8)
        assert routed.dtype == np.float64 and exact.dtype == np.float64
        np.testing.assert_array_equal(exact, ref)
        assert _drift(routed, ref) <= 1e-3
        assert tel.counter("precision_requests_f32") == 1

    def test_server_rejects_bad_tolerance(self, rng):
        import asyncio

        from repro.errors import ServingError
        from repro.serving import StencilServer

        plan = FlashFFTStencil((128,), kz.heat_1d(), fused_steps=2)

        async def main():
            async with StencilServer(plan) as srv:
                with pytest.raises(ServingError, match="tolerance"):
                    srv.submit_nowait(
                        rng.standard_normal(128), 4, tolerance=-1.0
                    )

        asyncio.run(main())


# ------------------------------------------------------------- sentinel


class TestNormalizedDrift:
    def test_zero_for_identical(self):
        x = np.ones(8)
        assert normalized_drift(x, x) == 0.0

    def test_mixed_dtype_inputs(self):
        ref = np.full(8, 2.0)
        got = ref.astype(np.float32)
        assert normalized_drift(got, ref) < 1e-6

    def test_reference_shared_with_router(self, rng):
        # run_stencil drift of an exact engine is ~eps: the router and the
        # sentinel agree on what "drift" means.
        x = rng.standard_normal(64)
        k = kz.heat_1d()
        a = run_stencil(x, k, 3)
        assert normalized_drift(a, a.copy()) == 0.0
