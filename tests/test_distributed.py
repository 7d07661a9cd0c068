"""Tests for the multi-GPU layer (repro.distributed)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels as kz
from repro.core.plan import FlashFFTStencil
from repro.core.reference import run_stencil
from repro.distributed import (
    NVLINK4,
    PCIE5,
    DistributedStencil,
    Interconnect,
    SlabDecomposition,
    exchange_halos,
    scaling_curve,
)
from repro.errors import PlanError


class TestDecomposition:
    def test_even_split(self):
        d = SlabDecomposition((64,), 4, halo=2)
        assert d.slab_extents == (16, 16, 16, 16)
        assert d.slab_starts == (0, 16, 32, 48)

    def test_ragged_split(self):
        d = SlabDecomposition((65,), 4, halo=1)
        assert d.slab_extents == (17, 16, 16, 16)
        assert sum(d.slab_extents) == 65

    def test_validation(self):
        with pytest.raises(PlanError):
            SlabDecomposition((64,), 0, halo=1)
        with pytest.raises(PlanError):
            SlabDecomposition((64,), 4, halo=-1)
        with pytest.raises(PlanError):
            SlabDecomposition((3,), 4, halo=0)
        with pytest.raises(PlanError):
            # A zero boundary cannot read past the whole grid.
            SlabDecomposition((64,), 4, halo=65, boundary="zero")
        with pytest.raises(PlanError):
            SlabDecomposition((64,), 2, halo=1, boundary="mirror")

    def test_deep_halo_is_multi_round(self):
        # halo > smallest slab used to be rejected; it now widens to a
        # multi-round ring exchange.
        d = SlabDecomposition((64,), 4, halo=20)
        assert d.exchange_rounds == 2
        assert SlabDecomposition((64,), 4, halo=16).exchange_rounds == 1
        assert SlabDecomposition((64,), 4, halo=0).exchange_rounds == 0

    def test_scatter_gather_roundtrip(self, rng):
        d = SlabDecomposition((50, 8), 3, halo=2)
        x = rng.standard_normal((50, 8))
        np.testing.assert_array_equal(d.gather(d.scatter(x)), x)

    def test_scatter_copies(self, rng):
        d = SlabDecomposition((16,), 2, halo=1)
        x = rng.standard_normal(16)
        slabs = d.scatter(x)
        slabs[0][:] = 0.0
        assert x[0] != 0.0

    def test_gather_validation(self, rng):
        d = SlabDecomposition((16,), 2, halo=1)
        with pytest.raises(PlanError):
            d.gather([rng.standard_normal(8)])
        with pytest.raises(PlanError):
            d.gather([rng.standard_normal(7), rng.standard_normal(9)])

    def test_halo_cells_per_exchange(self):
        d = SlabDecomposition((64, 10), 4, halo=3)
        assert d.halo_cells_per_exchange() == 3 * 10 * 2


class TestExchange:
    def test_periodic_ring(self, rng):
        d = SlabDecomposition((12,), 3, halo=2, boundary="periodic")
        x = np.arange(12.0)
        ext = exchange_halos(d.scatter(x), d)
        np.testing.assert_array_equal(ext[0], [10, 11, 0, 1, 2, 3, 4, 5])
        np.testing.assert_array_equal(ext[2], [6, 7, 8, 9, 10, 11, 0, 1])

    def test_zero_edges(self):
        d = SlabDecomposition((12,), 3, halo=2, boundary="zero")
        ext = exchange_halos(d.scatter(np.arange(12.0)), d)
        np.testing.assert_array_equal(ext[0][:2], 0.0)
        np.testing.assert_array_equal(ext[2][-2:], 0.0)
        np.testing.assert_array_equal(ext[1], [2, 3, 4, 5, 6, 7, 8, 9])

    def test_zero_halo_is_copy(self, rng):
        d = SlabDecomposition((12,), 3, halo=0)
        slabs = d.scatter(rng.standard_normal(12))
        ext = exchange_halos(slabs, d)
        for a, b in zip(ext, slabs):
            np.testing.assert_array_equal(a, b)

    def test_slab_count_check(self, rng):
        d = SlabDecomposition((12,), 3, halo=1)
        with pytest.raises(PlanError):
            exchange_halos([rng.standard_normal(4)], d)

    def test_multi_round_periodic(self):
        # halo 5 > slab extent 3: each face spans two neighbour slabs.
        d = SlabDecomposition((12,), 4, halo=5, boundary="periodic")
        x = np.arange(12.0)
        ext = exchange_halos(d.scatter(x), d)
        np.testing.assert_array_equal(
            ext[0], [(i % 12) for i in range(-5, 8)]
        )
        np.testing.assert_array_equal(
            ext[3], [(i % 12) for i in range(4, 17)]
        )

    def test_multi_round_zero(self):
        d = SlabDecomposition((12,), 4, halo=5, boundary="zero")
        ext = exchange_halos(d.scatter(np.arange(12.0)), d)
        np.testing.assert_array_equal(ext[0][:5], 0.0)
        np.testing.assert_array_equal(ext[0][5:], np.arange(8.0))
        np.testing.assert_array_equal(ext[3][-5:], 0.0)
        # rank 1 owns rows [3, 6); its extension covers global rows
        # [-2, 11) — the two below-grid rows read as zero.
        np.testing.assert_array_equal(
            ext[1], np.concatenate([[0.0, 0.0], np.arange(11.0)])
        )

    def test_exchange_shape_check(self, rng):
        d = SlabDecomposition((12,), 3, halo=1)
        bad = d.scatter(rng.standard_normal(12))
        bad[1] = bad[1][:-1]
        with pytest.raises(PlanError):
            exchange_halos(bad, d)


class TestDistributedStencil:
    @pytest.mark.parametrize("ranks", [1, 2, 3, 5])
    @pytest.mark.parametrize("boundary", ["periodic", "zero"])
    def test_matches_single_device_1d(self, rng, ranks, boundary):
        x = rng.standard_normal(120)
        dist = DistributedStencil((120,), kz.heat_1d(), ranks, fused_steps=4, boundary=boundary)
        got = dist.run(x, 12)
        want = run_stencil(x, kz.heat_1d(), 12, boundary=boundary)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_matches_single_device_2d(self, rng):
        x = rng.standard_normal((48, 20))
        dist = DistributedStencil((48, 20), kz.box_2d9p(), 3, fused_steps=3)
        got = dist.run(x, 9)
        np.testing.assert_allclose(got, run_stencil(x, kz.box_2d9p(), 9), atol=1e-9)

    def test_zero_boundary_2d(self, rng):
        x = rng.standard_normal((40, 16))
        dist = DistributedStencil(
            (40, 16), kz.heat_2d(), 4, fused_steps=2, boundary="zero"
        )
        got = dist.run(x, 6)
        want = run_stencil(x, kz.heat_2d(), 6, boundary="zero")
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_residual_steps(self, rng):
        x = rng.standard_normal(90)
        dist = DistributedStencil((90,), kz.star_1d5p(), 2, fused_steps=5)
        got = dist.run(x, 13)  # 2*5 + 3
        np.testing.assert_allclose(got, run_stencil(x, kz.star_1d5p(), 13), atol=1e-9)

    @pytest.mark.parametrize(
        "shape, kernel, ranks, fused, boundary, steps",
        [
            ((120,), kz.heat_1d(), 3, 4, "periodic", 14),  # tail of 2
            ((120,), kz.star_1d5p(), 2, 4, "zero", 12),
            ((48, 20), kz.box_2d9p(), 3, 3, "periodic", 11),  # tail of 2
            ((40, 16), kz.heat_2d(), 4, 2, "zero", 7),  # tail of 1
        ],
    )
    def test_bit_identical_to_rank_tiled_plan(
        self, rng, shape, kernel, ranks, fused, boundary, steps
    ):
        x = rng.standard_normal(shape)
        dist = DistributedStencil(
            shape, kernel, ranks, fused_steps=fused, boundary=boundary
        )
        rank_tile = (-(-shape[0] // ranks),) + shape[1:]
        want = FlashFFTStencil(
            shape, kernel, fused_steps=fused, boundary=boundary,
            tile=rank_tile, workers=1,
        ).run(x, steps, tune=False)
        got = dist.run(x, steps)
        assert np.array_equal(got, want)
        assert dist.exchanges_performed == -(-steps // fused)

    def test_exchange_count(self, rng):
        x = rng.standard_normal(64)
        dist = DistributedStencil((64,), kz.heat_1d(), 2, fused_steps=4)
        dist.run(x, 16)
        assert dist.exchanges_performed == 4  # one per fused application

    def test_deeper_fusion_fewer_exchanges(self, rng):
        x = rng.standard_normal(64)
        shallow = DistributedStencil((64,), kz.heat_1d(), 2, fused_steps=2)
        deep = DistributedStencil((64,), kz.heat_1d(), 2, fused_steps=8)
        shallow.run(x, 16)
        deep.run(x, 16)
        assert deep.exchanges_performed < shallow.exchanges_performed

    def test_validation(self):
        with pytest.raises(PlanError):
            DistributedStencil((64, 64), kz.heat_1d(), 2)
        with pytest.raises(PlanError):
            DistributedStencil((64,), kz.heat_1d(), 2, fused_steps=0)

    @given(ranks=st.integers(1, 6), fused=st.integers(1, 6), seed=st.integers(0, 2**10))
    @settings(max_examples=15, deadline=None)
    def test_property_any_partition_exact(self, ranks, fused, seed):
        x = np.random.default_rng(seed).standard_normal(96)
        dist = DistributedStencil((96,), kz.heat_1d(), ranks, fused_steps=fused)
        got = dist.run(x, 12)
        np.testing.assert_allclose(got, run_stencil(x, kz.heat_1d(), 12), atol=1e-8)


class TestScalingModel:
    def test_interconnect_validation(self):
        with pytest.raises(PlanError):
            Interconnect("bad", 0.0, 1e-6)

    def test_strong_scaling_shape(self):
        pts = scaling_curve(kz.heat_1d(), 512 * 2**20, 1000, (1, 2, 4, 8))
        assert pts[0].speedup == pytest.approx(1.0)
        # Speedup grows with ranks while compute dominates...
        assert pts[1].speedup > 1.5
        assert pts[2].speedup > pts[1].speedup
        # ...and efficiency never exceeds 1.
        for p in pts:
            assert p.parallel_efficiency <= 1.0 + 1e-9

    def test_comm_fraction_grows_with_ranks(self):
        pts = scaling_curve(kz.heat_1d(), 1 << 24, 1000, (1, 4, 64))
        assert pts[0].comm_fraction == 0.0
        assert pts[-1].comm_fraction >= pts[1].comm_fraction

    def test_slow_link_saturates_sooner(self):
        fast = scaling_curve(kz.heat_1d(), 1 << 26, 1000, (16,), link=NVLINK4)
        slow = scaling_curve(kz.heat_1d(), 1 << 26, 1000, (16,), link=PCIE5)
        assert slow[0].seconds >= fast[0].seconds

    def test_validation(self):
        with pytest.raises(PlanError):
            scaling_curve(kz.heat_2d(), 1 << 20, 10)
        with pytest.raises(PlanError):
            scaling_curve(kz.heat_1d(), 4, 10, (8,))
