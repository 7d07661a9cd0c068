"""Host windows: geometry conformance of default periodic multi-D plans.

A ``tile=None`` periodic plan of two or more dimensions cuts axis 0 into
one slab per default shard worker and spans every other axis whole; the
halo is 0 on every axis a tile spans end to end, because the circular FFT
supplies the periodic wrap exactly.  One seeded matrix — odd and prime
extents, T in {1, 2, 4}, one or two slabs — checks the answer against the
direct stencil, the halo rule, bit-identity across worker counts and
engines, and that the GPU model keeps its Eq. (5) windows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.flashfft import FlashFFTMethod
from repro.core import kernels as kz
from repro.core.plan import MIN_SLAB_HALOS, FlashFFTStencil, eq5_tile, host_slabs
from repro.core.reference import run_stencil
from repro.gpusim.spec import A100
from repro.parallel.sharding import WORKERS_ENV

GRIDS = [
    ((97, 130), kz.heat_2d),
    ((130, 97), kz.box_2d9p),
    ((97, 26, 13), kz.heat_3d),
    ((130, 13, 11), kz.heat_3d),
    ((31, 29), kz.heat_2d),  # T >= 2: slabs would be too short, so one
]


def _case_id(case) -> str:
    shape, kf = case
    return f"{kf().name}-{'x'.join(map(str, shape))}"


@pytest.fixture(params=[1, 2], ids=lambda w: f"{w}slab-workers")
def slab_workers(request, monkeypatch):
    """The default worker count the geometry is cut for (and so the slabs)."""
    monkeypatch.setenv(WORKERS_ENV, str(request.param))
    return request.param


@pytest.mark.parametrize("case", GRIDS, ids=_case_id)
@pytest.mark.parametrize("fused", [1, 2, 4])
def test_host_window_conformance(case, fused, slab_workers):
    shape, kf = case
    kernel = kf()
    seed = 1000 * fused + 10 * len(shape) + slab_workers
    x = np.random.default_rng(seed).standard_normal(shape)
    steps = 2 * fused + 1  # two full applications plus a remainder tail
    plan = FlashFFTStencil(shape, kernel, fused_steps=fused)
    seg = plan.segments

    # Geometry: one axis-0 slab per worker (fewer when slabs would be
    # shorter than MIN_SLAB_HALOS halos); every other axis whole.
    halo0 = fused * kernel.radius[0]
    slabs = max(1, min(slab_workers, shape[0] // (MIN_SLAB_HALOS * halo0)))
    assert host_slabs(shape, kernel, fused) == slabs
    assert seg.num_segments == (slabs,) + (1,) * (len(shape) - 1)
    assert seg.valid_shape[1:] == shape[1:]

    # Halo rule: 0 exactly on the periodic axes a tile spans end to end.
    for axis, (h, s, g, r) in enumerate(
        zip(seg.halo, seg.valid_shape, shape, kernel.radius)
    ):
        assert h == (0 if s == g else fused * r), axis
    assert (seg.halo[0] == 0) == (slabs == 1)

    # Answer: within 1e-10 of the direct stencil.
    got = plan.run(x, steps)
    want = run_stencil(x, kernel, steps, boundary="periodic")
    assert np.max(np.abs(got - want)) <= 1e-10

    # Worker count never re-cuts the windows: sharded == serial, bitwise.
    sharded = FlashFFTStencil(shape, kernel, fused_steps=fused, workers=2)
    serial = FlashFFTStencil(shape, kernel, fused_steps=fused, workers=1)
    assert sharded.segments == serial.segments == seg
    assert sharded.effective_workers == min(2, slabs)
    assert serial.effective_workers == 1
    np.testing.assert_array_equal(sharded.run(x, steps), got)
    np.testing.assert_array_equal(serial.run(x, steps), got)

    # Resident iteration (halo exchange) == stitch per application.
    np.testing.assert_array_equal(plan.run(x, steps, resident=True), got)
    np.testing.assert_array_equal(sharded.run(x, steps, resident=True), got)


@pytest.mark.parametrize("case", GRIDS[::2], ids=_case_id)
@pytest.mark.parametrize("fused", [1, 2])
def test_gpu_model_keeps_eq5_windows(case, fused, slab_workers):
    shape, kf = case
    kernel = kf()
    default = FlashFFTStencil(shape, kernel, fused_steps=fused)
    tile, _ = eq5_tile(shape, kernel, fused, A100, "float64")
    explicit = FlashFFTStencil(shape, kernel, fused_steps=fused, tile=tile)

    def geometry(seg):
        return seg.valid_shape, seg.local_shape, seg.halo

    assert geometry(default.gpu_segments) == geometry(explicit.gpu_segments)
    assert default.gpu_segments.halo == tuple(fused * r for r in kernel.radius)
    a, b = default.measure(sample_segments=2), explicit.measure(sample_segments=2)
    assert a.flops_per_point == b.flops_per_point
    assert a.bytes_per_point == b.bytes_per_point
    assert a.sparsity == b.sparsity
    assert a.tcu_utilization == b.tcu_utilization
    assert a.occupancy == b.occupancy


@pytest.mark.parametrize("kf", [kz.heat_2d, kz.heat_3d], ids=lambda f: f().name)
def test_baseline_cost_matches_explicit_eq5_tile(kf, slab_workers):
    kernel = kf()
    fused = 4
    method = FlashFFTMethod(fused_steps=fused)
    got = method.cost(kernel, 1 << 24, 100, A100)
    # The representative grid FlashFFTMethod.cost measures on.
    rep = {2: (512, 1536), 3: (512, 128, 1536)}[kernel.ndim]
    tile, _ = eq5_tile(rep, kernel, fused, A100, "float64")
    explicit = FlashFFTStencil(rep, kernel, fused_steps=fused, tile=tile)
    want = explicit.paper_scale_cost(
        1 << 24, 100, explicit.measure(sample_segments=2)
    )
    assert got == want
