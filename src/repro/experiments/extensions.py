"""Extension studies beyond the paper's figures: scaling, accuracy, residency.

* ``scaling`` — strong-scaling prediction of FlashFFTStencil over 1-16
  simulated GPUs (slab decomposition + NVLink halo exchange), with the
  functional multi-rank simulation validated at reduced scale first.
* ``accuracy`` — fused-vs-sequential roundoff across fusion depths: the
  numerical guardrail behind §4's "theoretically unrestricted" fusion.
* ``resident`` — segment-resident iteration: per-geometry traffic saved
  by replacing the per-application stitch + re-split round trip with a
  halo exchange, with bit-identity asserted on every row.
* ``distributed`` — the multi-rank simulation: measured halo-exchange
  time per application vs the ``HOST_SHM`` cost-model prediction, with
  bit-identity asserted on every row.
* ``precision`` — the mixed-precision tier: measured float32-vs-float64
  drift per heat case against the router's modeled bound, plus the tier
  each declared tolerance routes to (TECHNIQUES.md §17).
* ``autotune`` — the online tuner: the configuration the joint-space
  search picks per geometry, the trial steps it spent deciding, and the
  persisted winner replaying on a second run without re-trialing
  (TECHNIQUES.md §18).
"""

from __future__ import annotations

import numpy as np

from ..analysis.accuracy import PrecisionErrorModel, fusion_error_sweep
from ..core.kernels import heat_1d, heat_2d, heat_3d
from ..core.plan import FlashFFTStencil
from ..core.reference import run_stencil
from ..distributed import (
    HOST_SHM,
    DistributedStencil,
    NVLINK4,
    predict_exchange_seconds,
    scaling_curve,
)
from ..observability import Telemetry
from ..workloads.generators import random_field
from ._fmt import header, table

__all__ = [
    "autotune",
    "accuracy",
    "distributed",
    "precision",
    "resident",
    "scaling",
]


def scaling() -> str:
    """Strong scaling of FlashFFTStencil across simulated GPUs."""
    kernel = heat_1d()
    # 1) functional check: the 4-rank simulation is exact at reduced scale.
    grid = random_field(4096, seed=2)
    dist = DistributedStencil((4096,), kernel, ranks=4, fused_steps=8)
    got = dist.run(grid, 32)
    err = float(np.max(np.abs(got - run_stencil(grid, kernel, 32))))
    assert err < 1e-8

    # 2) paper-scale prediction.
    pts = scaling_curve(
        kernel, 512 * 2**20, 1000, rank_counts=(1, 2, 4, 8, 16), link=NVLINK4
    )
    rows = [
        [
            str(p.ranks),
            f"{p.seconds:.3f}s",
            f"{p.speedup:.2f}x",
            f"{p.parallel_efficiency:.0%}",
            f"{p.comm_fraction:.1%}",
        ]
        for p in pts
    ]
    note = (
        f"\nfunctional 4-rank simulation exact to {err:.1e};"
        "\nhalo exchange = fused_steps x radius cells per face per application"
    )
    return (
        header("Extension: strong scaling over simulated GPUs (Heat-1D, NVLink4)")
        + "\n"
        + table(rows, ["ranks", "time", "speedup", "efficiency", "comm share"])
        + note
    )


def accuracy() -> str:
    """Fusion-depth roundoff study (the §4 guardrail)."""
    rows = []
    for kernel in (heat_1d(), ):
        for r in fusion_error_sweep(
            kernel, grid_points=4096, depths=(1, 4, 16, 64, 256), total_steps=256
        ):
            rows.append(
                [
                    kernel.name,
                    str(r.fused_steps),
                    str(r.total_steps),
                    f"{r.max_rel_error:.2e}",
                    f"{r.spectral_radius:.3f}",
                ]
            )
    note = (
        "\nspectral radius <= 1 (stable kernel): spectrum powers are"
        "\nwell-conditioned, so even 256-step fusion stays FP64-exact."
    )
    return (
        header("Extension: temporal-fusion accuracy (fused vs sequential)")
        + "\n"
        + table(rows, ["kernel", "fused", "total steps", "max rel err", "spectral radius"])
        + note
    )


def precision() -> str:
    """Mixed-precision tier study: measured drift vs the routing model.

    For each heat case the float32 tier's normalized drift from the
    float64 reference is measured after a multi-application run and set
    against :class:`~repro.analysis.accuracy.PrecisionErrorModel`'s
    prediction (the bound the tolerance router trusts); the last column
    shows which tier a sweep of declared budgets actually routes to.
    """
    from ..robustness.sentinel import normalized_drift

    cases = (
        ("Heat-1D", (4096,), heat_1d, 8),
        ("Heat-2D", (128, 128), heat_2d, 4),
        ("Heat-3D", (32, 32, 32), heat_3d, 2),
    )
    steps_mult = 4
    rows = []
    for name, shape, kf, fused in cases:
        plan = FlashFFTStencil(shape, kf(), fused_steps=fused)
        total = fused * steps_mult
        grid = random_field(shape, seed=7)
        ref = plan.run(grid, total)
        got = plan.variant("float32").run(grid.astype(np.float32), total)
        drift = normalized_drift(got, ref)
        bound = PrecisionErrorModel(plan).predicted(total)
        assert drift <= bound
        routes = "/".join(
            "f32" if plan.router().route(total, t) == "float32" else "f64"
            for t in (1e-3, 1e-6, 1e-13)
        )
        rows.append(
            [
                name,
                str(total),
                f"{drift:.2e}",
                f"{bound:.2e}",
                routes,
            ]
        )
    note = (
        "\nroutes column: tier chosen for tolerance 1e-3 / 1e-6 / 1e-13;"
        "\nmeasured drift <= modeled bound asserted on every row."
    )
    return (
        header("Extension: mixed-precision tier (float32 drift vs routed bound)")
        + "\n"
        + table(rows, ["case", "steps", "drift", "modeled bound", "routes"])
        + note
    )


def distributed() -> str:
    """Scale-out exchange study: measured vs cost-model halo traffic time.

    Runs :class:`~repro.distributed.DistributedStencil` (one window tile
    per simulated rank, halos refreshed in place between applications) on
    validation-scale heat geometries, asserts bit-identity against the
    rank-tiled plan's stitched ``run``, and compares the measured
    per-transition ``exchange`` span with the
    :data:`~repro.distributed.HOST_SHM` cost-model prediction for the
    halo bytes the exchange moves (``stale_points`` x itemsize).
    """
    cases = (
        ("Heat-1D", (1 << 18,), heat_1d, 8),
        ("Heat-2D", (256, 256), heat_2d, 4),
    )
    ranks, apps = 2, 6
    rows = []
    for name, shape, kf, fused in cases:
        dist = DistributedStencil(shape, kf(), ranks=ranks, fused_steps=fused)
        grid = random_field(shape, seed=23)
        # The reference must be the static stitched configuration even
        # when $REPRO_AUTOTUNE / $REPRO_RESIDENT are armed.
        want = dist.plan.run(grid, apps * fused, resident=False, tune=False)
        tel = Telemetry()
        got = dist.run(grid, apps * fused, telemetry=tel)
        assert np.array_equal(got, want), f"{name}: distributed result diverged"
        spans = tel.stage_seconds()
        exchange_s = sum(s for p, s in spans.items() if p.endswith("exchange"))
        seg = dist.plan.segments
        n_bytes = seg.exchange_plan().stale_points * seg.dtype.itemsize
        measured_ms = 1e3 * exchange_s / (apps - 1)
        predicted_ms = 1e3 * predict_exchange_seconds(n_bytes, HOST_SHM)
        rows.append(
            [
                name,
                "x".join(str(s) for s in shape),
                str(ranks),
                f"{n_bytes / 1024:.1f} KiB",
                f"{measured_ms:.4f} ms",
                f"{predicted_ms:.4f} ms",
                "bit-identical",
            ]
        )
    note = (
        "\nmeasured = exchange span per transition; predicted = halo bytes"
        f"\nover {HOST_SHM.name} ({HOST_SHM.bandwidth_gbs:.0f} GB/s + "
        f"{1e6 * HOST_SHM.latency_s:.0f} us)."
    )
    return (
        header(f"Extension: multi-rank halo exchange ({apps} applications)")
        + "\n"
        + table(
            rows,
            ["workload", "grid", "ranks", "cross-rank/app", "measured",
             "predicted", "equality"],
        )
        + note
    )


def resident() -> str:
    """Resident-iteration traffic study: halo exchange vs stitch + re-split.

    For each validation-scale heat geometry, runs the stitch-per-
    application and resident engines on the same grid, asserts bit
    identity, and derives from the telemetry counters the inter-
    application traffic each engine moves: the baseline round-trips
    ``2 x grid`` points per application (stitch out + gather in), the
    resident engine moves ``stale_points`` halo values per transition.
    """
    cases = (
        ("Heat-1D", (4096,), heat_1d, (256,), 8),
        ("Heat-2D", (192, 192), heat_2d, (32, 32), 4),
        ("Heat-3D", (48, 48, 48), heat_3d, (16, 16, 16), 2),
    )
    apps = 4
    rows = []
    for name, shape, kf, tile, fused in cases:
        plan = FlashFFTStencil(shape, kf(), fused_steps=fused, tile=tile)
        grid = random_field(shape, seed=11)
        steps = apps * fused
        want = plan.run(grid, steps, resident=False)
        tel = Telemetry()
        got = plan.run(grid, steps, resident=True, telemetry=tel)
        assert np.array_equal(got, want), f"{name}: resident result diverged"
        c = tel.snapshot()["counters"]
        ex = plan.segments.exchange_plan()
        g = int(np.prod(shape))
        saved = c["hbm_round_trips_saved"]
        assert saved == apps - 1
        assert c["halo_points_exchanged"] == saved * ex.stale_points
        base_moved = 2 * apps * g            # stitch out + gather in, per app
        res_moved = 2 * g + saved * ex.stale_points
        rows.append(
            [
                name,
                "x".join(str(s) for s in shape),
                ex.strategy,
                f"{100 * ex.stale_points / g:.1f}%",
                str(saved),
                f"{base_moved / res_moved:.1f}x",
                "bit-identical",
            ]
        )
    note = (
        "\ntraffic = grid values moved between applications (stitch+gather"
        "\nvs halo exchange); wall-clock gate: benchmarks/bench_resident.py"
    )
    return (
        header(f"Extension: segment-resident iteration ({apps} applications)")
        + "\n"
        + table(
            rows,
            ["workload", "grid", "exchange", "halo/grid", "trips saved",
             "traffic cut", "equality"],
        )
        + note
    )


def autotune() -> str:
    """Online-tuner study: what the joint-space search picks, and when.

    For each validation-scale heat geometry, a fresh
    :class:`~repro.tuner.OnlineTuner` (floors lowered to admit the small
    grids) searches the joint configuration space on the live run, the
    result is checked against the direct reference engine, and a second
    identical run must replay the persisted winner without a single new
    trial step.  The wall-clock gate (within 5 % of best hand-tuned,
    never slower than static, bounded first-run overhead) lives in
    ``benchmarks/bench_autotune.py``.
    """
    from ..tuner import OnlineTuner, TunerPolicy
    from ..tuner.space import static_candidate

    cases = (
        ("Heat-1D", (1 << 16,), heat_1d, (1024,), 8),
        ("Heat-2D", (128, 128), heat_2d, (32, 32), 4),
    )
    apps = 8
    rows = []
    for name, shape, kf, tile, fused in cases:
        plan = FlashFFTStencil(shape, kf(), fused_steps=fused, tile=tile)
        grid = random_field(shape, seed=29)
        steps = apps * fused
        want = run_stencil(grid, plan.kernel, steps)
        tuner = OnlineTuner(policy=TunerPolicy(min_points=1))
        got = tuner.run(plan, grid, steps)
        err = float(np.max(np.abs(got - want)))
        assert err < 1e-8, f"{name}: tuned result diverged ({err:.2e})"
        first = tuner.info()
        trial_steps = first["trials_run"]
        tuner.run(plan, grid, steps)
        second = tuner.info()
        assert second["searches"] == first["searches"], f"{name}: re-searched"
        assert second["trials_run"] == trial_steps, f"{name}: re-trialed"
        cand = tuner.tune(plan, grid, steps)
        rows.append(
            [
                name,
                "x".join(str(s) for s in shape),
                static_candidate(plan, steps).label(),
                cand.label(),
                str(trial_steps),
                "cached" if second["cache_hits"] > first["cache_hits"] else "?",
                f"{err:.1e}",
            ]
        )
    note = (
        "\ntrial steps = simulated steps spent on live paired trials"
        "\n(bounded by the policy's 20% traffic fraction); rerun column:"
        "\nthe second identical run replays the winner without trials."
        "\nwall-clock gate: benchmarks/bench_autotune.py"
    )
    return (
        header(f"Extension: online autotuning ({apps} applications)")
        + "\n"
        + table(
            rows,
            ["workload", "grid", "static", "tuned", "trial steps", "rerun",
             "max err"],
        )
        + note
    )
