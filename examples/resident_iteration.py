#!/usr/bin/env python
"""Resident iteration: keep windows on-chip, exchange halos, skip the stitch.

The stitch-per-application engine round-trips the whole grid through
memory twice per fused application: stitch the valid interiors out, then
re-gather overlapping windows back in.  ``run(..., resident=True)`` keeps
the window batch resident instead and refreshes each window's halo
directly from its neighbours' valid regions — bit-identical under
overlap-save (every halo point has exactly one owner), but moving only
the halo points.

This example advances one 2-D heat grid both ways and uses telemetry to
show the mechanism: the per-application ``split``/``stitch`` spans of the
baseline collapse into a single entry/exit pair plus a tiny ``exchange``
span, and the ``hbm_round_trips_saved`` counter ticks once per interior
transition.  Everything is asserted, not just printed.

Run:  python examples/resident_iteration.py
      REPRO_RESIDENT=1 python examples/resident_iteration.py   # fleet default
"""

from __future__ import annotations

import numpy as np

from repro import FlashFFTStencil, heat_2d
from repro.observability import Telemetry

SHAPE = (192, 192)
TILE = (32, 32)
FUSED = 4
APPLICATIONS = 6
STEPS = APPLICATIONS * FUSED


def main() -> None:
    rng = np.random.default_rng(7)
    x = rng.standard_normal(SHAPE)
    # workers=1 keeps the span story serial and machine-independent (the
    # sharded engine runs the same resident loop with per-shard spans).
    plan = FlashFFTStencil(SHAPE, heat_2d(), fused_steps=FUSED, tile=TILE, workers=1)

    # ---- run both engines with telemetry attached ------------------
    tel_base = Telemetry()
    # resident=False pins the baseline's serial stitched path even under
    # REPRO_RESIDENT=1 (the span-shape assertions below describe that
    # specific engine).
    want = plan.run(x, STEPS, telemetry=tel_base, resident=False)
    tel_res = Telemetry()
    got = plan.run(x, STEPS, telemetry=tel_res, resident=True)

    # Bit-identical, not approximately equal: the halo exchange copies
    # the very same values the stitch + re-split would have produced.
    assert np.array_equal(got, want), "resident result must be bit-identical"

    base = tel_base.snapshot()
    res = tel_res.snapshot()
    bc, rc = base["counters"], res["counters"]

    ex = plan.segments.exchange_plan()
    print(f"grid {SHAPE}, tile {TILE}, fused_steps={FUSED}, "
          f"{APPLICATIONS} applications")
    print(f"exchange strategy: {ex.strategy}  "
          f"(halo = {ex.stale_points} of {int(np.prod(SHAPE))} grid points "
          f"per transition)\n")

    def _calls(snap: dict, stage: str) -> int:
        span = snap["spans"].get(stage)
        return span["calls"] if span else 0

    print(f"{'stage calls':<14}{'baseline':>10}{'resident':>10}")
    for stage in ("split", "fuse", "exchange", "stitch"):
        print(f"{stage:<14}{_calls(base, stage):>10}{_calls(res, stage):>10}")

    # The mechanism, asserted: the baseline splits and stitches once per
    # application; the resident engine does each exactly once and runs an
    # exchange on the transitions in between.
    assert _calls(base, "split") == APPLICATIONS
    assert _calls(base, "stitch") == APPLICATIONS
    assert _calls(base, "exchange") == 0
    assert _calls(res, "split") == 1
    assert _calls(res, "stitch") == 1
    assert _calls(res, "exchange") == APPLICATIONS - 1

    saved = rc["hbm_round_trips_saved"]
    assert saved == APPLICATIONS - 1
    assert rc["halo_points_exchanged"] == saved * ex.stale_points
    assert bc["points_stitched"] == APPLICATIONS * int(np.prod(SHAPE))
    assert rc["points_stitched"] == int(np.prod(SHAPE))

    moved_base = 2 * APPLICATIONS * int(np.prod(SHAPE))  # stitch out + gather in
    moved_res = 2 * int(np.prod(SHAPE)) + saved * ex.stale_points
    print(f"\nround trips saved: {saved}")
    print(f"points moved between applications: {moved_base} -> {moved_res} "
          f"({moved_base / moved_res:.1f}x less traffic)")
    print("resident run is bit-identical to stitch-per-application: OK")


if __name__ == "__main__":
    main()
