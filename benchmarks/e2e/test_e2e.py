"""Tests of the benchmark's own logic.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from child import HostReference, timed_ops  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS, Requests  # noqa: E402
from stats import (  # noqa: E402
    Outcomes,
    min_samples,
    quartile_spread,
    self_ms_by_name,
    self_times,
    supported_percentile,
)

# ------------------------------------------------------------ percentiles


@pytest.mark.parametrize(
    "n, q",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_supported_percentile_keeps_ten_samples_beyond(n, q):
    assert supported_percentile(n) == q


@pytest.mark.parametrize("q, n", [(50.0, 20), (75.0, 40), (90.0, 100), (99.0, 1000)])
def test_min_samples_is_exact(q, n):
    # 1 - 0.9 is not exactly 0.1 in binary floating point; the rule is exact.
    assert min_samples(q) == n
    assert supported_percentile(n) == q


def test_every_workload_tail_is_supported_by_its_minimum():
    for w in WORKLOADS.values():
        assert supported_percentile(min_samples(w.tail_pct)) >= w.tail_pct


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([90, 95, 100, 105, 110]) == pytest.approx(0.15)
    assert quartile_spread([7.0] * 10) == 0.0


# -------------------------------------------------------------- self time


def span(sid, start, end, parent=None, thread="main"):
    return {"span_id": sid, "parent_id": parent, "name": f"s{sid}",
            "start_ns": start, "end_ns": end, "thread": thread}


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        span(1, 0, 100),
        span(2, 10, 50, parent=1, thread="shard-0"),
        span(3, 30, 70, parent=1, thread="shard-1"),
        span(4, 90, 120, parent=1),  # clipped to the parent's end
        span(5, 20, 40, parent=2),   # a grandchild never touches the root
    ]
    selfs = self_times(spans)
    assert selfs[1] == 100 - (60 + 10)
    assert selfs[2] == 40 - 20
    assert selfs[3] == 40
    assert self_ms_by_name(spans)["s1"]["self_ms"] == pytest.approx(30e-6)


def test_self_time_of_leaf_is_its_duration():
    assert self_times([span(7, 5, 9)]) == {7: 4}


# --------------------------------------------------------------- failures


def test_wrong_output_counts_as_failed():
    first = np.zeros(4)
    calls = iter(range(1000))

    def op():
        return np.ones(4) if next(calls) == 3 else np.zeros(4)

    out = Outcomes()
    t = timed_ops(op, first, lambda: None, seconds=0.0, need=10, outcomes=out,
                  cycle_s=0.0, cycle_ops=3)
    # Four cycles of one untimed lead op and three timed ops.
    assert len(t.op_s) == len(t.ref_s) == 12 and len(t.lead_s) == 4
    assert out.attempted == 16
    assert out.wrong == 1 and out.failed == 1


def test_no_timed_op_follows_the_reference():
    log = []

    def op():
        log.append("op")
        return np.zeros(1)

    def ref():
        log.append("ref")

    out = Outcomes()
    t = timed_ops(op, np.zeros(1), ref, seconds=0.0, need=4, outcomes=out,
                  cycle_s=0.0, cycle_ops=2)
    # ref, lead, 2 timed ops, ref, lead, 2 timed ops, ref
    assert log == ["ref"] + (["op"] * 3 + ["ref"]) * 2
    assert len(t.op_s) == 4 and len(t.lead_s) == 2


def test_raising_op_counts_as_failed():
    def op():
        raise RuntimeError("boom")

    out = Outcomes()
    timed_ops(op, np.zeros(1), lambda: None, seconds=0.0, need=2, outcomes=out,
              cycle_s=0.0)
    assert out.errors == out.failed == out.attempted == 3


def test_host_reference_runs_one_part_per_cpu():
    ref = HostReference()
    assert len(ref.parts) == len(os.sched_getaffinity(0))
    ref()
    first = [p.out.copy() for p in ref.parts]
    ref()
    for p, out in zip(ref.parts, first):
        np.testing.assert_array_equal(p.out, out)


def serve_phase(config, wrong_key=None, n=6):
    """Run ``n`` simultaneous requests through a real server."""
    from repro import FlashFFTStencil, ServingConfig, StencilServer, heat_2d

    from serve import open_loop

    plan = FlashFFTStencil((16, 16), heat_2d(), fused_steps=4)
    pool = [np.random.default_rng(i).standard_normal((16, 16)) for i in range(2)]
    oracle = {(g, 4): plan.run(pool[g], 4) for g in range(2)}
    if wrong_key is not None:
        oracle[wrong_key] = oracle[wrong_key] + 1.0
    reqs = Requests(
        due_s=np.zeros(n), grid=np.arange(n) % 2, steps=np.full(n, 4),
        tenant=np.zeros(n, dtype=int), tolerant=np.zeros(n, dtype=bool),
    )

    async def main():
        server = StencilServer(plan, ServingConfig(**config))
        await server.start()
        try:
            return await open_loop(server, reqs, pool, oracle, rate=100.0)
        finally:
            await server.stop()

    return asyncio.run(main()).outcomes


def test_served_answers_are_checked_and_clean_run_passes():
    out = serve_phase({})
    assert out.attempted == 6 and out.failed == 0


def test_wrong_served_answer_counts_as_failed():
    out = serve_phase({}, wrong_key=(1, 4))
    assert out.wrong == 3 and out.failed == 3


def test_rejected_request_counts_as_failed():
    out = serve_phase({"max_queue": 2})
    assert out.rejected == 4 and out.failed == 4


def test_expired_request_counts_as_failed():
    out = serve_phase({"request_timeout_ms": 0.001})
    assert out.expired == 6 and out.errors == 0 and out.failed == 6


# -------------------------------------------------------------- compare


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    same = [v * 1.01 for v in base]
    slow = [v * 1.3 for v in base]
    fast = [v * 0.8 for v in base]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]

    def v(change):
        return compare.verdict(base, change, "lower", 0.10, list(zip(base, change)))

    assert v(same) == "same"
    assert v(slow) == "worse"
    assert v(fast) == "better"
    assert v(noisy) == "unresolved"
    # Every change run better than every parent run resolves a wide spread.
    wide = [50.0, 70.0, 55.0, 65.0, 60.0, 52.0, 68.0, 58.0, 62.0, 57.0]
    assert v(wide) == "better"


# --------------------------------------------------------- declarations


def test_benchmark_json_declares_what_the_benchmark_prints():
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert decl["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in decl["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in decl["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in decl["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in decl["per_layer"]
    } == PER_LAYER


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "heat2d-iter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
