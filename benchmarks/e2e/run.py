"""End-to-end benchmark of the FlashFFTStencil reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1                      # all workloads
    python3 benchmarks/e2e/run.py --workload heat2d-iter --seed 3 --seconds 12
    python3 benchmarks/e2e/run.py --workload serve-mixed --seed 1 --trace 1

Each workload runs in fresh child processes (``child.py``) with every
``REPRO_*`` variable removed and an empty plan-cache directory.  Untraced
runs report the end-to-end metrics of ``spec.END_TO_END``; ``--trace 1``
runs the layer probes instead and reports ``spec.PER_LAYER``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts every failed op, refused and
expired requests included; the exit code is 1 when an answer was wrong, an
op raised, or a metric could not be measured, and 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for plan caches and span files, inside the checkout.
WORK = ROOT / ".bench_e2e"

sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, REF_NOMINAL_MS, WORKLOADS  # noqa: E402
from stats import Outcomes, supported_percentile  # noqa: E402

#: Measured-child fields kept in the report next to the metrics.
MEASURE_INFO = (
    "wall_ms_p50", "wall_ms_tail", "lead_ms_p50", "ref_ms_p50", "workers",
    "gen_late_p99_ms", "backlog",
)
#: Cold starts per workload; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Per-child wall-clock limits (seconds), well inside the 180 s run limit.
SETUP_TIMEOUT = 60
TRACE_TIMEOUT = 170


# ------------------------------------------------------------------ host


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(removed: list[str]) -> dict:
    import numpy
    import scipy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
        "removed_env": removed,
    }


# ---------------------------------------------------------------- children


def child_env() -> tuple[dict[str, str], list[str]]:
    """The parent environment minus every ``REPRO_*`` variable, with the
    program's sources first on the import path."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env, removed


def run_child(env: dict[str, str], args: list[str], timeout: float) -> dict | None:
    """Run ``child.py`` with a fresh plan-cache directory; its JSON result,
    or ``None`` when it crashed or timed out."""
    WORK.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="plancache-", dir=WORK)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env={**env, "REPRO_PLAN_CACHE": cache},
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"child {args} timed out after {timeout} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child {args} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


# -------------------------------------------------------------- workloads


def measure(env, names: list[str], seed: int, seconds: float) -> dict[str, dict]:
    """Untraced runs: interleaved cold starts, then the timed phase, each in
    a fresh child on every CPU, so the program keeps its default pools."""
    setups: dict[str, list[dict | None]] = {n: [] for n in names}
    for _ in range(SETUP_SAMPLES):
        for n in names:
            setups[n].append(run_child(env, ["setup", n, str(seed)], SETUP_TIMEOUT))
    out = {}
    for n in names:
        w = WORKLOADS[n]
        res = run_child(env, ["measure", n, str(seed), repr(seconds)], 4 * seconds + 90)
        outcomes = Outcomes.from_json(res["outcomes"]) if res else Outcomes()
        # Each cold start is one more op: it must return the same answer.
        good = [
            s for s in setups[n]
            if s is not None
            and s.get("ok", True)
            and (w.serve or res is None or s["digest"] == res["digest"])
        ]
        outcomes.attempted += len(setups[n])
        outcomes.wrong += len(setups[n]) - len(good)
        if res is None:
            outcomes.attempted += 1
            outcomes.errors += 1
            metrics = {}
        else:
            metrics = {
                "op_ms_p50": res["op_ms_p50"],
                "op_ms_tail": res["op_ms_tail"],
                "peak_rss_mb": res["peak_rss_mb"],
            }
        if good:
            metrics["setup_s"] = statistics.median(s["setup_s"] for s in good)
        info = {
            "ops": res["ops"] if res else 0,
            "tail_supported": bool(
                res and (supported_percentile(res["ops"]) or 0) >= w.tail_pct
            ),
            "setup_samples": [s["setup_s"] for s in good],
            "setup_wall_s": [s["wall_s"] for s in good],
            "setup_ref_ms": [s["ref_ms"] for s in good],
        }
        if res:
            info.update({k: res[k] for k in MEASURE_INFO if k in res})
        out[n] = {"metrics": metrics, "outcomes": outcomes, "info": info}
    return out


def traced(env, names: list[str], seed: int) -> dict[str, dict]:
    """Traced runs on every CPU: layer probes, spans written to a file."""
    out = {}
    for n in names:
        path = WORK / f"spans-{n}-seed{seed}.jsonl"
        res = run_child(env, ["trace", n, str(seed), str(path)], TRACE_TIMEOUT)
        if res is None:
            out[n] = {"metrics": {}, "outcomes": Outcomes(attempted=1, errors=1),
                      "info": {}}
            continue
        info = {k: v for k, v in res.items() if k not in ("metrics", "outcomes")}
        info["spans_file"] = str(path.relative_to(ROOT))
        out[n] = {"metrics": res["metrics"],
                  "outcomes": Outcomes.from_json(res["outcomes"]), "info": info}
    return out


# ----------------------------------------------------------------- report


def print_report(host: dict, results: dict[str, dict], trace: bool) -> None:
    print(
        f"host: {host['cpu_count']} CPUs (affinity {host['cpu_affinity']}), "
        f"{host['cpu_model']}; Python {host['python']}, numpy {host['numpy']}, "
        f"scipy {host['scipy']}; commit {host['git_commit']}; "
        f"load {host['loadavg_start']}; removed env {host['removed_env'] or 'none'}"
    )
    for n, r in results.items():
        o = r["outcomes"]
        print(f"\n{n}: attempted {o.attempted}, failed {o.failed} "
              f"(failed_frac {o.failed_frac:.4g})")
        m, i = r["metrics"], r["info"]
        if trace:
            for name, (unit, _) in PER_LAYER.items():
                if name in m:
                    print(f"  {name:42s} {m[name]:14.6g} {unit}")
            if "spans_file" in i:
                print(f"  spans: {i['spans_file']}")
            continue
        for name, (unit, better, bound) in END_TO_END.items():
            if name in m:
                print(f"  {name:14s} {m[name]:12.4f} {unit:3s}  "
                      f"{better} is better, bound {bound:.0%}")
        w = WORKLOADS[n]
        if "ops" in i:
            print(f"  op_ms_tail is p{w.tail_pct:g} over {i['ops']} ops"
                  + ("" if i["tail_supported"] else " (fewer than 10 beyond it)"))
        if "wall_ms_p50" in i:
            gst = w.points * w.steps / (i["wall_ms_p50"] / 1e3) / 1e9
            print(f"  wall clock on {i['workers']} shard worker(s): op p50 "
                  f"{i['wall_ms_p50']:.2f} ms, p{w.tail_pct:g} "
                  f"{i['wall_ms_tail']:.2f} ms = {gst:.4f} Gstencil/s; first op "
                  f"after the reference p50 {i['lead_ms_p50']:.2f} ms (not "
                  f"timed); host reference {i['ref_ms_p50']:.2f} ms "
                  f"(nominal {REF_NOMINAL_MS:g})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="timed phase of an untraced run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="1: layer probes and spans")
    ap.add_argument("--out", type=Path, default=None,
                    help="append each workload's report as one JSON line")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    env, removed = child_env()
    host = host_record(removed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    t0 = time.perf_counter()
    if args.trace:
        results = traced(env, names, args.seed)
        declared = PER_LAYER
    else:
        results = measure(env, names, args.seed, args.seconds)
        declared = END_TO_END
    total = Outcomes()
    for r in results.values():
        # A metric that could not be measured (no successful op) is missing.
        r["metrics"] = {k: v for k, v in r["metrics"].items() if math.isfinite(v)}
        total.add(r["outcomes"])
        if set(r["metrics"]) != set(declared):
            missing = sorted(set(declared) - set(r["metrics"]))
            print(f"missing metrics: {missing}", file=sys.stderr)
            total.errors += 1
    print_report(host, results, bool(args.trace))

    if args.out is not None:
        with open(args.out, "a") as f:
            for n, r in results.items():
                f.write(json.dumps({
                    "workload": n,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "outcomes": r["outcomes"].to_json(),
                    "metrics": r["metrics"],
                    "info": r["info"],
                    "host": host,
                    "wall_s": time.perf_counter() - t0,
                }, sort_keys=True) + "\n")

    units = {k: v[0] for k, v in declared.items()}
    if len(names) == 1:
        metrics = {
            k: {"value": v, "unit": units[k]}
            for k, v in results[names[0]]["metrics"].items()
        }
    else:
        metrics = {
            f"{n}/{k}": {"value": v, "unit": units[k]}
            for n, r in results.items()
            for k, v in r["metrics"].items()
        }
    # Refused and expired requests count as failed ops, but the answers
    # that were returned are still right: only wrong answers, exceptions
    # and missing metrics make the run incorrect.
    correct = total.wrong == 0 and total.errors == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, total.attempted),
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
