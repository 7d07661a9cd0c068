"""Compare two result sets of the end-to-end benchmark, metric by metric.

A result set is the JSON-lines file ``run.py --out`` appends to: one line
per workload per run, typically ten seeds per workload.  Usage::

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

One row per workload x end-to-end metric, plus ``failed_frac``:

* ``unresolved`` -- either side's quartile spread exceeds the metric's bound,
  unless every change run reads better than every parent run;
* ``worse`` -- the change's median is worse than the parent's by more than
  the bound;
* ``better`` -- the change wins at least 9 in 10 of the paired runs (ties
  count for neither) and the medians differ by more than the parent's
  inter-quartile distance;
* ``same`` -- anything else.

``failed_frac`` is worse on any increase.  Exit code 1 if any row is
``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spec import END_TO_END  # noqa: E402
from stats import quartile_spread  # noqa: E402

#: Share of paired runs the change must win to count as better.
WIN_SHARE = 0.9


def load(path: Path) -> dict[str, list[dict]]:
    """Untraced run reports grouped by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if not rec.get("trace"):
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Runs paired by seed where both sides ran the same seeds, else by order."""
    by_seed = {r["seed"]: r for r in change}
    if len(by_seed) == len(change) and {r["seed"] for r in parent} == set(by_seed):
        return [(p, by_seed[p["seed"]]) for p in parent]
    return list(zip(parent, change))


def verdict(
    parent: list[float], change: list[float], better: str, bound: float,
    paired: list[tuple[float, float]],
) -> str:
    lower = better == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    if len(parent) < 2 or len(change) < 2:
        return "unresolved"
    pm, cm = statistics.median(parent), statistics.median(change)
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    all_better = all(beats(c, p) for c in change for p in parent)
    spread = max(quartile_spread(parent), quartile_spread(change))
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(beats(c, p) for p, c in paired)
    if wins >= WIN_SHARE * len(paired) and abs(cm - pm) > q3 - q1 and worse_by < 0:
        return "better"
    return "same"


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[dict]:
    rows = []
    for w in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(w, []), change.get(w, [])
        paired_runs = pairs(p_runs, c_runs)
        for name, (unit, better, bound) in END_TO_END.items():
            pv = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            cv = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            paired = [
                (p["metrics"][name], c["metrics"][name])
                for p, c in paired_runs
                if name in p["metrics"] and name in c["metrics"]
            ]
            rows.append({
                "workload": w, "metric": name, "unit": unit, "bound": bound,
                "parent": statistics.median(pv) if pv else None,
                "change": statistics.median(cv) if cv else None,
                "spread": max(
                    (quartile_spread(v) for v in (pv, cv) if len(v) >= 2),
                    default=None,
                ),
                "verdict": verdict(pv, cv, better, bound, paired),
            })
        frac = [
            sum(r["outcomes"]["failed"] for r in runs)
            / max(1, sum(r["outcomes"]["attempted"] for r in runs))
            for runs in (p_runs, c_runs)
        ]
        rows.append({
            "workload": w, "metric": "failed_frac", "unit": "ratio", "bound": 0.0,
            "parent": frac[0], "change": frac[1], "spread": None,
            "verdict": "worse" if frac[1] > frac[0]
            else "better" if frac[1] < frac[0] else "same",
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    rows = compare(load(args.parent), load(args.change))

    def fmt(v: float | None) -> str:
        return "-" if v is None else f"{v:.4g}"

    print(f"{'workload':12s} {'metric':12s} {'unit':5s} {'parent':>10s} "
          f"{'change':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:12s} {r['metric']:12s} {r['unit']:5s} "
              f"{fmt(r['parent']):>10s} {fmt(r['change']):>10s} "
              f"{fmt(r['spread']):>7s} {r['bound']:>6.0%}  {r['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
