"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json [--paired]

A result set is what ``run.py --out FILE`` writes.  Smoke and traced
runs in it are skipped.  A full run of another length than
BENCHMARK.json's ``run_seconds``, or one that failed its checks, is
refused, so runs of different lengths never meet in one verdict.  For every workload and
BENCHMARK.json end-to-end metric it prints each side's median and
quartiles and a verdict, using BENCHMARK.json's bounds:

* ``unresolved`` - the run-to-run spread (quartile distance) of either
  side is wider than the bound, unless every NEW run reads better than
  every BASE run;
* ``worse`` - NEW's median is worse than BASE's by more than the bound;
* ``better`` - NEW wins at least nine tenths of the pairs and the
  medians differ by more than BASE's own quartile distance;
* ``same`` - otherwise.

A bound is a share of BASE's median.  Pairs are runs matched by position within a workload with ``--paired``
(alternate the two sides when producing them); otherwise every BASE run
is paired with every NEW run.  Ties count for neither side.  Exit
status 1 when any metric is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import common


def load_runs(path: Path, run_seconds: float) -> Dict[str, List[dict]]:
    """Untraced, full-length runs of a result set, by workload."""
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    by_workload: Dict[str, List[dict]] = {}
    for run in runs:
        if run["smoke"] or run["trace"]:
            continue
        where = f"{path}: a {run['workload']} run (seed {run['seed']})"
        if run["seconds"] != run_seconds:
            raise SystemExit(
                f"{where} measured {run['seconds']:g} s, not "
                f"BENCHMARK.json's {run_seconds:g} s"
            )
        if not run["correct"]:
            raise SystemExit(f"{where} failed its checks")
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def _better(a: float, b: float, direction: str) -> bool:
    """Does ``b`` read better than ``a``?"""
    return b < a if direction == "lower" else b > a


def verdict(base: List[float], new: List[float], meta: dict,
            paired: bool) -> Tuple[str, float]:
    """``(verdict, win rate of NEW)`` for one metric on one workload."""
    direction = meta["better"]
    q_base, q_new = common.quartiles(base), common.quartiles(new)
    med_base, med_new = q_base[1], q_new[1]
    tol = meta["bound"] * abs(med_base)
    pairs = list(zip(base, new)) if paired else [(a, b) for a in base for b in new]
    wins = sum(_better(a, b, direction) for a, b in pairs) / len(pairs)
    spread = max(q_base[2] - q_base[0], q_new[2] - q_new[0])
    all_better = all(_better(a, b, direction) for a in base for b in new)
    worse_by = med_new - med_base if direction == "lower" else med_base - med_new
    if spread > tol and not all_better:
        return "unresolved", wins
    if worse_by > tol:
        return "worse", wins
    if wins >= 0.9 and -worse_by > q_base[2] - q_base[0]:
        return "better", wins
    return "same", wins


def compare(base: Dict[str, List[dict]], new: Dict[str, List[dict]],
            table: Dict[str, dict], paired: bool) -> List[dict]:
    rows = []
    for workload in common.WORKLOADS:
        a_runs, b_runs = base.get(workload, []), new.get(workload, [])
        if not a_runs or not b_runs:
            continue
        if paired and len(a_runs) != len(b_runs):
            raise SystemExit(
                f"--paired needs equal run counts; {workload} has "
                f"{len(a_runs)} vs {len(b_runs)}"
            )
        for name, meta in table.items():
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            verdict_, wins = verdict(a, b, meta, paired)
            rows.append({
                "workload": workload, "metric": name, "unit": meta["unit"],
                "base": common.quartiles(a), "new": common.quartiles(b),
                "verdict": verdict_, "win_rate": wins,
            })
    return rows


def render(rows: List[dict], paired: bool) -> str:
    win = "pair-win" if paired else "win"
    lines = [
        f"{'workload':<9} {'metric':<18} {'unit':<8} {'base median [q1, q3]':>34} "
        f"{'new median [q1, q3]':>34} {win:>8}  verdict"
    ]
    for r in rows:
        def fmt(q):
            return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
        lines.append(
            f"{r['workload']:<9} {r['metric']:<18} {r['unit']:<8} {fmt(r['base']):>34} "
            f"{fmt(r['new']):>34} {r['win_rate']:>8.2f}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--paired", action="store_true",
                        help="pair runs by position within each workload")
    args = parser.parse_args(argv)
    spec = common.load_benchmark_spec()
    rows = compare(load_runs(args.base, spec["run_seconds"]),
                   load_runs(args.new, spec["run_seconds"]),
                   common.metric_table(spec), args.paired)
    print(render(rows, args.paired))
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
