"""Compare two suite records: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of runs of
one commit), B the candidate.  One row per (workload, end-to-end
metric): both medians with their run counts, B over A, the bound from
``BENCHMARK.json``, each side's spread (inter-quartile distance over
median), and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound,
  or B had failed ops or wrong outputs;
* ``unresolved`` — a side's spread is wider than the bound, so the runs
  cannot tell (unless every run of B beats every run of A);
* ``ok``         — otherwise.

Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

import common
import stats


def _values(runs: List[Dict], metric: str) -> List[float]:
    return [run["metrics"][metric] for run in runs
            if metric in run["metrics"]]


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (stats.median(b) - stats.median(a)) / stats.median(a)
    if worsening > bound:
        return "worse"
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if max(stats.spread(a), stats.spread(b)) > bound and not all_better:
        return "unresolved"
    return "ok"


def compare(base: Dict, cand: Dict, spec: Dict) -> List[Dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = base["runs"].get(workload, [])
        runs_b = cand["runs"].get(workload, [])
        if not runs_a or not runs_b:
            continue
        broken = sum(r["failed"] + len(r["wrong"]) for r in runs_b)
        for m in spec["end_to_end"]:
            a, b = _values(runs_a, m["name"]), _values(runs_b, m["name"])
            if not a or not b:
                rows.append({"workload": workload, "metric": m["name"],
                             "verdict": "worse", "note": "no value"})
                continue
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "base": stats.median(a), "n_base": len(a),
                "cand": stats.median(b), "n_cand": len(b),
                "ratio": stats.median(b) / stats.median(a),
                "bound": m["bound"],
                "spread_base": stats.spread(a), "spread_cand": stats.spread(b),
                "verdict": "worse" if broken
                else verdict(a, b, m["better"], m["bound"]),
                "note": f"{broken} failed or wrong ops" if broken else "",
            })
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    base, cand = records
    for side, rec in zip("AB", records):
        host = rec["host"]
        print(f"{side}: cores={host['cores']} python={host['python']} "
              f"git={host['git_sha']} seed={host['seed']}")
    rows = compare(base, cand, common.load_spec())
    print(f"{'workload':12} {'metric':12} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6} {'sprd A':>7} {'sprd B':>7}  verdict")
    for r in rows:
        if "base" not in r:
            print(f"{r['workload']:12} {r['metric']:12} {r['note']:>58}  "
                  f"{r['verdict']}")
            continue
        print(f"{r['workload']:12} {r['metric']:12} "
              f"{r['base']:>9.5g}/{r['n_base']:<2} "
              f"{r['cand']:>9.5g}/{r['n_cand']:<2} {r['ratio']:>7.3f} "
              f"{r['bound']:>6.2f} {r['spread_base']:>7.3f} "
              f"{r['spread_cand']:>7.3f}  {r['verdict']} {r['note']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
