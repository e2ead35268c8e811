"""Execution-engine shootout: transpiled engine vs tree-walking oracle.

Times both engines end-to-end (``run_program`` wall clock, which for the
transpiled engine *includes* the codegen-or-cache-hit step; repeats
after the first hit the codegen cache, matching the warm service path)
on the three workloads with the largest dynamic op counts, reports
ops/sec and the speedup, and asserts the contracts:

* the transpiled engine is at least ``MIN_SPEEDUP``x the tree oracle's
  ops/sec on mdg,
* both engines produce bit-identical outputs and op counts.

Run standalone to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py

which writes ``BENCH_engine.json`` at the repo root —
``scripts/perf_check.py`` compares fresh numbers against that file.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List

from repro.runtime import ENGINE_NAMES, run_program
from repro.workloads import get

WORKLOADS = ("mdg", "flo88", "hydro2d")
#: transpiled-over-tree ops/sec contract on the plain-run path
MIN_SPEEDUP = 20.0
#: repeats per engine; the best (minimum) time is kept
REPEATS = {"tree": 2, "transpiled": 3}
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _time_engine(name: str, engine: str) -> Dict:
    """Best-of-N wall-clock for one workload under one engine."""
    w = get(name)
    best = float("inf")
    ops = outputs = None
    for _ in range(REPEATS[engine]):
        program = w.build()
        t0 = time.perf_counter()
        eng = run_program(program, w.inputs, engine=engine)
        best = min(best, time.perf_counter() - t0)
        ops, outputs = eng.ops, eng.outputs
    return {"seconds": best, "ops": ops,
            "ops_per_sec": ops / best if best else 0.0,
            "outputs": [float(v) for v in outputs]}


def run_bench(workloads=WORKLOADS) -> Dict:
    """Measure every workload under both engines; verify parity inline."""
    results: Dict[str, Dict] = {}
    for name in workloads:
        timed = {engine: _time_engine(name, engine)
                 for engine in ENGINE_NAMES}
        tree, trans = timed["tree"], timed["transpiled"]
        assert tree["ops"] == trans["ops"], (
            f"{name}: op-count drift tree={tree['ops']} "
            f"transpiled={trans['ops']}")
        assert tree["outputs"] == trans["outputs"], (
            f"{name}: output drift between engines")
        results[name] = {"ops": tree["ops"]}
        for engine, t in timed.items():
            results[name][engine] = {
                "seconds": round(t["seconds"], 4),
                "ops_per_sec": round(t["ops_per_sec"], 1)}
        results[name]["speedup"] = round(
            trans["ops_per_sec"] / tree["ops_per_sec"], 2)
    return {
        "benchmark": "execution-engine shootout",
        "units": "interpreter ops per wall-clock second",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cores": os.cpu_count()},
        "workloads": results,
    }


def _rows(report: Dict) -> List[List]:
    return [[name, r["ops"],
             f"{r['tree']['ops_per_sec'] / 1e6:.2f}M",
             f"{r['transpiled']['ops_per_sec'] / 1e6:.2f}M",
             f"{r['speedup']:.2f}x"]
            for name, r in report["workloads"].items()]


def test_transpiled_engine_speedup(benchmark):
    from conftest import once, print_table
    report = once(benchmark, run_bench)
    print_table("engine ops/sec (tree vs transpiled)",
                ["workload", "ops", "tree", "transpiled", "trans/tree"],
                _rows(report))
    mdg = report["workloads"]["mdg"]["speedup"]
    assert mdg >= MIN_SPEEDUP, (
        f"mdg transpiled/tree speedup {mdg} below the "
        f"{MIN_SPEEDUP}x contract")


def main() -> None:
    report = run_bench()
    BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
    width = max(len(n) for n in report["workloads"])
    print(f"wrote {BASELINE_PATH}")
    for name, r in report["workloads"].items():
        print(f"  {name:{width}s}  ops={r['ops']:>9}  "
              f"tree={r['tree']['ops_per_sec'] / 1e6:5.2f}M/s  "
              f"transpiled={r['transpiled']['ops_per_sec'] / 1e6:5.2f}M/s  "
              f"speedup={r['speedup']:.2f}x")
    assert report["workloads"]["mdg"]["speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    main()
