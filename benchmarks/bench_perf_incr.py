"""Incremental re-analysis shootout: warm cone cache vs cold pipeline.

Times the static analysis pipeline on three corpus workloads under
three regimes:

* ``full``      — the cold full pipeline: ``execute_request`` on the
  workload (parse, interprocedural analysis, execution, profiling,
  Guru ranking) — what re-analysis cost before the cone cache, and
  what the batch service pays on any content-key miss,
* ``warm_edit`` — a one-line comment is inserted into one procedure and
  the *first* re-analysis runs against the disk store the pristine run
  filled: only the victim's dependency cone misses, everything else is
  served at the source or value level,
* ``hot``       — re-analysis of unchanged source against the same
  store: 100% source-level hits, no planning at all.

The warm regimes run the static analysis only (``analysis_only`` is
the interactive edit/re-analyze path — no execution), so the speedups
are end-to-end "what the user waits for after an edit" numbers.

Reports seconds per regime and asserts the tentpole contract:

* the warm-edit path is at least ``MIN_WARM_SPEEDUP``x faster than the
  cold full pipeline on every workload,
* the hot path is at least ``MIN_HOT_SPEEDUP``x faster,
* the warm-edit artifact is **bit-identical** to a cold run on the
  edited source (parity: caching is invisible in the payload).

Run standalone to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_perf_incr.py

which writes ``BENCH_incremental.json`` at the repo root —
``scripts/perf_check.py`` compares fresh numbers against that file.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.analysis.incremental import IncrementalAnalyzer
from repro.ir import build_program
from repro.service.artifacts import ArtifactStore, canonical_json
from repro.service.jobs import AnalysisRequest, execute_request
from repro.workloads import get


def host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


WORKLOADS = ("mdg", "flo88", "hydro2d")
#: procedure edited for the warm-edit regime — a leaf-ish init routine
#: with a small dependency cone, the interactive-editing common case
VICTIMS = {"mdg": "initia", "flo88": "initw", "hydro2d": "start2d"}
MIN_WARM_SPEEDUP = 10.0
MIN_HOT_SPEEDUP = 10.0
HOT_REPEATS = 3
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"


def _comment_edit(source: str, program, victim: str) -> str:
    """Insert a comment line at the top of ``victim`` — a content change
    with identical semantics (every ⟨R,E,W,M⟩ summary stays bit-equal)."""
    at = program.procedures[victim].source_lines.start
    lines = source.splitlines()
    return "\n".join(lines[:at] + ["C perf probe"] + lines[at:])


def _analyze(source: str, name: str, store) -> Dict:
    program = build_program(source, name)
    analyzer = IncrementalAnalyzer(program, source, store=store)
    return analyzer.analysis_artifact()


def _time_one(source: str, name: str, store) -> (float, Dict):
    t0 = time.perf_counter()
    artifact = _analyze(source, name, store)
    return time.perf_counter() - t0, artifact


def run_bench(workloads=WORKLOADS) -> Dict:
    """Measure every workload on all three regimes; verify parity."""
    results: Dict[str, Dict] = {}
    for name in workloads:
        w = get(name)
        program = build_program(w.source, w.name)
        edited = _comment_edit(w.source, program, VICTIMS[name])

        # cold full pipeline: the whole Explorer job, nothing cached
        t0 = time.perf_counter()
        execute_request(AnalysisRequest(name))
        full_s = time.perf_counter() - t0

        root = tempfile.mkdtemp(prefix=f"bench-incr-{name}-")
        try:
            store = ArtifactStore(root)
            _analyze(w.source, w.name, store)         # fill the cache

            # warm edit: FIRST re-analysis after the edit (the second
            # one would hit the re-anchored source keys and measure the
            # hot path instead)
            warm_s, warm = _time_one(edited, w.name, store)

            # hot: unchanged source, 100% source-level hits
            hot_s = min(_time_one(edited, w.name, store)[0]
                        for _ in range(HOT_REPEATS))
        finally:
            shutil.rmtree(root, ignore_errors=True)

        cold = _analyze(edited, w.name, ArtifactStore(None))
        parity = canonical_json(warm) == canonical_json(cold)
        assert parity, f"{name}: warm-edit artifact differs from cold"

        results[name] = {
            "procedures": len(program.procedures),
            "victim": VICTIMS[name],
            "full_s": round(full_s, 4),
            "warm_edit_s": round(warm_s, 4),
            "hot_s": round(hot_s, 4),
            "warm_speedup": round(full_s / warm_s, 2) if warm_s else 0.0,
            "hot_speedup": round(full_s / hot_s, 2) if hot_s else 0.0,
            "parity": parity,
        }
    return {
        "benchmark": "incremental re-analysis (cone cache)",
        "units": "wall-clock seconds per analysis run",
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cores": host_cores()},
        "workloads": results,
    }


def _rows(report: Dict) -> List[List]:
    return [[name,
             r["victim"],
             f"{r['full_s'] * 1e3:.1f}ms",
             f"{r['warm_edit_s'] * 1e3:.1f}ms",
             f"{r['hot_s'] * 1e3:.1f}ms",
             f"{r['warm_speedup']:.1f}x",
             f"{r['hot_speedup']:.1f}x"]
            for name, r in report["workloads"].items()]


def test_incremental_warm_speedup(benchmark):
    from conftest import once, print_table
    report = once(benchmark, run_bench)
    print_table("incremental re-analysis (full vs warm-edit vs hot)",
                ["workload", "victim", "full", "warm edit", "hot",
                 "warm x", "hot x"],
                _rows(report))
    for name, r in report["workloads"].items():
        assert r["parity"], f"{name}: warm-edit artifact not bit-identical"
        assert r["warm_speedup"] >= MIN_WARM_SPEEDUP, (
            f"{name}: warm-edit re-analysis only {r['warm_speedup']:.1f}x "
            f"over the cold pipeline, below the {MIN_WARM_SPEEDUP}x "
            f"contract")
        assert r["hot_speedup"] >= MIN_HOT_SPEEDUP, (
            f"{name}: hot re-analysis only {r['hot_speedup']:.1f}x over "
            f"the cold pipeline, below the {MIN_HOT_SPEEDUP}x contract")


def main() -> None:
    report = run_bench()
    BASELINE_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH}")
    for row in _rows(report):
        print("  " + "  ".join(f"{c:>9}" if i > 1 else f"{c:10s}"
                               for i, c in enumerate(row)))
    for name, r in report["workloads"].items():
        assert r["warm_speedup"] >= MIN_WARM_SPEEDUP, (
            f"{name}: {r['warm_speedup']}x < {MIN_WARM_SPEEDUP}x")
        assert r["hot_speedup"] >= MIN_HOT_SPEEDUP, (
            f"{name}: {r['hot_speedup']}x < {MIN_HOT_SPEEDUP}x")


if __name__ == "__main__":
    main()
