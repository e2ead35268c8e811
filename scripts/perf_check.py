#!/usr/bin/env python
"""Performance regression gate for the engines, backends and service.

Re-runs ``benchmarks/bench_perf_engine.py`` (clean execution),
``benchmarks/bench_perf_parallel.py`` (real multi-core execution), and
``benchmarks/bench_perf_incr.py`` (incremental re-analysis) and
compares fresh numbers against the committed baselines
``BENCH_engine.json``, ``BENCH_parallel.json``, and
``BENCH_incremental.json``.  Fails (exit 1) when any path regresses by
more than ``--tolerance`` (default 20%) on any workload, when the
transpiled engine drops below the 20x-over-tree contract on mdg, when a
warm-edit re-analysis drops below the 10x-over-cold-pipeline contract
(or loses bit parity with a cold run), or — on hosts with >= 4 free
cores — when real parallel execution drops below the
1.5x-at-4-workers contract (bit-parity and the monotonic
predicted-speedup shape gate on every host).  The ``service`` gate
(``benchmarks/bench_perf_service.py`` vs ``BENCH_service.json``)
checks warm ``POST /jobs`` throughput at 16 concurrent clients against
its baseline and enforces the single-flight contract: a cold 64-client
same-key storm across two server processes computes its artifact
exactly once with bit-identical responses.

Run it next to the tier-1 suite::

    PYTHONPATH=src python scripts/perf_check.py

The baselines are host-dependent (wall-clock ops/sec), so regenerate
them when moving to new hardware::

    PYTHONPATH=src python scripts/perf_check.py --update
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

import bench_perf_engine  # noqa: E402
import bench_perf_incr  # noqa: E402
import bench_perf_parallel  # noqa: E402
import bench_perf_service  # noqa: E402


def compare_engine(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Failure messages for every >tolerance ops/sec drop, and for the
    transpiled-over-tree contract on mdg."""
    failures = []
    for name, base in baseline["workloads"].items():
        cur = fresh["workloads"].get(name)
        if cur is None:
            failures.append(f"engine/{name}: missing from fresh run")
            continue
        for engine in ("tree", "transpiled"):
            was = base[engine]["ops_per_sec"]
            now = cur[engine]["ops_per_sec"]
            if now < was * (1.0 - tolerance):
                failures.append(
                    f"engine/{name}/{engine}: {now / 1e6:.2f}M ops/s is "
                    f"{(1 - now / was):.0%} below baseline "
                    f"{was / 1e6:.2f}M ops/s (tolerance {tolerance:.0%})")
    mdg = fresh["workloads"].get("mdg")
    if mdg and mdg["speedup"] < bench_perf_engine.MIN_SPEEDUP:
        failures.append(
            f"engine/mdg: transpiled/tree speedup {mdg['speedup']:.2f}x "
            f"below the {bench_perf_engine.MIN_SPEEDUP}x contract")
    return failures


def compare_parallel(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Failure messages for the real-parallel-execution gate.

    Bit-parity, the monotonic predicted-speedup shape, and the
    sequential-throughput regression check gate on every host; the
    measured ≥``MIN_PARALLEL_SPEEDUP``x-at-4-workers contract and the
    measured-speedup shape only gate on hosts with enough free cores
    (measured wall speedups on a 1-core box are time-slicing noise)."""
    failures = []
    if not fresh["parity"]:
        failures.append("parallel: execution diverged from the "
                        "sequential transpiled engine")
    counts = sorted(int(k) for k in fresh["predicted"])
    pred = [fresh["predicted"][str(p)] for p in counts]
    if pred != sorted(pred):
        failures.append(f"parallel: predicted speedups not monotonic "
                        f"over {counts}: {pred}")
    was = baseline["seq"]["ops_per_sec"]
    now = fresh["seq"]["ops_per_sec"]
    if now < was * (1.0 - tolerance):
        failures.append(
            f"parallel/seq: {now / 1e6:.2f}M ops/s is "
            f"{(1 - now / was):.0%} below baseline {was / 1e6:.2f}M "
            f"ops/s (tolerance {tolerance:.0%})")
    if fresh["host"]["cores"] >= bench_perf_parallel.MIN_CORES_FOR_SPEEDUP:
        sp = fresh["workers"]["4"]["speedup"]
        if sp < bench_perf_parallel.MIN_PARALLEL_SPEEDUP:
            failures.append(
                f"parallel: measured speedup {sp:.2f}x at 4 workers "
                f"below the "
                f"{bench_perf_parallel.MIN_PARALLEL_SPEEDUP}x contract")
        measured = [fresh["workers"][str(p)]["speedup"] for p in counts]
        if any(b < a * 0.9 for a, b in zip(measured, measured[1:])):
            failures.append(f"parallel: measured speedups not "
                            f"(near-)monotonic over {counts}: {measured}")
    return failures


def compare_incremental(baseline: dict, fresh: dict,
                        tolerance: float) -> list:
    """Failure messages for the incremental re-analysis gate.

    Bit parity and the ≥``MIN_WARM_SPEEDUP``x / ``MIN_HOT_SPEEDUP``x
    contracts gate against the *fresh* run (host-independent ratios);
    the seconds comparison against the baseline catches absolute
    warm-path regressions that a uniformly slower host would mask."""
    failures = []
    for name, base in baseline["workloads"].items():
        cur = fresh["workloads"].get(name)
        if cur is None:
            failures.append(f"incremental/{name}: missing from fresh run")
            continue
        if not cur["parity"]:
            failures.append(
                f"incremental/{name}: warm-edit artifact not "
                f"bit-identical to a cold run")
        for regime, contract in (
                ("warm", bench_perf_incr.MIN_WARM_SPEEDUP),
                ("hot", bench_perf_incr.MIN_HOT_SPEEDUP)):
            sp = cur[f"{regime}_speedup"]
            if sp < contract:
                failures.append(
                    f"incremental/{name}: {regime} re-analysis only "
                    f"{sp:.1f}x over the cold full pipeline, below "
                    f"the {contract}x contract")
        for field in ("warm_edit_s", "hot_s"):
            was, now = base[field], cur[field]
            if now > was * (1.0 + tolerance):
                failures.append(
                    f"incremental/{name}/{field}: {now * 1e3:.1f}ms is "
                    f"{(now / was - 1):.0%} above baseline "
                    f"{was * 1e3:.1f}ms (tolerance {tolerance:.0%})")
    return failures


def compare_service(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Failure messages for the service gate."""
    failures = []
    was = baseline["warm"]["requests_per_sec"]
    now = fresh["warm"]["requests_per_sec"]
    if now < was * (1.0 - tolerance):
        failures.append(
            f"service/warm: {now:.0f} req/s is "
            f"{(1 - now / was):.0%} below baseline {was:.0f} req/s "
            f"(tolerance {tolerance:.0%})")
    storm = fresh["cold_storm"]
    if storm["computations"] != 1 or not storm["bit_identical"]:
        failures.append(
            f"service: cold same-key storm computed "
            f"{storm['computations']} times "
            f"(bit_identical={storm['bit_identical']}) — want exactly "
            f"one computation across {storm['server_processes']} "
            f"server processes")
    return failures


#: (label, bench module, comparator)
GATES = (
    ("engine", bench_perf_engine, compare_engine),
    ("parallel", bench_perf_parallel, compare_parallel),
    ("incremental", bench_perf_incr, compare_incremental),
    ("service", bench_perf_service, compare_service),
)


def _print_engine(fresh: dict) -> None:
    for name, r in fresh["workloads"].items():
        print(f"{name:10s} tree={r['tree']['ops_per_sec'] / 1e6:5.2f}M/s  "
              f"transpiled={r['transpiled']['ops_per_sec'] / 1e6:6.2f}M/s  "
              f"speedup={r['speedup']:.2f}x")


def _print_parallel(fresh: dict) -> None:
    print(f"seq        {fresh['seq']['seconds']:.3f}s  "
          f"{fresh['seq']['ops_per_sec'] / 1e6:.2f}M ops/s  "
          f"(host cores: {fresh['host']['cores']})")
    for w, r in fresh["workers"].items():
        print(f"workers={w}  {r['seconds']:.3f}s  "
              f"measured={r['speedup']:.2f}x  "
              f"predicted={fresh['predicted'][w]:.2f}x  "
              f"parity={'ok' if r['parity'] else 'DIVERGED'}")


def _print_incremental(fresh: dict) -> None:
    for name, r in fresh["workloads"].items():
        print(f"{name:10s} full={r['full_s'] * 1e3:7.1f}ms  "
              f"warm-edit={r['warm_edit_s'] * 1e3:6.1f}ms  "
              f"hot={r['hot_s'] * 1e3:5.1f}ms  "
              f"warm={r['warm_speedup']:.1f}x  hot={r['hot_speedup']:.1f}x  "
              f"parity={'ok' if r['parity'] else 'DIVERGED'}")


def _print_service(fresh: dict) -> None:
    storm = fresh["cold_storm"]
    print(f"warm         {fresh['warm']['requests_per_sec']:7.0f} req/s  "
          f"({fresh['clients']} warm clients, {fresh['shards']} shards)")
    print(f"cold storm   {storm['clients']} clients x 2 processes: "
          f"{storm['computations']} computation in "
          f"{storm['seconds']:.2f}s, "
          f"bit-identical={storm['bit_identical']}")


PRINTERS = {"engine": _print_engine, "parallel": _print_parallel,
            "incremental": _print_incremental,
            "service": _print_service}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional ops/sec drop (default 0.20)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the gated baselines from this run")
    ap.add_argument("--only", choices=[label for label, _, _ in GATES],
                    help="run a single gate")
    args = ap.parse_args(argv)

    failures = []
    for label, bench, comparator in GATES:
        if args.only and label != args.only:
            continue
        print(f"-- {label} gate --")
        fresh = bench.run_bench()
        PRINTERS[label](fresh)
        if args.update or not bench.BASELINE_PATH.exists():
            bench.BASELINE_PATH.write_text(
                json.dumps(fresh, indent=2) + "\n")
            print(f"baseline written: {bench.BASELINE_PATH}")
            continue
        baseline = json.loads(bench.BASELINE_PATH.read_text())
        failures += comparator(baseline, fresh, args.tolerance)

    if failures:
        print("\nPERF REGRESSION:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nok: within {args.tolerance:.0%} of the committed baselines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
