"""The end-to-end benchmark's one command.

One workload, as the driver runs it (the process is the workload's own
fresh interpreter)::

    python3 benchmarks/e2e/run.py --workload cold-exec --seed 11 \\
        --seconds 20 --trace 0

prints every metric by name with its unit, checks every output, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (end-to-end numbers only ever come from an untraced run).
It exits non-zero when an op failed or an output was wrong.

Without ``--workload`` it runs the whole suite, each run in its own
subprocess, and writes one record for ``compare.py``::

    python3 benchmarks/e2e/run.py --seed 11 --runs 10 --traced --out A.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, NamedTuple

import common
import workloads

MODULES = {"cold-static": "cold", "cold-exec": "cold",
           "edit-loop": "editloop", "http-mixed": "httpmix"}


class Config(NamedTuple):
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool = False
    expected_dir: Path = common.EXPECTED


def run_workload(cfg: Config) -> Dict:
    """Run one workload in this process and return its record."""
    common.require_repro()
    spec = common.load_spec()
    t0 = time.perf_counter()
    module = importlib.import_module(MODULES[cfg.workload])
    import_s = time.perf_counter() - t0
    result = module.run(cfg)

    metrics = result["metrics"]
    if not cfg.trace:
        metrics["setup_s"] += import_s       # imports are part of set-up
    samples = result["samples"]
    return {
        "workload": cfg.workload, "host": common.host_record(cfg.seed),
        "seconds": cfg.seconds, "trace": cfg.trace, "smoke": cfg.smoke,
        "ops_digest": result["ops_digest"],
        "attempted": len(samples), "failed": common.count_failed(samples),
        "checked": result["checked"], "wrong": result["wrong"],
        "metrics": metrics,
        "units": {m["name"]: m["unit"]
                  for m in spec["per_layer" if cfg.trace else "end_to_end"]},
        "rows": result["rows"], "detail_rows": result.get("detail_rows", {}),
        "extra": result.get("extra", {}),
        "spans": result.get("spans", []),
    }


def report(record: Dict) -> int:
    """Print the record for a reader, then the driver's JSON line."""
    host = record["host"]
    print(f"# {record['workload']}  seed={host['seed']} "
          f"cores={host['cores']} python={host['python']} "
          f"git={host['git_sha']}  ops={record['ops_digest'][:12]}")
    for key, row in record["rows"].items():   # detail rows: --out only
        print(f"  {key}: "
              + "  ".join(f"{k}={v:.6g}" for k, v in row.items()))
    for key, value in record["extra"].items():
        print(f"  {key}: {value}")
    for line in record["wrong"]:
        print(f"WRONG {line}")
    units = record["units"]
    measured = record["metrics"]
    # a traced workload reports 0 for a layer metric it does not exercise
    final = {name: {"value": measured.get(name, 0), "unit": unit}
             for name, unit in units.items()
             if record["trace"] or name in measured}
    for name, cell in final.items():
        print(f"{name} {cell['value']:.6g} {cell['unit']}")
    print(f"attempted {record['attempted']}  failed {record['failed']}  "
          f"checked {record['checked']}  wrong {len(record['wrong'])}")
    correct = not record["wrong"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": final}))
    return 0 if correct and not record["failed"] else 1


def run_suite(args) -> int:
    """Every workload ``--runs`` times (seeds seed, seed+1, ...), each in
    a fresh subprocess, plus one traced run each with ``--traced``."""
    record = {"host": common.host_record(args.seed),
              "seconds": args.seconds, "runs": {}, "traced": {}}
    status = 0
    with common.scratch_dir("suite-") as scratch:
        def child(workload: str, seed: int, trace: int) -> Dict:
            nonlocal status
            out = scratch / "record.json"
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", str(out)]
            if args.smoke:
                cmd.append("--smoke")
            print(f"== {workload} seed={seed} trace={trace}", flush=True)
            status |= subprocess.run(cmd, check=False).returncode
            with open(out, encoding="utf-8") as fh:
                rec = json.load(fh)
            out.unlink()
            rec.pop("spans")             # kept in single-run records only
            return rec

        for workload in workloads.WORKLOADS:
            record["runs"][workload] = [
                child(workload, args.seed + i, 0) for i in range(args.runs)]
            if args.traced:
                record["traced"][workload] = child(workload, args.seed, 1)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float,
                    default=workloads.NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness's own tests")
    ap.add_argument("--out", help="write the full record (rows, spans) here")
    ap.add_argument("--runs", type=int, default=1,
                    help="suite mode: untraced runs per workload")
    ap.add_argument("--traced", action="store_true",
                    help="suite mode: add one traced run per workload")
    args = ap.parse_args(argv)
    # so that ``finally`` blocks (server teardown, scratch removal) also
    # run when the benchmark is terminated
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is None:
        if not args.out:
            ap.error("suite mode needs --out")
        common.require_repro()
        return run_suite(args)
    if args.trace and "PYTHONHASHSEED" not in os.environ:
        # call counts repeat exactly only under a fixed string-hash seed
        # (dict collisions decide how often __eq__ runs); the end-to-end
        # run keeps the interpreter's default, as a user has it
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    record = run_workload(Config(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.smoke))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return report(record)


if __name__ == "__main__":
    sys.exit(main())
