#!/usr/bin/env python3
"""Append one entry to ``BENCH_e2e.json``, the repo's one trajectory file.

    python scripts/bench_history.py --runs 10 [--seed 11] [--note TEXT]
    python scripts/bench_history.py --record SUITE.json [--sha SHA] ...

Runs the end-to-end suite (``benchmarks/e2e/run.py --runs N --out``), or
takes a suite record that command already wrote — e.g. in a checkout of
the parent commit, or assembled from alternated parent/change runs — and
appends ``{sha, cores, python, seeds, seconds, note, metrics}`` where
``metrics[workload][metric] = {median, q1, q3, n}`` over the 24
(workload, end-to-end metric) pairs.  Entries are only ever appended.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_e2e.json"
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
import stats  # noqa: E402  (the harness's median / quartile conventions)


def summarise(values):
    q1, q3 = stats.quartiles(values)
    return {"median": stats.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--record", help="an existing suite record to append")
    ap.add_argument("--sha", help="override the record's git sha")
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        path = args.record or str(Path(tmp) / "suite.json")
        if not args.record:
            subprocess.run([sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
                            "--seed", str(args.seed), "--runs",
                            str(args.runs), "--out", path], check=True)
        with open(path, encoding="utf-8") as fh:
            suite = json.load(fh)
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    host = suite["host"]
    entry = {
        "sha": args.sha or host["git_sha"], "cores": host["cores"],
        "python": host["python"], "seconds": suite["seconds"],
        "seeds": sorted({r["host"]["seed"] for runs in suite["runs"].values()
                         for r in runs}),
        "note": args.note,
        "metrics": {w: {m: summarise([r["metrics"][m] for r in runs])
                        for m in names}
                    for w, runs in suite["runs"].items()},
    }
    history = json.loads(HISTORY.read_text()) if HISTORY.exists() else []
    HISTORY.write_text(json.dumps(history + [entry], indent=1) + "\n")
    print(f"appended entry {len(history) + 1} ({entry['sha']}) to {HISTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
