"""Correctness checks, all run outside the timed region.

Two independent references guard a full-pipeline artifact:

* the execution outputs must equal the tree-walking oracle
  (``run_program(..., engine="tree")``), an interpreter that shares no
  code with the engine a default job runs on;
* a projection of the analysis results must equal the file frozen under
  ``expected/``.  Those files were written once
  (``python benchmarks/e2e/checks.py --freeze``) and checked by hand
  against the loops the paper documents; a projection that changes is a
  wrong answer until a reviewer accepts the regenerated file's diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List


def projection(artifact: Dict) -> Dict:
    """The analysis facts a user acts on: which loops are parallel, why
    the others are not, what the run observed, and what it buys."""
    return {
        "plan": {loop: {"parallel": row["parallel"],
                        "vars": {var: d["status"]
                                 for var, d in row["vars"].items()}}
                 for loop, row in artifact["plan"].items()},
        "total_ops": artifact["total_ops"],
        "dyndep_carried": artifact["dyndep"]["carried"],
        "execution": {k: artifact["execution"][k]
                      for k in ("speedup", "par_ops", "seq_ops")},
        "slices": artifact["slices"],
    }


def tree_oracle_outputs(workload: str) -> List[float]:
    from repro.ir import build_program
    from repro.runtime import run_program
    from repro.workloads import get
    w = get(workload)
    program = build_program(w.source, w.name)
    result = run_program(program, w.inputs, engine="tree")
    return [float(v) for v in result.outputs]


def load_expected(workload: str, expected_dir: Path) -> Dict:
    with open(expected_dir / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_full_artifact(workload: str, artifact: Dict,
                        oracle: List[float], expected: Dict) -> List[str]:
    """Reasons this artifact is wrong (empty when it is right)."""
    wrong = []
    if artifact["execution"]["outputs"] != oracle:
        wrong.append(f"{workload}: outputs differ from the tree oracle")
    # through JSON, so tuples and int keys compare as the file stores them
    got = json.loads(json.dumps(projection(artifact)))
    for part in sorted(set(got) | set(expected)):
        if got.get(part) != expected.get(part):
            wrong.append(f"{workload}: {part} differs from expected/")
    return wrong


def _freeze(names: List[str]) -> None:
    import common
    common.require_repro()
    import cold
    for name in names:
        _, artifact = cold.cold_job(name)
        path = common.EXPECTED / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(projection(artifact), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"froze {path}")


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] != "--freeze":
        sys.exit("usage: checks.py --freeze PROGRAM [PROGRAM ...]")
    _freeze(sys.argv[2:])
