#!/usr/bin/env python
"""Incremental-analysis gate: cone invalidation + bit parity, end to end.

For each workload (default: ``mdg,hydro,hydro2d`` — the three
deepest call graphs in the corpus):

1. run a cold analysis into a fresh on-disk ``proc/`` store,
2. insert a one-line comment into one procedure (the last in program
   order — content change, same semantics),
3. re-run warm against the same store and assert:

   * **exact invalidation** — the ``incr.cone`` spans name exactly the
     victim plus every procedure whose *after*-cone (liveness
     continuation context) contains it; everything else is served from
     the cache (``incr.reuse`` spans),
   * **bit parity** — the warm artifact is byte-identical (canonical
     JSON) to a cold run on the edited bytes: caching is invisible in
     the payload,
   * **hot stability** — a second run of the unchanged edited source
     recomputes nothing at all,

4. cross-path parity: run a *full* job (``execute_request``) into an
   empty store, then an analysis-only run against it must be served
   entirely from what the full job wrote — every procedure's rows
   reused, zero ``incr.cone`` spans — and be byte-identical to a cold
   run: both job kinds plan through the one ``IncrementalAnalyzer``.

Exit code 0 = all contracts hold on every workload.  This is CI gate 6
(``bash scripts/ci_check.sh``); run it standalone with::

    PYTHONPATH=src python scripts/incr_check.py
"""

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.incremental import (IncrementalAnalyzer,  # noqa: E402
                                        IncrementalKeys, set_proc_store)
from repro.ir import build_program  # noqa: E402
from repro.obs import Tracer, activate  # noqa: E402
from repro.service.artifacts import ArtifactStore, canonical_json  # noqa: E402
from repro.service.jobs import AnalysisRequest, execute_request  # noqa: E402
from repro.workloads import get  # noqa: E402

DEFAULT_WORKLOADS = "mdg,hydro,hydro2d"


def check(ok: bool, label: str, detail: str = "") -> bool:
    mark = "ok  " if ok else "FAIL"
    print(f"  [{mark}] {label}" + (f"  ({detail})" if detail else ""))
    return ok


def _analyze(source: str, name: str, store):
    """One traced analysis run: (artifact, recomputed set, reused set)."""
    tracer = Tracer()
    with activate(tracer):
        program = build_program(source, name)
        analyzer = IncrementalAnalyzer(program, source, store=store)
        artifact = analyzer.analysis_artifact()
    spans = tracer.to_dicts()
    recomputed = {s["tags"]["proc"] for s in spans
                  if s["name"] == "incr.cone"
                  and s["tags"].get("kind") == "plan"}
    reused = {s["tags"]["proc"] for s in spans
              if s["name"] == "incr.reuse"
              and s["tags"].get("kind") == "plan"}
    return artifact, recomputed, reused


def run_workload(name: str, root: str) -> bool:
    w = get(name)
    program = build_program(w.source, w.name)
    store = ArtifactStore(os.path.join(root, name))
    baseline, _, _ = _analyze(w.source, w.name, store)

    victim = list(program.procedures)[-1]
    at = program.procedures[victim].source_lines.start
    lines = w.source.splitlines()
    edited = "\n".join(lines[:at] + ["C incr_check probe"] + lines[at:])
    edited_program = build_program(edited, w.name)

    # the exact set a comment edit must invalidate: the victim itself
    # plus every procedure whose liveness continuation context (the
    # *after*-cone) includes it — callers reading the victim only
    # through its summary re-anchor at the value level instead
    keys = IncrementalKeys(edited_program, edited)
    expected = {p for p in edited_program.procedures
                if p == victim or victim in keys.cones.after(p)}

    warm, recomputed, reused = _analyze(edited, w.name, store)
    ok = check(recomputed == expected,
               f"{name}: exact cone invalidation",
               f"victim={victim} recomputed={sorted(recomputed)}")
    ok &= check(reused == set(edited_program.procedures) - expected,
                f"{name}: everything else reused",
                f"{len(reused)}/{len(edited_program.procedures)} procs")

    cold, _, _ = _analyze(edited, w.name,
                          ArtifactStore(os.path.join(root, name + "-cold")))
    ok &= check(canonical_json(warm) == canonical_json(cold),
                f"{name}: warm artifact bit-identical to cold")

    hot, recomputed, _ = _analyze(edited, w.name, store)
    ok &= check(recomputed == set()
                and canonical_json(hot) == canonical_json(cold),
                f"{name}: hot re-run recomputes nothing")

    full_store = ArtifactStore(os.path.join(root, name + "-full"))
    set_proc_store(full_store)
    try:
        execute_request(AnalysisRequest(name))
    finally:
        set_proc_store(None)
    after_full, recomputed, reused = _analyze(w.source, w.name, full_store)
    ok &= check(recomputed == set() and reused == set(program.procedures)
                and canonical_json(after_full) == canonical_json(baseline),
                f"{name}: analysis after a full job is all hits, "
                "bit-identical to cold",
                f"recomputed={sorted(recomputed)}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=DEFAULT_WORKLOADS,
                    help=f"comma-separated corpus names "
                         f"(default: {DEFAULT_WORKLOADS})")
    args = ap.parse_args(argv)

    ok = True
    with tempfile.TemporaryDirectory(prefix="incr-check-") as root:
        for name in args.workloads.split(","):
            ok &= run_workload(name.strip(), root)
    print("incr_check:", "all contracts hold" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
