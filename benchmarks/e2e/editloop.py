"""``edit-loop``: edit a procedure, re-analyse, repeat.

The interactive path of the paper's Explorer: the per-procedure store is
warm (filled from the pristine programs in set-up), and each op is one
seeded edit followed by an ``analysis_only`` job that also asks for the
slices of one seeded loop.  The analysis layer works differently here
than on the cold workloads — cache reads and writes beside compute — so
a cold-analysis gain that costs the warm path shows.
"""

from __future__ import annotations

import gc
import itertools
import os
from typing import Dict, List, Tuple

import common
import layers
import stats
import workloads
from common import Sample
from repro.analysis.incremental import (IncrementalAnalyzer,
                                        proc_cache_stats, set_proc_store)
from repro.ir import build_program
from repro.service.artifacts import ArtifactStore, canonical_json
from repro.service.jobs import AnalysisRequest, execute_request
from repro.workloads import get


def _request(op: workloads.EditOp) -> AnalysisRequest:
    return AnalysisRequest(source=op.source, program_name=op.program,
                           options={"analysis_only": True,
                                    "slice": [op.loop]})


def _cold_recompute(op: workloads.EditOp, store) -> Tuple[float, Dict]:
    """The same job against an empty, memory-only store."""
    set_proc_store(ArtifactStore(None))
    try:
        return common.timed(lambda: execute_request(_request(op)))
    finally:
        set_proc_store(store)


def _tree_size(root) -> Tuple[int, int]:
    """(files, bytes) under ``root``."""
    files = size = 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def run(cfg) -> Dict:
    with common.scratch_dir("edit-") as scratch:
        fills = itertools.count()

        def setup() -> Dict:
            root = scratch / f"proc-{next(fills)}"
            store = ArtifactStore(str(root))
            set_proc_store(store)
            ops = workloads.edit_ops(cfg.seed, cfg.seconds, cfg.smoke)
            for name in sorted({op.program for op in ops}):
                execute_request(AnalysisRequest(
                    source=get(name).source, program_name=name,
                    options={"analysis_only": True}))
            return {"ops": ops, "store": store, "root": root}

        try:
            state, setup_s = common.median_setup(setup)
            out = {"ops_digest": workloads.ops_digest(
                       [op.key() for op in state["ops"]]),
                   "setup_s": setup_s}
            out.update(_traced(state) if cfg.trace
                       else _measure(state, setup_s))
            return out
        finally:
            set_proc_store(None)


def _measure(state: Dict, setup_s: float) -> Dict:
    samples: List[Sample] = []
    wrong: List[str] = []
    checked = 0
    for i, op in enumerate(state["ops"]):
        request = _request(op)
        try:
            seconds, artifact = common.timed(
                lambda: execute_request(request))
        except Exception as exc:                     # noqa: BLE001
            print(f"op failed: {op.key()}: {type(exc).__name__}: {exc}")
            samples.append(Sample(op.program, 0.0, False, op.victim))
            continue
        samples.append(Sample(op.program, seconds, True, op.victim))
        if i % workloads.EDIT_COLD_EVERY == 0:
            checked += 1
            _, cold = _cold_recompute(op, state["store"])
            if canonical_json(artifact) != canonical_json(cold):
                wrong.append(f"op {i} {op.key()}: warm artifact differs "
                             "from a cold recompute")
    return {
        "samples": samples, "wrong": wrong, "checked": checked,
        "metrics": common.end_to_end(samples, setup_s=setup_s,
                                     rss_mb=common.peak_rss_mb()),
        "rows": common.rows(samples),
        # the leaf-victim vs non-leaf gap lives here
        "detail_rows": common.rows(samples, by_detail=True),
    }


def _traced(state: Dict) -> Dict:
    """The same ops taken apart: build and incremental analysis under
    their own spans, the proc-cache counters read around each op, and a
    cold recompute of every ``EDIT_COLD_EVERY``-th op for the
    warm-over-cold ratio.  The last op is profiled instead of staged."""
    log = layers.SpanLog()
    *ops, profiled = state["ops"]
    hits = lookups = 0
    warm: List[float] = []
    cold: List[float] = []
    wrong: List[str] = []
    for i, op in enumerate(ops):
        job = f"op{i}"
        r = _request(op).resolved()
        gc.collect()
        before = proc_cache_stats()
        with log.span("ir.build_s", job):
            program = build_program(r.source, r.program_name)
        with log.span("analysis.incr_s", job):
            analyzer = IncrementalAnalyzer(program, r.source,
                                           options=r.options)
            artifact = analyzer.analysis_artifact(slice_names=[op.loop])
        after = proc_cache_stats()   # the cold recompute counts too: skip it
        hits += after["hit"] - before["hit"]
        lookups += sum(after.values()) - sum(before.values())
        if i % workloads.EDIT_COLD_EVERY == 0:
            warm.append(log.seconds("ir.build_s", job)
                        + log.seconds("analysis.incr_s", job))
            seconds, reference = _cold_recompute(op, state["store"])
            cold.append(seconds)
            del reference["request"]     # the stamp execute_request adds
            if canonical_json(artifact) != canonical_json(reference):
                wrong.append(f"op {i} {op.key()}: warm artifact differs "
                             "from a cold recompute")
    files, size = _tree_size(state["root"])
    metrics = {
        "ir.build_s": log.seconds("ir.build_s"),
        "analysis.incr_s": log.seconds("analysis.incr_s"),
        "analysis.proc_hit_share": hits / lookups if lookups else 0.0,
        "analysis.cold_equiv_s": sum(cold),
        "analysis.warm_over_cold": sum(warm) / sum(cold),
        "analysis.store_bytes": size,
        "analysis.store_files": files,
    }
    request = _request(profiled)
    gc.collect()
    metrics.update(layers.profile_fold(lambda: execute_request(request)))
    return {"metrics": metrics, "rows": {}, "spans": log.spans,
            "samples": [Sample(op.program, log.seconds("analysis.incr_s",
                                                       f"op{i}"), True)
                        for i, op in enumerate(ops)],
            "wrong": wrong, "checked": len(cold),
            "extra": {"cold_samples": len(cold),
                      "warm_sampled_s": stats.summary(warm),
                      "cold_sampled_s": stats.summary(cold)}}
