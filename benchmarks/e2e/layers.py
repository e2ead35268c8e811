"""Layer attribution for the traced run.

The spans are recorded here, in the benchmark, around calls into each
layer's public functions (spans inside the program are a later change).
They are kept in memory and handed back to ``run.py``, which writes them
out with the record when the run ends.

Three instruments:

* :class:`SpanLog` — name, start, end, parent, and the job the span
  belongs to;
* :func:`staged_job` — one full-pipeline job taken apart into the calls
  ``execute_request`` makes, each under its own span, so the spans sum
  to the job (the untraced job wall minus that sum is
  ``service.residual_s``);
* :func:`profile_fold` — one ``cProfile`` pass folded by module
  directory into per-layer call counts and self-time shares.  Counts are
  counts: they compare two versions of one program and are never
  reported as speed-ups.
"""

from __future__ import annotations

import cProfile
import contextlib
import pstats
import time
from typing import Callable, Dict, Iterator, List, Optional

from repro.analysis.incremental import store_plan_rows
from repro.analysis.region_analysis import ArrayDataFlow
from repro.analysis.symbolic import SymbolicAnalysis
from repro.explorer.guru import ParallelizationGuru
from repro.explorer.session import dependence_slices
from repro.ir import build_program
from repro.lang import parse_source, tokenize
from repro.parallelize.parallelizer import Parallelizer
from repro.runtime import (MACHINES, analyze_dependences,
                           codegen_cache_stats, execute_parallel,
                           profile_program, reduction_stmt_ids)
from repro.service.jobs import (MAX_OPS_CAP, MAX_SLICE_TARGETS,
                                AnalysisRequest)
from repro.slicing.slicer import Slicer

#: module directories of ``src/repro`` reported as layers
LAYERS = ("lang", "ir", "poly", "analysis", "parallelize", "runtime",
          "slicing", "explorer", "service", "obs")

#: the staged spans, in pipeline order; they sum to the staged job
STAGES = ("ir.build_s", "analysis.symbolic_s", "analysis.dataflow_s",
          "analysis.liveness_s", "parallelize.plan_s", "runtime.profile_s",
          "runtime.dyndep_s", "explorer.guru_s", "runtime.simexec_s",
          "analysis.store_rows_s", "slicing.slice_s", "service.key_s")


class SpanLog:
    """In-memory span recorder: one dict per span, nested by ``with``."""

    def __init__(self):
        self.spans: List[Dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: str) -> Iterator[None]:
        record = {"name": name, "job": job,
                  "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str, job: Optional[str] = None) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and job in (None, s["job"]))


def staged_job(log: SpanLog, job: str,
               request: AnalysisRequest) -> Dict[str, float]:
    """Run the full pipeline for ``request`` call by call, as
    ``execute_request`` does (slices only for ``slice: ["targets"]``),
    and return the counts taken at the same boundaries."""
    r = request.resolved()
    engine = r.options["engine"]
    machine = MACHINES[r.options["machine"]]
    misses = codegen_cache_stats()["miss"]

    # parse_source runs again inside build_program: lang.parse_s is
    # reported on its own and is not one of the summed STAGES
    with log.span("lang.parse_s", job):
        parse_source(r.source, unit=r.program_name)
    tokens = len(tokenize(r.source, r.program_name))
    with log.span("ir.build_s", job):
        program = build_program(r.source, r.program_name)
    with log.span("analysis.symbolic_s", job):
        symbolic = SymbolicAnalysis(program)
    with log.span("analysis.dataflow_s", job):
        dataflow = ArrayDataFlow(program, symbolic)
    with log.span("analysis.liveness_s", job):
        parallelizer = Parallelizer(program, dataflow=dataflow)
    with log.span("parallelize.plan_s", job):
        plan = parallelizer.plan()
    with log.span("runtime.profile_s", job):
        profiler = profile_program(program, r.inputs, max_ops=MAX_OPS_CAP,
                                   engine=engine)
    with log.span("runtime.dyndep_s", job):
        dyndep = analyze_dependences(
            program, r.inputs, skip_stmt_ids=reduction_stmt_ids(program),
            max_ops=MAX_OPS_CAP, engine=engine)
    with log.span("explorer.guru_s", job):
        guru = ParallelizationGuru(program, plan, profiler, dyndep, machine)
        targets = [rep.name for rep in guru.targets()[:MAX_SLICE_TARGETS]] \
            if "targets" in (r.options.get("slice") or ()) else []
    with log.span("runtime.simexec_s", job):
        execute_parallel(program, plan, machine, inputs=r.inputs,
                         max_ops=MAX_OPS_CAP, engine=engine)
    with log.span("analysis.store_rows_s", job):
        store_plan_rows(program, r.source, r.options, plan,
                        dataflow=dataflow)
    with log.span("slicing.slice_s", job):
        slicer = Slicer(program)
        for name in targets:
            loop = program.loop(name)
            dependence_slices(program, slicer, loop,
                              plan.loops[loop.stmt_id])
    with log.span("service.key_s", job):
        request.key()

    ops = profiler.total_ops
    return {
        "lang.tokens": tokens,
        "ir.procedures": len(program.procedures),
        "ir.loops": len(program.all_loops()),
        "ir.stmts": sum(1 for p in program.procedures.values()
                        for _ in p.statements()),
        "parallelize.loops": len(plan.loops),
        "parallelize.parallel_loops": len(plan.parallel_loops()),
        "runtime.ops": ops,
        "runtime.codegen_miss": codegen_cache_stats()["miss"] - misses,
    }


def staged_seconds(log: SpanLog, job: Optional[str] = None) -> float:
    return sum(log.seconds(name, job) for name in STAGES)


def _layer_of(filename: str) -> Optional[str]:
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts[:-1]:
        layer = parts[parts.index("repro") + 1]
        if layer in LAYERS:
            return layer
    return None


def profile_fold(fn: Callable[[], object]) -> Dict[str, float]:
    """``<layer>.calls`` and ``<layer>.self_share`` (of all self time,
    interpreter built-ins and the standard library included) for one
    call of ``fn`` under ``cProfile``, plus ``poly.fm_calls``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    fm_calls = 0
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) \
            in pstats.Stats(profiler).stats.items():
        total += tottime
        layer = _layer_of(filename)
        if layer is None:
            continue
        calls[layer] += ncalls
        self_s[layer] += tottime
        if layer == "poly" and func == "system_is_empty":
            fm_calls += ncalls
    out: Dict[str, float] = {"poly.fm_calls": fm_calls}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_share"] = self_s[layer] / total if total else 0.0
    return out
