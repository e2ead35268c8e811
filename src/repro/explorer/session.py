"""The SUIF Explorer session — the chapter-2/4 workflow in one object.

"In parallelizing a program, SUIF Explorer first invokes the compiler to
parallelize the code.  Then, the Explorer instruments the parallelized code
using the dynamic tools and gathers profile data of an execution.  The
Parallelization Guru module analyzes the static and dynamic information to
identify target loops. ... Finally, the demand-driven slicing algorithm is
invoked to help users decide the parallelizability" (section 2.3.1).

A scripted (non-GUI) session:

>>> session = ExplorerSession(program, inputs=...)
>>> session.run_automatic()          # compiler + one instrumented run
>>> session.guru.targets()           # ranked important sequential loops
>>> session.slices_for(loop)         # pruned slices per unresolved dep
>>> session.apply_assertions([...])  # checker + re-parallelize + re-run
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.liveness import FULL
from ..ir.program import Program
from ..ir.statements import LoopStmt
from ..parallelize.parallelizer import Assertion
from ..parallelize.plan import DEP, ProgramPlan, VarPlan
from ..poly import fm_counters
from ..runtime.dyndep import DynamicDependenceAnalyzer, reduction_stmt_ids
from ..runtime.machine import ALPHASERVER_8400, Machine
from ..runtime.interpreter import engine_label, run_instrumented
from ..runtime.parallel_exec import (ParallelExecutionResult,
                                     ParallelExecutor)
from ..runtime.profiler import LoopProfiler
from ..slicing.slicer import SliceResult, Slicer
from .assertions import AssertionChecker, CheckOutcome
from .guru import LoopReport, ParallelizationGuru
from .metrics import parallel_coverage, parallel_granularity_ms


class DependenceSlices:
    """The slices the Explorer shows for one unresolved dependence."""

    __slots__ = ("var", "program_slice", "control_slice",
                 "program_slice_cr", "control_slice_cr",
                 "program_slice_ar", "control_slice_ar")

    def __init__(self, var: VarPlan, program_slice: SliceResult,
                 control_slice: SliceResult,
                 program_slice_cr: SliceResult,
                 control_slice_cr: SliceResult,
                 program_slice_ar: SliceResult,
                 control_slice_ar: SliceResult):
        self.var = var
        self.program_slice = program_slice
        self.control_slice = control_slice
        self.program_slice_cr = program_slice_cr
        self.control_slice_cr = control_slice_cr
        self.program_slice_ar = program_slice_ar
        self.control_slice_ar = control_slice_ar


def references_to(loop: LoopStmt, var: VarPlan) -> List[Tuple]:
    """(stmt, symbol) pairs whose slices the Explorer presents for a
    dependence on ``var``.

    Following section 3.2.2, for array references the interesting
    slices are those of the *index expressions* ("the program slices
    of the array index expressions specify the locations accessed") —
    Fig 4-3 presents the slices of the references to K, not to RL.
    Scalar dependences slice the scalar itself."""
    from ..ir.expressions import ArrayRef, VarRef
    from ..ir.statements import AssignStmt
    symbols = {id(s) for s in var.symbols}
    refs: List[Tuple] = []

    def add_array_ref(stmt, node):
        added = False
        for idx in node.indices:
            for sub in idx.walk():
                if isinstance(sub, VarRef) and not sub.symbol.is_const:
                    refs.append((stmt, sub.symbol))
                    added = True
        if not added:
            refs.append((stmt, node.symbol))

    for stmt in loop.body.walk():
        if isinstance(stmt, AssignStmt) and \
                id(stmt.target.symbol) in symbols:
            if isinstance(stmt.target, ArrayRef):
                add_array_ref(stmt, stmt.target)
            else:
                refs.append((stmt, stmt.target.symbol))
        for expr in stmt.sub_expressions():
            for node in expr.walk():
                if isinstance(node, (VarRef, ArrayRef)) and \
                        id(node.symbol) in symbols:
                    if isinstance(node, ArrayRef):
                        add_array_ref(stmt, node)
                    else:
                        refs.append((stmt, node.symbol))
    return refs[:8]      # the Explorer shows the few key references


def union_slices(slicer: Slicer, program: Program, refs, loop,
                 region_loop, array_restricted, kind) -> SliceResult:
    ids = set()
    for stmt, symbol in refs:
        if kind == "control":
            res = slicer.control_slice(
                stmt, array_restricted=array_restricted,
                region_loop=region_loop)
        else:
            res = slicer.slice_of_use(
                stmt, symbol, kind="program",
                array_restricted=array_restricted,
                region_loop=region_loop)
        ids.update(res.stmt_ids)
    return SliceResult(program, frozenset(ids))


def dependence_slices(program: Program, slicer: Slicer, loop: LoopStmt,
                      loop_plan, var: Optional[str] = None
                      ) -> List[DependenceSlices]:
    """Per unresolved dependence of one loop, the program and control
    slices at the pruning levels of Fig 4-8 (full / code-region /
    code-region+array).  Session-free core shared by
    :meth:`ExplorerSession.slices_for` / :meth:`ExplorerSession.slice_at`
    and the incremental analyzer's demand-slice cache; ``var`` narrows
    the query to one variable (by display or symbol name)."""
    out: List[DependenceSlices] = []
    for vp in loop_plan.dependent_vars():
        if var is not None and vp.display_name != var and \
                var not in {s.name for s in vp.symbols}:
            continue
        refs = references_to(loop, vp)
        if not refs:
            continue
        out.append(DependenceSlices(
            vp,
            union_slices(slicer, program, refs, loop, None, False,
                         "program"),
            union_slices(slicer, program, refs, loop, None, False,
                         "control"),
            union_slices(slicer, program, refs, loop, loop, False,
                         "program"),
            union_slices(slicer, program, refs, loop, loop, False,
                         "control"),
            union_slices(slicer, program, refs, loop, loop, True,
                         "program"),
            union_slices(slicer, program, refs, loop, loop, True,
                         "control")))
    return out


class ExplorerSession:
    def __init__(self, program: Program, *,
                 machine: Machine = ALPHASERVER_8400,
                 inputs: Sequence[float] = (),
                 use_liveness: bool = True,
                 liveness_variant: str = FULL,
                 max_ops: int = 500_000_000,
                 engine: str = "transpiled",
                 analyzer=None):
        self.program = program
        self.machine = machine
        self.inputs = inputs
        self.max_ops = max_ops
        self.engine = engine
        if analyzer is None:
            from ..analysis.incremental import IncrementalAnalyzer
            analyzer = IncrementalAnalyzer(
                program, program.source_text,
                options={"use_liveness": use_liveness,
                         "liveness_variant": liveness_variant})
        #: The session's one static-analysis driver
        #: (:class:`~repro.analysis.incremental.IncrementalAnalyzer`):
        #: every plan this session runs on comes from it, demand-driven
        #: against the shared ``proc/`` store when one is registered.
        #: The analysis options live there; ``use_liveness`` /
        #: ``liveness_variant`` only configure the default one.
        self.analyzer = analyzer

        self.plan: Optional[ProgramPlan] = None
        self.profiler: Optional[LoopProfiler] = None
        self.dyndep: Optional[DynamicDependenceAnalyzer] = None
        self.guru: Optional[ParallelizationGuru] = None
        self.result: Optional[ParallelExecutionResult] = None
        self.assertions: List[Assertion] = []
        self._slicer: Optional[Slicer] = None
        #: Which execution produced each dynamic result: keys ``profile``
        #: / ``dyndep`` / ``parallel_exec``, all
        #: ``"transpiled/profile+dyndep+cost"`` after the first run
        #: (``parallel_exec: "transpiled/cost"`` after a re-plan,
        #: ``"tree"`` after a fallback) — filled by :meth:`run_automatic`
        #: so logs and service traces can tell which path ran.
        self.engine_labels: Dict[str, str] = {}

    # -- phase 1: automatic parallelization + execution analysis -------------
    def run_automatic(self) -> ParallelExecutionResult:
        from ..obs import get_tracer
        tracer = get_tracer()
        fm_before = fm_counters()
        with tracer.span("parallelize", program=self.program.name) as sp:
            self.plan = self.analyzer.plan(self.assertions)
            sp.tag(parallel_loops=len(self.plan.parallel_loops()),
                   **fm_counters(fm_before))
        executor = ParallelExecutor(self.program, self.plan, self.machine,
                                    inputs=self.inputs, max_ops=self.max_ops,
                                    engine=self.engine)
        # One execution feeds every dynamic result.  Profile and
        # dependences are functions of (program, inputs) alone, so a
        # re-plan keeps them and measures only the new plan's regions.
        riders = {"parallel_exec": executor}
        if self.profiler is None:
            riders = {"profile": LoopProfiler(),
                      "dyndep": DynamicDependenceAnalyzer(
                          reduction_stmt_ids(self.program)), **riders}
        label = engine_label(run_instrumented(
            self.program, self.inputs, list(riders.values()),
            max_ops=self.max_ops, engine=self.engine))
        self.engine_labels.update(dict.fromkeys(riders, label))
        self.profiler = riders.get("profile", self.profiler)
        self.dyndep = riders.get("dyndep", self.dyndep)
        with tracer.span("guru") as sp:
            self.guru = ParallelizationGuru(self.program, self.plan,
                                            self.profiler, self.dyndep,
                                            self.machine)
            sp.tag(targets=len(self.guru.targets()))
        with tracer.span("parallel_exec", machine=self.machine.name) as sp:
            self.result = executor.run()     # prices the measured regions
            sp.tag(speedup=round(self.result.speedup, 4),
                   engine_variant=label)
        return self.result

    def _require_run(self) -> None:
        """Guard for the phase-2 queries that need phase-1 products."""
        if self.plan is None or self.profiler is None:
            raise RuntimeError(
                "run_automatic() first: this session has no plan/profile "
                "yet — call session.run_automatic() before querying it")

    # -- metrics ----------------------------------------------------------
    def coverage(self) -> float:
        self._require_run()
        return parallel_coverage(self.program, self.plan, self.profiler)

    def granularity_ms(self) -> float:
        self._require_run()
        return parallel_granularity_ms(self.program, self.plan,
                                       self.profiler, self.machine)

    # -- real execution ----------------------------------------------------
    def parallel_execute(self, workers: int = 2, **runner_kwargs):
        """Execute the current plan on actual cores (the par_backend).

        Needs a plan; builds one with the session's settings if
        :meth:`run_automatic` has not run yet.  Returns a
        :class:`~repro.runtime.par_backend.ParallelRunResult` whose
        outputs, COMMON memory, and op count are bit-identical to the
        sequential transpiled engine.
        """
        from ..runtime.par_backend import ParallelRunner
        if self.plan is None:
            self.plan = self.analyzer.plan(self.assertions)
        runner = ParallelRunner(self.program, self.plan,
                                workers=workers, **runner_kwargs)
        return runner.execute(self.inputs, max_ops=self.max_ops)

    # -- phase 2: slicing assistance --------------------------------------------
    @property
    def slicer(self) -> Slicer:
        if self._slicer is None:
            self._slicer = Slicer(self.program)
        return self._slicer

    def slices_for(self, loop: LoopStmt) -> List[DependenceSlices]:
        """Per unresolved dependence of a loop, the program and control
        slices at the pruning levels of Fig 4-8 (full / code-region /
        code-region+array)."""
        from ..obs import get_tracer
        self._require_run()
        with get_tracer().span("slice", loop=loop.name) as sp:
            out = dependence_slices(self.program, self.slicer, loop,
                                    self.plan.loops[loop.stmt_id])
            sp.tag(vars=len(out))
        return out

    def slice_at(self, loop, var: Optional[str] = None
                 ) -> List[DependenceSlices]:
        """Demand-driven slicing from a query point (paper section 3.2:
        "the demand-driven slicing algorithm is invoked" at the user's
        point of interest).  ``loop`` is a :class:`LoopStmt` or a loop
        name; ``var`` optionally narrows to one dependence.  Unlike
        :meth:`slices_for` this does not require :meth:`run_automatic`:
        without a plan it lazily analyzes just the loop's procedure cone."""
        from ..obs import get_tracer
        if isinstance(loop, str):
            try:
                loop = self.program.loop(loop)
            except KeyError:
                raise ValueError(
                    f"unknown loop {loop!r}; choose from "
                    f"{self.program.loop_names()}") from None
        plan = self.plan or self.analyzer.plan(self.assertions,
                                               procs=[loop.proc_name])
        loop_plan = plan.loops[loop.stmt_id]
        with get_tracer().span("slice", loop=loop.name) as sp:
            out = dependence_slices(self.program, self.slicer, loop,
                                    loop_plan, var=var)
            sp.tag(vars=len(out))
        return out

    # -- phase 3: user feedback ---------------------------------------------
    def apply_assertions(self, assertions: List[Assertion]
                         ) -> Tuple[List[CheckOutcome],
                                    ParallelExecutionResult]:
        """Check the assertions, annotate, re-parallelize, re-simulate."""
        checker = AssertionChecker(self.program, self.dyndep)
        final, outcomes = checker.checked_assertions(assertions)
        self.assertions.extend(final)
        result = self.run_automatic()
        return outcomes, result

    # -- reporting -----------------------------------------------------------
    def summary_lines(self) -> List[str]:
        r = self.result
        out = [
            f"program: {self.program.name} "
            f"({self.program.total_lines()} lines)",
            f"machine: {self.machine.name} ({self.machine.processors} "
            f"processors)",
            f"coverage: {self.coverage():.1%}",
            f"granularity: {self.granularity_ms():.3f} ms",
            f"speedup: {r.speedup:.2f}x" if r else "not executed",
        ]
        if self.assertions:
            out.append(f"user assertions: {len(self.assertions)}")
        return out
