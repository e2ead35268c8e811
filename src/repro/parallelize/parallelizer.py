"""The automatic interprocedural parallelizer (paper section 2.4).

For every loop the parallelizer classifies each written location using the
polyhedral body summary:

1. no loop-carried conflict                     → *parallel*,
2. basic induction variable                     → *induction*,
3. exposed reads never fed by earlier iterations → *privatizable*
   (requiring either deadness-at-exit from the liveness analysis or an
   iteration-invariant must-write region for last-iteration finalization —
   exactly the two finalization regimes of sections 5.1.1/5.4),
4. conflicts confined to commutative-update regions → *reduction*
   (chapter 6; disabled with ``use_reductions=False`` for the Fig 6-4
   ablation),
5. otherwise                                    → unresolved *dependence*.

A loop is parallel iff it performs no I/O and every written location lands
in classes 1–4 (or is covered by a user assertion).  Only outermost
parallel loops execute in parallel at run time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..analysis.access import LocKey, location_key
from ..analysis.dependence import (flow_into_exposed, loop_carried_conflict,
                                   reduction_conflicts_plain)
from ..analysis.liveness import FULL, ArrayLiveness, LivenessResult
from ..analysis.region_analysis import ArrayDataFlow
from ..analysis.summaries import VarSummary
from ..analysis.symbolic import ProcSymbolic, SymbolicAnalysis
from ..ir.callgraph import CallGraph
from ..ir.expressions import ArrayRef, VarRef
from ..ir.program import Program
from ..ir.statements import (AssignStmt, CallStmt, IoStmt, LoopStmt,
                             Statement)
from ..ir.symbols import Symbol
from .plan import (DEP, INDUCTION, PARALLEL, PRIVATE, PRIVATE_FINAL,
                   PRIVATE_USER, REDUCTION, LoopPlan, ProgramPlan, VarPlan)


class Assertion:
    """A user assertion fed back through the Explorer (section 2.8).

    kinds: ``"privatizable"`` (variable has no cross-iteration value flow),
    ``"independent"`` (accesses to the variable carry no dependence),
    ``"parallel"`` (assert the whole loop parallel — var_name ignored).
    """

    __slots__ = ("loop_name", "var_name", "kind")

    def __init__(self, loop_name: str, var_name: str = "", kind: str =
                 "privatizable"):
        if kind not in ("privatizable", "independent", "parallel"):
            raise ValueError(f"unknown assertion kind {kind!r}")
        self.loop_name = loop_name
        self.var_name = var_name.lower()
        self.kind = kind

    def __repr__(self):
        return f"Assertion({self.loop_name}, {self.var_name}, {self.kind})"


def common_member_spans(program: Program, block_name: str
                        ) -> List[Tuple[int, int, frozenset]]:
    """Union-find of a COMMON block's members (across all views) by
    storage overlap: [(first offset, last offset, member-name set)]
    sorted by offset.  Members whose ranges overlap in some pair of
    views genuinely alias and form one group; the planner refines a
    block location into one location per group."""
    block = program.commons.get(block_name)
    members = []
    if block is not None:
        for view in block.views.values():
            for sym in view.symbols:
                lo = sym.common_offset
                hi = lo + (sym.constant_size() or 1) - 1
                members.append((lo, hi, sym.name))
    members.sort()
    groups: List[List] = []
    for lo, hi, name in members:
        if groups and lo <= groups[-1][1]:
            groups[-1][1] = max(groups[-1][1], hi)
            groups[-1][2].add(name)
        else:
            groups.append([lo, hi, {name}])
    return [(lo, hi, frozenset(names)) for lo, hi, names in groups]


class Parallelizer:
    """Drive all static analyses and produce a :class:`ProgramPlan`."""

    def __init__(self, program: Program, *,
                 use_reductions: bool = True,
                 use_liveness: bool = True,
                 liveness_variant: str = FULL,
                 assertions: Iterable[Assertion] = (),
                 dataflow: Optional[ArrayDataFlow] = None,
                 lazy: bool = False):
        self.program = program
        self.use_reductions = use_reductions
        self.use_liveness = use_liveness
        self.lazy = lazy
        self.symbolic = (dataflow.symbolic if dataflow
                         else SymbolicAnalysis(program))
        self.dataflow = dataflow or ArrayDataFlow(program, self.symbolic,
                                                  lazy=lazy)
        # Scalar liveness is part of the base analysis suite (Fig 5-6's
        # "base" column) and is always available; the chapter-5 *array*
        # liveness is what `use_liveness` ablates.
        self._full_liveness_analysis = ArrayLiveness(self.dataflow, FULL,
                                                     lazy=lazy)
        self._full_liveness = self._full_liveness_analysis.result
        self._variant_analysis: Optional[ArrayLiveness] = None
        self.liveness: Optional[LivenessResult] = None
        if use_liveness:
            self._variant_analysis = (
                self._full_liveness_analysis if liveness_variant == FULL
                else ArrayLiveness(self.dataflow, liveness_variant,
                                   lazy=lazy))
            self.liveness = self._variant_analysis.result
        self.assertions = list(assertions)
        self._member_groups_cache: Dict[str, List] = {}
        self._current_liveness_key: Tuple = (None, None)

    # -- public API ------------------------------------------------------------
    def plan(self) -> ProgramPlan:
        return self.plan_for(self.program.procedures)

    def plan_for(self, proc_names: Iterable[str]) -> ProgramPlan:
        """Plan only the named procedures' loops — the demand-driven entry
        point for the incremental analyzer.  With ``lazy=True`` the
        underlying analyses pull in exactly each procedure's dependency
        cone; results are identical to slicing the full :meth:`plan`."""
        result = ProgramPlan(self.program)
        for name in proc_names:
            proc = self.program.procedures[name]
            self._ensure_proc_ready(name)
            psym = self.symbolic.result(proc)
            for loop in proc.loops():
                result.loops[loop.stmt_id] = self._plan_loop(loop, psym)
        return result

    def _ensure_proc_ready(self, name: str) -> None:
        """Force the lazy analyses for one procedure before planning it."""
        if not self.lazy:
            return
        # planning reads loop_body_summary, so a real walk is required
        self.dataflow.ensure_walked(name)
        self._full_liveness_analysis.ensure_proc(name)
        if self._variant_analysis is not None and \
                self._variant_analysis is not self._full_liveness_analysis:
            self._variant_analysis.ensure_proc(name)

    # -- per-loop classification -------------------------------------------------
    def _plan_loop(self, loop: LoopStmt, psym: ProcSymbolic) -> LoopPlan:
        plan = LoopPlan(loop)
        plan.contains_io = loop.contains_io()
        from ..ir.statements import ExitStmt, ReturnStmt, StopStmt
        if any(isinstance(s, (ExitStmt, ReturnStmt, StopStmt))
               for s in loop.body.walk()):
            plan.blockers.append("loop may exit early")
        body = self.dataflow.loop_body_summary.get(loop.stmt_id)
        if body is None:
            plan.finalize()
            return plan

        loop_asserts = {a.var_name: a for a in self.assertions
                        if a.loop_name == loop.name and a.kind != "parallel"}
        force_parallel = any(a.loop_name == loop.name and a.kind == "parallel"
                             for a in self.assertions)

        symbols_by_key = self._symbols_by_key(loop)
        control_keys = self._loop_control_keys(loop)

        for key, vs in body.items():
            if not vs.writes_anything():
                continue
            if key in control_keys:
                continue
            for sub_key, sub_vs, syms, span in self._refine_location(
                    key, vs, symbols_by_key):
                if not sub_vs.writes_anything():
                    continue
                assertion = self._assertion_for(loop_asserts, syms, sub_key)
                vp = self._classify(sub_key, sub_vs, loop, psym, syms,
                                    assertion, base_key=key, span=span)
                plan.vars[sub_key] = vp
                if assertion is not None and vp.status in (PRIVATE_USER,
                                                           PARALLEL):
                    plan.assertions_used.append(
                        f"{assertion.kind}:{assertion.var_name}")
        if force_parallel:
            for vp in plan.vars.values():
                if not vp.ok:
                    vp.status = PRIVATE_USER
                    vp.reason = "asserted parallel loop"
            plan.assertions_used.append("parallel:<loop>")
        plan.finalize()
        return plan

    def _refine_location(self, key: LocKey, vs: VarSummary,
                         symbols_by_key: Dict[LocKey, Set[Symbol]]):
        """Split a COMMON-block location into per-member-group locations.

        The analysis works on whole blocks (canonical flat coordinates),
        but users and the paper's tables reason per variable.  Members
        whose storage ranges overlap across views stay in one group (they
        genuinely alias); disjoint members classify independently."""
        syms = symbols_by_key.get(key, set())
        if key[0] != "cm":
            yield key, vs, syms, None
            return
        groups = self._member_groups(key[1])
        if len(groups) <= 1:
            yield key, vs, syms, None
            return
        for gidx, (span, names) in enumerate(groups):
            sub = VarSummary(
                read=vs.read.intersect(span),
                exposed=vs.exposed.intersect(span),
                may_write=vs.may_write.intersect(span),
                must_write=vs.must_write.intersect(span),
                reductions={op: sec.intersect(span)
                            for op, sec in vs.reductions.items()},
                names={n for n in vs.names if n in names} or set(names))
            gsyms = {s for s in syms if s.name in names}
            yield (key[0], key[1], gidx), sub, gsyms, span

    def _member_groups(self, block_name: str):
        """:func:`common_member_spans` as block-coordinate sections:
        [(span section, member-name set)] sorted by offset."""
        cached = self._member_groups_cache.get(block_name)
        if cached is not None:
            return cached
        from ..poly import Constraint, LinExpr, Section, System, dim
        out = []
        v = LinExpr.var(dim(0))
        for lo, hi, names in common_member_spans(self.program, block_name):
            span = Section([System([
                Constraint.ge(v, LinExpr.constant(lo)),
                Constraint.le(v, LinExpr.constant(hi))])])
            out.append((span, names))
        self._member_groups_cache[block_name] = out
        return out

    def _assertion_for(self, loop_asserts: Dict[str, Assertion],
                       syms: Set[Symbol], key: LocKey
                       ) -> Optional[Assertion]:
        for sym in syms:
            got = loop_asserts.get(sym.name)
            if got is not None:
                return got
        if len(key) >= 3:
            return loop_asserts.get(str(key[2]).lower())
        return None

    def _classify(self, key: LocKey, vs: VarSummary, loop: LoopStmt,
                  psym: ProcSymbolic, syms: Set[Symbol],
                  assertion: Optional[Assertion],
                  base_key: Optional[LocKey] = None,
                  span=None) -> VarPlan:
        self._current_liveness_key = (base_key or key, span)
        scalar = bool(syms) and all(not s.is_array for s in syms)
        induction_syms = psym.induction.get(loop.stmt_id, {})
        red_ops = {op for op, sec in vs.reductions.items()
                   if not sec.is_empty()}

        # Induction variables take precedence over the syntactic reduction
        # reading of `k = k + 1` — the compiler rewrites them in closed form.
        if scalar and any(s in induction_syms for s in syms):
            return VarPlan(key, syms, INDUCTION)

        auto = self._classify_auto(key, vs, loop, psym, syms, red_ops)
        if auto.ok or assertion is None:
            return auto
        # the analysis could not resolve it — apply the user's word
        if assertion.kind == "independent":
            return VarPlan(key, syms, PARALLEL,
                           reason="user asserted independent")
        return VarPlan(key, syms, PRIVATE_USER,
                       reason="user asserted privatizable")

    def _classify_auto(self, key: LocKey, vs: VarSummary, loop: LoopStmt,
                       psym: ProcSymbolic, syms: Set[Symbol],
                       red_ops: Set[str]) -> VarPlan:
        if not red_ops:
            if not loop_carried_conflict(vs, loop, psym):
                return VarPlan(key, syms, PARALLEL)
            if not flow_into_exposed(vs, loop, psym):
                return self._privatize(key, vs, loop, psym, syms)
            return VarPlan(key, syms, DEP,
                           reason="loop-carried flow dependence")

        # Reduction candidate.
        if not self.use_reductions:
            return VarPlan(key, syms, DEP,
                           reason="commutative updates (reduction "
                                  "recognition disabled)")
        plain_conflict = loop_carried_conflict(vs, loop, psym)
        if plain_conflict or reduction_conflicts_plain(vs, loop, psym):
            # Mixed reduction and plain accesses that collide.
            if not flow_into_exposed(vs, loop, psym) and not plain_conflict:
                return self._privatize(key, vs, loop, psym, syms)
            return VarPlan(key, syms, DEP,
                           reason="reduction region conflicts with other "
                                  "accesses")
        return VarPlan(key, syms, REDUCTION, reduction_ops=red_ops)

    def _privatize(self, key: LocKey, vs: VarSummary, loop: LoopStmt,
                   psym: ProcSymbolic, syms: Set[Symbol]) -> VarPlan:
        """Privatizable access pattern; decide the finalization regime."""
        # Private copies start uninitialized: any upwards-exposed read
        # (a value flowing in from outside the loop) defeats automatic
        # privatization — the reason hydro's dkrc(1) and flo88's
        # IL/IE-bounded temporaries need the user (sections 4.2.3, 4.4.1).
        if not vs.exposed.is_empty():
            return VarPlan(key, syms, DEP,
                           reason="upwards-exposed reads reach the loop "
                                  "(private copies would be uninitialized)")
        scalar = bool(syms) and all(not s.is_array for s in syms)
        liveness = self.liveness if self.liveness is not None else (
            self._full_liveness if scalar else None)
        if liveness is not None and self._dead_at_exit(loop, liveness):
            return VarPlan(key, syms, PRIVATE,
                           reason="dead at loop exit")
        if self._iteration_invariant_must(vs, loop, psym):
            return VarPlan(key, syms, PRIVATE_FINAL,
                           reason="every iteration writes the same region")
        return VarPlan(key, syms, DEP,
                       reason="privatizable but may be live at exit "
                              "(finalization not provable)")

    def _dead_at_exit(self, loop: LoopStmt,
                      liveness: LivenessResult) -> bool:
        """Deadness query for the current location, restricted to the
        member-group span when the location was refined."""
        base_key, span = self._current_liveness_key
        per_loop = liveness.live_written_after.get(loop.stmt_id, {})
        sec = per_loop.get(base_key)
        if sec is None:
            return True
        if span is None:
            return sec.is_empty()
        return sec.intersect(span).is_empty()

    def _iteration_invariant_must(self, vs: VarSummary, loop: LoopStmt,
                                  psym: ProcSymbolic) -> bool:
        """Every iteration must-writes exactly the same region: the must
        section mentions no iteration-variant term and covers all writes."""
        if vs.must_write.is_empty():
            return False
        for system in vs.must_write.systems:
            for name in system.variables():
                if name.startswith("_"):
                    continue
                if psym.is_variant(name, loop):
                    return False
        return vs.must_write.contains(vs.may_write)

    # -- helpers ---------------------------------------------------------------
    def _symbols_by_key(self, loop: LoopStmt) -> Dict[LocKey, Set[Symbol]]:
        """Map abstract locations to the IR symbols that access them inside
        the loop (for reporting and scalar/array classification).  Walks
        through calls one level deep — enough for display purposes."""
        out: Dict[LocKey, Set[Symbol]] = {}

        def scan_stmt(stmt: Statement, program: Program, depth: int) -> None:
            for expr in stmt.sub_expressions():
                for node in expr.walk():
                    if isinstance(node, (VarRef, ArrayRef)):
                        out.setdefault(location_key(node.symbol),
                                       set()).add(node.symbol)
            if isinstance(stmt, AssignStmt):
                out.setdefault(location_key(stmt.target.symbol),
                               set()).add(stmt.target.symbol)
            if isinstance(stmt, CallStmt) and depth < 3:
                callee = program.procedures.get(stmt.callee)
                if callee is not None:
                    for s in callee.statements():
                        scan_stmt(s, program, depth + 1)

        for stmt in loop.body.walk():
            scan_stmt(stmt, self.program, 0)
        return out

    def _loop_control_keys(self, loop: LoopStmt) -> Set[LocKey]:
        keys = {location_key(loop.index)}
        for inner in loop.inner_loops():
            keys.add(location_key(inner.index))
        return keys
