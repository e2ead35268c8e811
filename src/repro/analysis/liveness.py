"""Interprocedural array liveness analysis — chapter 5 of the paper.

The bottom-up phase is the array data-flow pass
(:class:`repro.analysis.region_analysis.ArrayDataFlow`); this module adds
the **top-down phase** (Fig 5-3): for every region r it computes
``S_{r0,r}``, the access summary *from the end of r to the end of the
program*, then

    L_r = E(S_{r0,r}) ∩ (W_r ∪ M_r)

— the sections written in r that are still live afterwards.  A variable is
*dead* with respect to a loop when that intersection is empty, enabling

* privatization without finalization (section 5.4),
* common-block live-range splitting (section 5.5),
* array contraction (section 5.6).

Three algorithm variants are provided, matching the precision/efficiency
study of section 5.2.3:

* ``full``            — flow-sensitive, section-precise (the proposed one),
* ``one_bit``         — the top-down phase keeps one bit per variable
  (exposed-after or not); kills disappear,
* ``flow_insensitive``— the top-down phase ignores control flow between
  sibling subregions: live-after(r) = live-after(parent) ∪ exposed(siblings).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.program import Procedure, Program
from ..ir.statements import (Block, CallStmt, IfStmt, LoopStmt, Statement,
                             enclosing_loops)
from ..ir.symbols import Symbol
from ..poly import Section
from .access import LocKey, location_key, whole_symbol_section
from .region_analysis import ArrayDataFlow
from .summaries import (AccessSummary, VarSummary, join, seq_compose,
                        transfer)

FULL = "full"
ONE_BIT = "one_bit"
FLOW_INSENSITIVE = "flow_insensitive"
VARIANTS = (FULL, ONE_BIT, FLOW_INSENSITIVE)


class LivenessResult:
    """Per-loop liveness facts produced by any of the variants."""

    def __init__(self, variant: str):
        self.variant = variant
        # loop stmt_id -> (location -> section written in loop & live after)
        self.live_written_after: Dict[int, Dict[LocKey, Section]] = {}
        # loop stmt_id -> exposed-after summary (full variant only)
        self.exposed_after: Dict[int, AccessSummary] = {}

    def is_dead_at_exit(self, loop: LoopStmt, key: LocKey) -> bool:
        """Is the location's written data dead at the loop exit?"""
        per_loop = self.live_written_after.get(loop.stmt_id, {})
        sec = per_loop.get(key)
        return sec is None or sec.is_empty()

    def dead_written_locations(self, loop: LoopStmt,
                               written: List[LocKey]) -> List[LocKey]:
        return [k for k in written if self.is_dead_at_exit(loop, k)]


class ArrayLiveness:
    """Top-down liveness over a completed bottom-up :class:`ArrayDataFlow`."""

    def __init__(self, dataflow: ArrayDataFlow, variant: str = FULL,
                 lazy: bool = False):
        if variant not in VARIANTS:
            raise ValueError(f"unknown liveness variant {variant!r}")
        self.dataflow = dataflow
        self.program = dataflow.program
        self.variant = variant
        self.result = LivenessResult(variant)
        # S_{r0, proc}: summary from procedure end to program end
        self._after_proc: Dict[str, AccessSummary] = {}
        # S_{r0, loop body} cache (Fig 5-3 regions)
        self._after_body: Dict[int, AccessSummary] = {}
        # 1-bit caches
        self._stmt_ebits: Dict[int, Set[LocKey]] = {}
        self._proc_ebits: Dict[str, Set[LocKey]] = {}
        self._walked: Set[str] = set()
        self._ran_all = False
        # Optional cache hooks (installed by the incremental analyzer).
        # ``after_loader(name) -> Optional[AccessSummary]`` may satisfy an
        # after-proc summary without walking the caller chain;
        # ``after_saver(name, summary)`` observes every fresh computation.
        self.after_loader = None
        self.after_saver = None
        if not lazy:
            self._run()

    # ------------------------------------------------------------------ runs
    def _run(self) -> None:
        self.ensure_all()

    def ensure_all(self) -> None:
        """Record liveness facts for every loop (idempotent)."""
        if self._ran_all:
            return
        self._ran_all = True
        cg = self.dataflow.callgraph
        order = cg.top_down_order()
        if self.variant == FLOW_INSENSITIVE:
            self.dataflow.walk_all()
            self._run_flow_insensitive(order)
            return
        if self.variant == ONE_BIT:
            self.dataflow.walk_all()
            self._run_one_bit(order)
            return
        for proc_name in order:
            self.ensure_proc(proc_name)

    def ensure_proc(self, proc_name: str) -> None:
        """Demand-driven entry point: record liveness for one procedure's
        loops.  In the FULL variant this pulls in exactly the procedure's
        dependency cone — transitive callees (bottom-up summaries) plus
        the continuation closure over its call sites (after-summaries) —
        which is what the incremental analyzer caches per cone.  The
        1-bit / flow-insensitive variants are whole-program push
        algorithms, so they fall back to :meth:`ensure_all`."""
        if self.variant != FULL:
            self.ensure_all()
            return
        if proc_name in self._walked:
            return
        self._walked.add(proc_name)
        proc = self.program.procedures[proc_name]
        self.dataflow.ensure_walked(proc_name)
        after = self._ensure_after_proc(proc_name)
        self._walk_block_top_down(proc.body, proc, after)

    def _ensure_after_proc(self, proc_name: str) -> AccessSummary:
        got = self._after_proc.get(proc_name)
        if got is None:
            if self.after_loader is not None:
                # a cache hit short-circuits the recursive caller-chain
                # walk — the dominant cost of re-planning a leaf edit
                got = self.after_loader(proc_name)
            if got is None:
                got = self._compute_after_proc(proc_name)
                if self.after_saver is not None:
                    self.after_saver(proc_name, got)
            self._after_proc[proc_name] = got
        return got

    # ------------------------------------------------------------ 1-bit
    def _run_one_bit(self, order) -> None:
        """1-bit variant (section 5.2.3.1): the top-down phase keeps one
        bit per variable — exposed-after or not.  With bits there is no
        kill operator ("there is no longer a subtraction (kill) operator
        in the transfer function"), so a must-write between a region and a
        later exposed read no longer rescues deadness; statement *order*
        is still respected, unlike the flow-insensitive variant."""
        pending: Dict[str, Set[LocKey]] = {name: set() for name in order}
        for proc_name in order:
            proc = self.program.procedures[proc_name]
            self._walk_block_one_bit(proc.body, proc,
                                     set(pending[proc_name]), pending)

    def _stmt_exposed_keys(self, stmt: Statement, proc: Procedure
                           ) -> Set[LocKey]:
        """Locations with any upwards-exposed read inside a statement,
        composed WITHOUT kills (the 1-bit bottom-up summary).  Loop and
        call sub-summaries contribute one bit per variable; sibling
        statements OR together."""
        cached = self._stmt_ebits.get(stmt.stmt_id)
        if cached is not None:
            return cached
        psym = self.dataflow.symbolic.result(proc)
        keys: Set[LocKey] = set()
        if isinstance(stmt, LoopStmt):
            summ = self.dataflow.loop_summary.get(stmt.stmt_id,
                                                  AccessSummary.empty())
            keys = {key for key, vs in summ.items()
                    if not vs.exposed.is_empty()}
        elif isinstance(stmt, CallStmt):
            callee = self.program.procedures[stmt.callee]
            for ck in self._proc_exposed_keys(callee):
                if ck[0] == "cm":
                    keys.add(ck)
                elif ck[0] == "f" and ck[1] == stmt.callee:
                    # exposed formal: the actual's location is exposed
                    pos = next((k for k, f in enumerate(callee.formals)
                                if f.name == ck[2]), None)
                    if pos is not None and pos < len(stmt.args):
                        actual = stmt.args[pos]
                        from ..ir.expressions import ArrayRef, VarRef
                        if isinstance(actual, (ArrayRef, VarRef)):
                            keys.add(location_key(actual.symbol))
        elif stmt.children_blocks():
            for expr in stmt.sub_expressions():
                for node in expr.walk():
                    from ..ir.expressions import ArrayRef, VarRef
                    if isinstance(node, (ArrayRef, VarRef)) \
                            and not node.symbol.is_const:
                        keys.add(location_key(node.symbol))
            for child in stmt.children_blocks():
                for s in child.statements:
                    keys |= self._stmt_exposed_keys(s, proc)
        else:
            summ = self.dataflow._summarize_stmt(stmt, proc, psym)
            keys = {key for key, vs in summ.items()
                    if not vs.exposed.is_empty()}
        self._stmt_ebits[stmt.stmt_id] = keys
        return keys

    def _proc_exposed_keys(self, proc: Procedure) -> Set[LocKey]:
        cached = self._proc_ebits.get(proc.name)
        if cached is not None:
            return cached
        self._proc_ebits[proc.name] = set()    # recursion guard
        keys: Set[LocKey] = set()
        for stmt in proc.body.statements:
            keys |= self._stmt_exposed_keys(stmt, proc)
        # callee-local storage is fresh per invocation
        keys = {k for k in keys if k[0] != "v"}
        self._proc_ebits[proc.name] = keys
        return keys

    def _walk_block_one_bit(self, block: Block, proc: Procedure,
                            live_after_block: Set[LocKey],
                            pending: Dict[str, Set[LocKey]]) -> None:
        stmts = block.statements
        # live set after each statement = bits of all later statements
        # plus whatever is live after the whole block
        suffix: List[Set[LocKey]] = [set() for _ in stmts]
        acc = set(live_after_block)
        for k in range(len(stmts) - 1, -1, -1):
            suffix[k] = set(acc)
            acc |= self._stmt_exposed_keys(stmts[k], proc)
        for k, stmt in enumerate(stmts):
            self._visit_one_bit(stmt, proc, suffix[k], pending)

    def _visit_one_bit(self, stmt: Statement, proc: Procedure,
                       live_after: Set[LocKey],
                       pending: Dict[str, Set[LocKey]]) -> None:
        if isinstance(stmt, CallStmt):
            if stmt.callee in pending:
                pending[stmt.callee] |= live_after
            return
        if isinstance(stmt, LoopStmt):
            loop_sum = self.dataflow.loop_summary.get(stmt.stmt_id,
                                                      AccessSummary.empty())
            per_loop: Dict[LocKey, Section] = {}
            for key, vs in loop_sum.items():
                if not vs.writes_anything():
                    continue
                if key in live_after:
                    per_loop[key] = vs.may_write.union(
                        vs.reduction_region())
                else:
                    per_loop[key] = Section.empty()
            self.result.live_written_after[stmt.stmt_id] = per_loop
            # body statements may be followed by later iterations
            reentry = live_after | {
                key for key, vs in loop_sum.items()
                if not vs.exposed.is_empty()}
            self._walk_block_one_bit(stmt.body, proc, reentry, pending)
            return
        for child in stmt.children_blocks():
            self._walk_block_one_bit(child, proc, live_after, pending)

    def _run_flow_insensitive(self, order) -> None:
        """FI top-down phase: liveness is a set of location keys; a
        variable is live after a region if live after the parent region or
        exposed in *any* sibling (order ignored).  Callee live-after sets
        are the union over call sites of the caller-side live sets."""
        pending: Dict[str, Set[LocKey]] = {name: set() for name in order}
        for proc_name in order:
            proc = self.program.procedures[proc_name]
            self._walk_region_flow_insensitive(
                proc.body, proc, pending[proc_name], pending)

    def _compute_after_proc(self, proc_name: str) -> AccessSummary:
        cg = self.dataflow.callgraph
        sites = cg.sites_calling(proc_name)
        if not sites:
            return AccessSummary.empty()
        merged: Optional[AccessSummary] = None
        for call in sites:
            caller = self.program.procedures[call.proc_name]
            # the caller's bottom-up pass records the within-region
            # suffix summaries _after_statement composes, so the caller
            # needs a real walk (a cache-loaded flat summary lacks them)
            self.dataflow.ensure_walked(call.proc_name)
            after_call = self._after_statement(call, caller)
            mapped = self._map_to_callee(after_call, call, proc_name)
            merged = mapped if merged is None else join(merged, mapped)
        return merged or AccessSummary.empty()

    # ------------------------------------------------------- after-summaries
    def _suffix_to_region_end(self, stmt: Statement) -> AccessSummary:
        """S_{Parent(r),n}: accesses from just after ``stmt`` to the end of
        its enclosing region (loop body or procedure body) — the recorded
        within-block suffix composed with the suffixes of enclosing IFs."""
        acc = self.dataflow.after_in_region.get(stmt.stmt_id,
                                                AccessSummary.empty())
        cur = stmt.parent
        while cur is not None and not isinstance(cur, LoopStmt):
            if isinstance(cur, IfStmt):
                acc = seq_compose(acc, self.dataflow.after_in_region.get(
                    cur.stmt_id, AccessSummary.empty()))
            cur = cur.parent
        return acc

    def _after_region(self, stmt: Statement, proc_name: str
                      ) -> AccessSummary:
        """S_{r0,r} for the region enclosing ``stmt``: loop-body regions
        follow Fig 5-3's rule (later iterations of the same body may run,
        then whatever follows the loop)."""
        cur = stmt.parent
        while cur is not None and not isinstance(cur, LoopStmt):
            cur = cur.parent
        if cur is None:
            return self._ensure_after_proc(proc_name)
        loop = cur
        cached = self._after_body.get(loop.stmt_id)
        if cached is not None:
            return cached
        # S_{r0,loop} = T(suffix after the loop within its region,
        #                 S_{r0, parent region})
        after_loop = seq_compose(self._suffix_to_region_end(loop),
                                 self._after_region(loop, proc_name))
        loop_sum = self.dataflow.loop_summary.get(loop.stmt_id,
                                                  AccessSummary.empty())
        out = _merge_loop_reentry(after_loop, loop_sum)
        self._after_body[loop.stmt_id] = out
        return out

    def _after_statement(self, stmt: Statement, proc: Procedure
                         ) -> AccessSummary:
        """S_{r0,stmt}: accesses from just after ``stmt`` to program end —
        the within-region suffix (whose must-writes kill) composed with
        the after-region summary (Fig 5-3's T)."""
        return seq_compose(self._suffix_to_region_end(stmt),
                           self._after_region(stmt, stmt.proc_name))

    # -------------------------------------------------------------- top-down
    def _walk_block_top_down(self, block: Block, proc: Procedure,
                             after_proc: AccessSummary) -> None:
        """Record liveness at every loop exit in the full / 1-bit variants.

        ``_after_statement`` already composes all the pieces, so we simply
        visit every loop."""
        for stmt in block.walk():
            if not isinstance(stmt, LoopStmt):
                continue
            after = self._after_statement(stmt, proc)
            if self.variant == ONE_BIT:
                after = _coarsen_one_bit(after, proc, self)
            self.result.exposed_after[stmt.stmt_id] = after
            self._record_loop(stmt, after)

    def _walk_region_flow_insensitive(self, block: Block, proc: Procedure,
                                      live_after_parent: Set[LocKey],
                                      pending: Dict[str, Set[LocKey]]
                                      ) -> None:
        """Flow-insensitive variant: a variable is live after region r if
        it is live after r's parent or exposed in any sibling of r
        (including r itself) — no ordering, no kills (section 5.2.3.2)."""

        def walk(region_block: Block, live_after: Set[LocKey]) -> None:
            sibling_exposed = self._block_summary_keys(region_block, proc)
            live = live_after | sibling_exposed
            for stmt in region_block.statements:
                self._walk_stmt_flow_insensitive(stmt, live, walk, pending)

        walk(block, set(live_after_parent))

    def _walk_stmt_flow_insensitive(self, stmt: Statement,
                                    live: Set[LocKey], walk,
                                    pending: Dict[str, Set[LocKey]]) -> None:
        if isinstance(stmt, CallStmt):
            if stmt.callee in pending:
                pending[stmt.callee] |= live
            return
        if isinstance(stmt, LoopStmt):
            loop_sum = self.dataflow.loop_summary.get(stmt.stmt_id,
                                                      AccessSummary.empty())
            per_loop: Dict[LocKey, Section] = {}
            for key, vs in loop_sum.items():
                if not vs.writes_anything():
                    continue
                if key in live:
                    per_loop[key] = vs.may_write.union(
                        vs.reduction_region())
                else:
                    per_loop[key] = Section.empty()
            self.result.live_written_after[stmt.stmt_id] = per_loop
            walk(stmt.body, live)
            return
        for child in stmt.children_blocks():
            walk(child, live)

    def _block_summary_keys(self, block: Block, proc: Procedure
                            ) -> Set[LocKey]:
        """Locations with any exposed read in any statement of the block
        (cheap 1-bit bottom-up info reused from the full summaries)."""
        keys: Set[LocKey] = set()
        psym = self.dataflow.symbolic.result(proc)
        for stmt in block.statements:
            s = self.dataflow._summarize_stmt(stmt, proc, psym)
            for key, vs in s.items():
                if not vs.exposed.is_empty():
                    keys.add(key)
        return keys

    def _record_loop(self, loop: LoopStmt, after: AccessSummary) -> None:
        loop_sum = self.dataflow.loop_summary.get(loop.stmt_id,
                                                  AccessSummary.empty())
        per_loop: Dict[LocKey, Section] = {}
        for key, vs in loop_sum.items():
            if not vs.writes_anything():
                continue
            written = vs.may_write.union(vs.reduction_region())
            exposed_after = after.get(key).exposed
            per_loop[key] = written.intersect(exposed_after)
        self.result.live_written_after[loop.stmt_id] = per_loop

    # --------------------------------------------------------- call mapping
    def _map_to_callee(self, after_call: AccessSummary, call: CallStmt,
                       callee_name: str) -> AccessSummary:
        """Translate a caller-side after-summary into callee coordinates.

        COMMON locations pass through unchanged (block-flat coordinates are
        canonical program-wide).  For each array formal, the exposed reads
        on the actual's location are rebased into formal coordinates —
        precisely for the identity case, conservatively (whole formal live)
        whenever the actual's location has any exposed read and the precise
        inverse is unavailable.  Over-approximating liveness is the safe
        direction."""
        callee = self.program.procedures[callee_name]
        caller = self.program.procedures[call.proc_name]
        caller_psym = self.dataflow.symbolic.result(caller)
        callee_psym = self.dataflow.symbolic.result(callee)
        out = AccessSummary.empty()
        for key, vs in after_call.items():
            if key[0] == "cm":
                out.add(key, vs.copy())
        for pos, formal in enumerate(callee.formals):
            if pos >= len(call.args) or not formal.is_array:
                continue
            actual = call.args[pos]
            from ..ir.expressions import ArrayRef
            if not isinstance(actual, ArrayRef):
                continue
            akey = location_key(actual.symbol)
            avs = after_call.get(akey)
            if avs.exposed.is_empty() and avs.read.is_empty() \
                    and avs.may_write.is_empty():
                continue
            fkey = ("f", callee_name, formal.name)
            inv = self._inverse_identity(formal, actual, caller, callee,
                                         caller_psym, callee_psym)
            if inv:
                out.add(fkey, avs.copy())
            else:
                whole = whole_symbol_section(formal, callee, callee_psym)
                conv = (lambda sec: whole if not sec.is_empty()
                        else Section.empty())
                out.add(fkey, VarSummary(
                    read=conv(avs.read), exposed=conv(avs.exposed),
                    may_write=conv(avs.may_write),
                    must_write=Section.empty(),
                    names=set(avs.names)))
        return out

    def _inverse_identity(self, formal: Symbol, actual, caller: Procedure,
                          callee: Procedure, caller_psym, callee_psym
                          ) -> bool:
        """True when formal and actual share coordinates exactly (same rank,
        same lower bounds, whole-array actual, not a common member)."""
        from .access import declared_bounds
        if actual.indices or actual.symbol.is_common:
            return False
        if formal.rank != actual.symbol.rank:
            return False
        fb = declared_bounds(formal, callee, callee_psym)
        ab = declared_bounds(actual.symbol, caller, caller_psym)
        for k in range(formal.rank):
            flo, ahi = fb[k][0], ab[k][0]
            if flo is None or ahi is None:
                return False
            if not (flo.is_constant() and ahi.is_constant()
                    and flo.const == ahi.const):
                return False
        return True


def _merge_loop_reentry(after_in_body: AccessSummary,
                        loop_summary: AccessSummary) -> AccessSummary:
    """Fig 5-3, the loop-body case: the end of a loop body may be followed
    by further iterations of the same body.  S = <R1∪R2, E1∪E2, W1∪W2, M1>
    where 1 = the after-summary, 2 = the loop's own (closed) summary."""
    out: Dict[LocKey, VarSummary] = {}
    for key in set(after_in_body.vars) | set(loop_summary.vars):
        a = after_in_body.get(key)
        b = loop_summary.get(key)
        out[key] = VarSummary(
            read=a.read.union(b.read),
            exposed=a.exposed.union(b.exposed),
            may_write=a.may_write.union(b.may_write),
            must_write=a.must_write,
            reductions={},
            names=a.names | b.names)
    return AccessSummary(out)


def _coarsen_one_bit(after: AccessSummary, proc: Procedure,
                     liveness: ArrayLiveness) -> AccessSummary:
    """1-bit variant: any exposed read after ⇒ the whole variable is live."""
    out: Dict[LocKey, VarSummary] = {}
    psym = liveness.dataflow.symbolic.result(proc)
    for key, vs in after.items():
        if vs.exposed.is_empty():
            out[key] = vs
            continue
        whole = _whole_location(key, proc, liveness, psym)
        out[key] = VarSummary(read=vs.read, exposed=whole,
                              may_write=vs.may_write,
                              must_write=vs.must_write, names=set(vs.names))
    return AccessSummary(out)


def _whole_location(key: LocKey, proc: Procedure, liveness: ArrayLiveness,
                    psym) -> Section:
    if key[0] == "cm":
        block = liveness.program.commons.get(key[1])
        if block is not None and block.size:
            from ..poly import Constraint, LinExpr, System, dim
            v = LinExpr.var(dim(0))
            return Section([System([
                Constraint.ge(v, LinExpr.constant(0)),
                Constraint.le(v, LinExpr.constant(block.size - 1))])])
        return Section.universe()
    owner = liveness.program.procedures.get(key[1])
    if owner is not None:
        sym = owner.symbols.lookup(key[2])
        if sym is not None:
            return whole_symbol_section(
                sym, owner, liveness.dataflow.symbolic.result(owner))
    return Section.universe()


def dead_fraction_per_program(dataflow: ArrayDataFlow, variant: str = FULL
                              ) -> Tuple[int, int, int]:
    """(#loops, #modified locations across loops, #dead at exit) — the raw
    counts behind Fig 5-7."""
    liveness = ArrayLiveness(dataflow, variant)
    n_loops = 0
    n_mod = 0
    n_dead = 0
    for proc in dataflow.program.procedures.values():
        for loop in proc.loops():
            n_loops += 1
            loop_sum = dataflow.loop_summary.get(loop.stmt_id)
            if loop_sum is None:
                continue
            for key, vs in loop_sum.items():
                if not vs.writes_anything():
                    continue
                n_mod += 1
                if liveness.result.is_dead_at_exit(loop, key):
                    n_dead += 1
    return n_loops, n_mod, n_dead
