"""Program transformations: privatization annotation, parallel-reduction
lowering (section 6.3), and array contraction (section 5.6).

Privatization and reduction lowering are expressed as source annotations /
generated SPMD pseudo-code (our simulated machine consumes the *plan*, not
rewritten code, so the lowering shown here is the artifact a user reads —
mirroring the paper's section 6.3 code listings).  Array contraction is a
real IR transformation: it rewrites the program in place and changes what
the interpreter allocates and touches, which is how the cache-footprint
effect of Fig 5-12 is actually simulated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.access import LocKey, location_key
from ..analysis.dependence import loop_carried_conflict
from ..analysis.liveness import LivenessResult
from ..analysis.region_analysis import ArrayDataFlow
from ..ir.expressions import ArrayRef, Const, VarRef
from ..ir.program import Procedure, Program
from ..ir.statements import AssignStmt, LoopStmt, Statement
from ..ir.symbols import Symbol
from .plan import (PRIVATE, PRIVATE_FINAL, PRIVATE_USER, REDUCTION,
                   LoopPlan, ProgramPlan)


# ---------------------------------------------------------------------------
# Directive annotation (what the recompiled source looks like)
# ---------------------------------------------------------------------------

def loop_directives(plan: LoopPlan) -> List[str]:
    """OpenMP-flavoured directives for a parallel loop plan ("the
    directives used in the SUIF Explorer are similar to OpenMP
    directives", section 2.9)."""
    if not plan.parallel:
        return []
    clauses: List[str] = []
    private = sorted({v.display_name for v in plan.classified(
        PRIVATE, PRIVATE_FINAL, PRIVATE_USER)})
    if private:
        clauses.append(f"PRIVATE({', '.join(private)})")
    for vp in plan.classified(REDUCTION):
        for op in sorted(vp.reduction_ops):
            clauses.append(f"REDUCTION({op}: {vp.display_name})")
    head = "C$PAR PARALLEL DO"
    if clauses:
        head += " " + " ".join(clauses)
    return [head]


def annotate_source(program: Program, plan: ProgramPlan) -> str:
    """The input source with parallelization directives inserted above
    every (outermost) parallel loop."""
    directives: Dict[int, List[str]] = {}
    for loop in plan.outermost_parallel():
        lp = plan.loops[loop.stmt_id]
        directives.setdefault(loop.line, []).extend(loop_directives(lp))
    out: List[str] = []
    for ln, text in enumerate(program.source_text.splitlines(), start=1):
        for d in directives.get(ln, ()):
            indent = len(text) - len(text.lstrip())
            out.append(" " * indent + d)
        out.append(text)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Parallel reduction lowering (section 6.3) — generated SPMD pseudo-code
# ---------------------------------------------------------------------------

def lower_scalar_reduction(var: str, op: str, processors: str = "P") -> str:
    """The section 6.3.1 SPMD form for a scalar reduction."""
    identity = {"+": "0", "*": "1", "min": "+HUGE", "max": "-HUGE"}[op]
    combine = {"+": f"{var} = {var} + priv_{var}",
               "*": f"{var} = {var} * priv_{var}",
               "min": f"{var} = min({var}, priv_{var})",
               "max": f"{var} = max({var}, priv_{var})"}[op]
    return "\n".join([
        f"/* initialization of the private copy */",
        f"priv_{var} = {identity};",
        f"for (i = max(n*pid/{processors}, 0); "
        f"i < min(n*(pid+1)/{processors}, n); i++)",
        f"    priv_{var} = priv_{var} {op if op in '+*' else ','} ...;",
        f"/* finalization */",
        f"lock();",
        f"{combine};",
        f"unlock();",
    ])


def lower_array_reduction(var: str, op: str, elems: str = "m",
                          strategy: str = "staggered",
                          sections: int = 4) -> str:
    """Array-reduction lowering under the section 6.3 strategies."""
    ident = {"+": "0", "*": "1", "min": "+HUGE", "max": "-HUGE"}[op]
    lines = [
        f"/* strategy: {strategy} */",
        f"for (j = 0; j < {elems}; j++) priv_{var}[j] = {ident};",
        f"for (i in my iterations)",
        f"    priv_{var}[f(i)] = priv_{var}[f(i)] {op} ...;",
    ]
    if strategy == "naive":
        lines += [
            "lock();",
            f"for (j = 0; j < {elems}; j++) "
            f"{var}[j] = {var}[j] {op} priv_{var}[j];",
            "unlock();",
        ]
    elif strategy == "minimized":
        lines += [
            "/* only the touched region [lo, hi) is initialized and",
            "   finalized (section 6.3.3) */",
            "lock();",
            f"for (j = lo; j < hi; j++) "
            f"{var}[j] = {var}[j] {op} priv_{var}[j];",
            "unlock();",
        ]
    elif strategy == "staggered":
        lines += [
            f"/* array split into {sections} sections, one lock each;",
            f"   processor p starts at section p (section 6.3.4) */",
            f"for (s = pid; s < pid + {sections}; s++) {{",
            f"    k = s % {sections};",
            f"    lock(sect[k]);",
            f"    combine section k of priv_{var} into {var};",
            f"    unlock(sect[k]);",
            f"}}",
        ]
    elif strategy == "atomic":
        lines = [
            "/* no private copies: lock each individual update",
            "   (section 6.3.5) */",
            f"LOCK(ind[i]);",
            f"{var}[ind[i]] = {var}[ind[i]] {op} ...;",
            f"UNLOCK(ind[i]);",
        ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Array contraction (section 5.6) — real IR rewriting
# ---------------------------------------------------------------------------

class ContractionResult:
    def __init__(self):
        self.contracted: List[Tuple[str, str, int]] = []  # (proc, var, dims)
        self.skipped: List[Tuple[str, str]] = []

    def count(self) -> int:
        return len(self.contracted)


def contractible_dims(loop: LoopStmt, sym: Symbol, proc: Procedure
                      ) -> Optional[List[int]]:
    """Dimensions of ``sym`` that are always subscripted with exactly the
    index of ``loop`` in every reference inside the loop.  Those carry no
    data within one iteration and can be dropped when the array is
    contracted with respect to the loop."""
    dims: Optional[Set[int]] = None
    found = False
    for stmt in loop.body.walk():
        for expr in list(stmt.sub_expressions()) + (
                [stmt.target] if isinstance(stmt, AssignStmt) else []):
            for node in expr.walk():
                if isinstance(node, ArrayRef) and node.symbol is sym:
                    found = True
                    here = {k for k, e in enumerate(node.indices)
                            if isinstance(e, VarRef)
                            and e.symbol is loop.index}
                    dims = here if dims is None else dims & here
    if not found or not dims:
        return None
    return sorted(dims)


def contraction_candidates(loop: LoopStmt, proc: Procedure,
                           dataflow: ArrayDataFlow,
                           liveness: LivenessResult,
                           symbolic) -> List[Tuple[Symbol, List[int]]]:
    """Arrays eligible for contraction in a loop: no upwards-exposed reads
    in the loop, no loop-carried dependences, and not live at loop exit
    (section 5.6)."""
    body = dataflow.loop_body_summary.get(loop.stmt_id)
    if body is None:
        return []
    psym = symbolic.result(proc)
    out: List[Tuple[Symbol, List[int]]] = []
    for sym in proc.symbols.arrays():
        if sym.is_common or sym.is_formal:
            continue            # contraction targets loop temporaries
        key = location_key(sym)
        vs = body.vars.get(key)
        if vs is None or not vs.writes_anything():
            continue
        if not vs.exposed.is_empty():
            continue
        if loop_carried_conflict(vs, loop, psym):
            continue
        if not liveness.is_dead_at_exit(loop, key):
            continue
        dims = contractible_dims(loop, sym, proc)
        if dims:
            out.append((sym, dims))
    return out


def contract_array(program: Program, proc: Procedure, sym: Symbol,
                   drop_dims: Sequence[int]) -> None:
    """Rewrite every reference to ``sym`` in ``proc`` dropping the given
    dimensions, and shrink the declaration.  The array must be local."""
    drop = set(drop_dims)
    keep = [k for k in range(sym.rank) if k not in drop]

    for stmt in proc.statements():
        _rewrite_stmt_refs(stmt, sym, keep)
    sym.dims = [sym.dims[k] for k in keep]
    program.transformed = True


def _rewrite_stmt_refs(stmt: Statement, sym: Symbol, keep: List[int]
                       ) -> None:
    def rewrite(expr):
        if isinstance(expr, ArrayRef) and expr.symbol is sym:
            if not keep:
                return VarRef(sym)      # contracted all the way to a scalar
            expr.indices = [rewrite(expr.indices[k]) for k in keep]
            return expr
        if isinstance(expr, ArrayRef):
            expr.indices = [rewrite(e) for e in expr.indices]
            return expr
        from ..ir.expressions import BinaryOp, Intrinsic, UnaryOp
        if isinstance(expr, BinaryOp):
            expr.left = rewrite(expr.left)
            expr.right = rewrite(expr.right)
            return expr
        if isinstance(expr, UnaryOp):
            expr.operand = rewrite(expr.operand)
            return expr
        if isinstance(expr, Intrinsic):
            expr.args = [rewrite(a) for a in expr.args]
            return expr
        return expr

    if isinstance(stmt, AssignStmt):
        stmt.target = rewrite(stmt.target)
        stmt.value = rewrite(stmt.value)
        return
    from ..ir.statements import CallStmt, IfStmt, IoStmt, LoopStmt
    if isinstance(stmt, CallStmt):
        stmt.args = [rewrite(a) for a in stmt.args]
    elif isinstance(stmt, IfStmt):
        stmt.arms = [(rewrite(c), b) for c, b in stmt.arms]
    elif isinstance(stmt, LoopStmt):
        stmt.low = rewrite(stmt.low)
        stmt.high = rewrite(stmt.high)
        if stmt.step is not None:
            stmt.step = rewrite(stmt.step)
    elif isinstance(stmt, IoStmt):
        stmt.items = [rewrite(i) for i in stmt.items]


def contract_in_program(program: Program, *, loops: Optional[
        Sequence[LoopStmt]] = None) -> ContractionResult:
    """Run the full contraction pass: analyze, pick candidates, rewrite.

    Returns the contraction log.  The program must be re-analyzed after
    this transformation (summaries refer to the old shapes)."""
    from ..analysis.liveness import ArrayLiveness
    from ..analysis.symbolic import SymbolicAnalysis

    result = ContractionResult()
    # Iterate: dropping one dimension (w.r.t. an outer loop) can make the
    # remaining dimension contractible w.r.t. an inner loop (flo88's t
    # goes 2-D -> 1-D -> scalar, Fig 5-11c).
    for _round in range(3):
        symbolic = SymbolicAnalysis(program)
        dataflow = ArrayDataFlow(program, symbolic)
        liveness = ArrayLiveness(dataflow).result
        targets = loops if loops is not None else program.all_loops()
        done: Set[int] = set()
        changed = False
        for loop in targets:
            proc = program.procedures[loop.proc_name]
            for sym, dims in contraction_candidates(loop, proc, dataflow,
                                                    liveness, symbolic):
                if id(sym) in done or not sym.dims:
                    continue
                done.add(id(sym))
                contract_array(program, proc, sym, dims)
                result.contracted.append((proc.name, sym.name, len(dims)))
                changed = True
        if not changed:
            break
    return result
