"""Symbolic (affine) analysis of scalar variables.

"The symbolic analysis finds loop invariants and induction variables,
determines affine relationships between variables, and performs constant
propagation" (paper section 2.4).  Its product is, for every statement, an
environment mapping each scalar symbol to an *affine value*: a
:class:`LinExpr` over a small vocabulary of symbolic terms:

* ``in:<proc>:<name>`` — the value of a scalar at procedure entry,
* ``ix:<loop-id>:<name>`` — a loop index inside its loop,
* ``tg:<n>`` — an opaque tag for values the analysis cannot express
  (array loads, intrinsic results, call-modified scalars, control-flow
  merges of differing values).

Tags remember their defining statement, so downstream clients can decide
whether a term is *variant* with respect to a given loop (defined inside
its body) or invariant.  That variance classification is what makes the
polyhedral dependence test (:mod:`repro.analysis.dependence`) sound: variant
terms must be renamed per iteration, invariant terms are shared.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..ir.expressions import (ArrayRef, BinaryOp, Const, Expression,
                              Intrinsic, StrConst, UnaryOp, VarRef)
from ..ir.program import Procedure, Program
from ..ir.statements import (AssignStmt, Block, CallStmt, CycleStmt,
                             ExitStmt, IfStmt, IoStmt, LoopStmt, NoopStmt,
                             ReturnStmt, Statement, StopStmt, enclosing_loops)
from ..ir.symbols import Symbol
from ..poly import LinExpr, reset_emptiness_memo

_tag_counter = itertools.count(1)


def entry_var(proc_name: str, sym_name: str) -> str:
    return f"in:{proc_name}:{sym_name}"


def index_var(loop: LoopStmt) -> str:
    return f"ix:{loop.stmt_id}:{loop.index.name}"


def is_index_var(name: str) -> bool:
    return name.startswith("ix:")


def index_var_loop_id(name: str) -> int:
    return int(name.split(":")[1])


class TagRegistry:
    """Where each opaque tag was born, for variance queries."""

    def __init__(self) -> None:
        self.def_stmt: Dict[str, Statement] = {}

    def fresh(self, stmt: Statement) -> str:
        tag = f"tg:{next(_tag_counter)}"
        self.def_stmt[tag] = stmt
        return tag

    def is_tag(self, name: str) -> bool:
        return name.startswith("tg:")

    def defined_inside(self, tag: str, loop: LoopStmt) -> bool:
        stmt = self.def_stmt.get(tag)
        if stmt is None:
            return False
        return any(l is loop for l in enclosing_loops(stmt)) or stmt is loop


class Env:
    """Immutable-by-convention symbol → LinExpr environment."""

    __slots__ = ("values",)

    def __init__(self, values: Optional[Dict[Symbol, LinExpr]] = None):
        self.values = dict(values or {})

    def copy(self) -> "Env":
        return Env(self.values)

    def get(self, sym: Symbol) -> Optional[LinExpr]:
        return self.values.get(sym)

    def set(self, sym: Symbol, value: LinExpr) -> None:
        self.values[sym] = value


class ProcSymbolic:
    """Result of the symbolic pass over one procedure."""

    def __init__(self, proc: Procedure, tags: TagRegistry):
        self.proc = proc
        self.tags = tags
        # environment *before* each statement executes
        self.env_before: Dict[int, Env] = {}
        # affine loop bounds (low, high, step) in the loop's own pre-state
        self.loop_bounds: Dict[int, Tuple[Optional[LinExpr],
                                          Optional[LinExpr], Optional[int]]] = {}
        # induction variables per loop: sym -> per-iteration step LinExpr
        self.induction: Dict[int, Dict[Symbol, LinExpr]] = {}

    def env_at(self, stmt: Statement) -> Env:
        return self.env_before.get(stmt.stmt_id, Env())

    def affine_index(self, expr: Expression, stmt: Statement
                     ) -> Optional[LinExpr]:
        """Affine value of a subscript expression at a statement, or None."""
        return eval_affine(expr, self.env_at(stmt), self.tags, stmt)

    def is_variant(self, name: str, loop: LoopStmt) -> bool:
        """Is symbolic term ``name`` iteration-variant w.r.t. ``loop``?"""
        if is_index_var(name):
            lid = index_var_loop_id(name)
            if lid == loop.stmt_id:
                return True
            inner = self.proc.body  # check if that loop is nested in `loop`
            target = None
            for s in loop.body.walk():
                if s.stmt_id == lid:
                    target = s
                    break
            return target is not None
        if self.tags.is_tag(name):
            return self.tags.defined_inside(name, loop)
        return False


class SymbolicAnalysis:
    """Run the forward symbolic pass over every procedure of a program.

    The pass is intraprocedural (scalars modified by calls become opaque),
    applied once per procedure; results are cached on the instance.
    """

    def __init__(self, program: Program):
        # Every static analysis is rooted here, so this is where one
        # job's polyhedron-emptiness answers end and the next job's begin.
        reset_emptiness_memo()
        self.program = program
        self.tags = TagRegistry()
        self._results: Dict[str, ProcSymbolic] = {}
        self._mod_scalars_cache: Dict[str, Set[str]] = {}

    def result(self, proc: Procedure) -> ProcSymbolic:
        got = self._results.get(proc.name)
        if got is None:
            got = self._analyze(proc)
            self._results[proc.name] = got
        return got

    # -- mod-scalars: which scalar names a call may modify ------------------
    def _modified_scalar_keys(self, proc_name: str) -> Set[str]:
        """Keys of scalars (formal positions as 'arg:<k>', common members as
        'cm:<block>:<offset>') a procedure and its callees may modify."""
        cached = self._mod_scalars_cache.get(proc_name)
        if cached is not None:
            return cached
        self._mod_scalars_cache[proc_name] = set()   # recursion guard
        proc = self.program.procedures[proc_name]
        keys: Set[str] = set()
        formal_pos = {f: k for k, f in enumerate(proc.formals)}

        def key_of(sym: Symbol) -> Optional[str]:
            if sym.is_array:
                return None
            if sym in formal_pos:
                return f"arg:{formal_pos[sym]}"
            if sym.is_common:
                return f"cm:{sym.common_block}:{sym.common_offset}"
            return None

        for stmt in proc.statements():
            if isinstance(stmt, AssignStmt) and isinstance(stmt.target, VarRef):
                k = key_of(stmt.target.symbol)
                if k:
                    keys.add(k)
            elif isinstance(stmt, IoStmt) and stmt.kind == "read":
                for item in stmt.items:
                    if isinstance(item, VarRef):
                        k = key_of(item.symbol)
                        if k:
                            keys.add(k)
            elif isinstance(stmt, CallStmt):
                callee_keys = self._modified_scalar_keys(stmt.callee)
                callee = self.program.procedures[stmt.callee]
                for ck in callee_keys:
                    if ck.startswith("cm:"):
                        keys.add(ck)
                    else:
                        pos = int(ck.split(":")[1])
                        if pos < len(stmt.args):
                            actual = stmt.args[pos]
                            if isinstance(actual, VarRef):
                                k = key_of(actual.symbol)
                                if k:
                                    keys.add(k)
        self._mod_scalars_cache[proc_name] = keys
        return keys

    def call_modifies(self, call: CallStmt, sym: Symbol,
                      caller: Procedure) -> bool:
        """May this call modify scalar ``sym`` of the calling procedure?"""
        if sym.is_array:
            return False
        callee_keys = self._modified_scalar_keys(call.callee)
        if sym.is_common:
            if f"cm:{sym.common_block}:{sym.common_offset}" in callee_keys:
                return True
        for pos, actual in enumerate(call.args):
            if isinstance(actual, VarRef) and actual.symbol is sym:
                if f"arg:{pos}" in callee_keys:
                    return True
        return False

    # -- the forward pass ----------------------------------------------------
    def _analyze(self, proc: Procedure) -> ProcSymbolic:
        result = ProcSymbolic(proc, self.tags)
        env = Env()
        for sym in proc.symbols:
            if not sym.is_array and not sym.is_const:
                env.set(sym, LinExpr.var(entry_var(proc.name, sym.name)))
        self._walk_block(proc.body, env, result, proc)
        return result

    def _walk_block(self, block: Block, env: Env, result: ProcSymbolic,
                    proc: Procedure) -> Env:
        for stmt in block.statements:
            env = self._walk_stmt(stmt, env, result, proc)
        return env

    def _walk_stmt(self, stmt: Statement, env: Env, result: ProcSymbolic,
                   proc: Procedure) -> Env:
        result.env_before[stmt.stmt_id] = env.copy()
        if isinstance(stmt, AssignStmt):
            if isinstance(stmt.target, VarRef):
                value = eval_affine(stmt.value, env, self.tags, stmt)
                new = env.copy()
                new.set(stmt.target.symbol,
                        value if value is not None
                        else LinExpr.var(self.tags.fresh(stmt)))
                return new
            return env
        if isinstance(stmt, CallStmt):
            new = env.copy()
            for sym in list(new.values):
                if self.call_modifies(stmt, sym, proc):
                    new.set(sym, LinExpr.var(self.tags.fresh(stmt)))
            return new
        if isinstance(stmt, IoStmt):
            if stmt.kind == "read":
                new = env.copy()
                for item in stmt.items:
                    if isinstance(item, VarRef):
                        new.set(item.symbol,
                                LinExpr.var(self.tags.fresh(stmt)))
                return new
            return env
        if isinstance(stmt, IfStmt):
            out_envs: List[Env] = []
            for _, body in stmt.arms:
                out_envs.append(self._walk_block(body, env.copy(), result,
                                                 proc))
            if stmt.else_block is not None:
                out_envs.append(self._walk_block(stmt.else_block, env.copy(),
                                                 result, proc))
            else:
                out_envs.append(env)
            return self._merge(out_envs, stmt)
        if isinstance(stmt, LoopStmt):
            return self._walk_loop(stmt, env, result, proc)
        if isinstance(stmt, (CycleStmt, ExitStmt, ReturnStmt, StopStmt,
                             NoopStmt)):
            return env
        return env

    def _merge(self, envs: List[Env], stmt: Statement) -> Env:
        """Join environments at a control-flow merge: symbols with equal
        values keep them; differing values become a fresh opaque tag."""
        if not envs:
            return Env()
        merged = envs[0].copy()
        all_syms = set()
        for e in envs:
            all_syms.update(e.values)
        for sym in all_syms:
            vals = [e.get(sym) for e in envs]
            first = vals[0]
            if all(v is not None and v == first for v in vals):
                merged.set(sym, first)
            else:
                merged.set(sym, LinExpr.var(self.tags.fresh(stmt)))
        return merged

    def _walk_loop(self, loop: LoopStmt, env: Env, result: ProcSymbolic,
                   proc: Procedure) -> Env:
        low = eval_affine(loop.low, env, self.tags, loop)
        high = eval_affine(loop.high, env, self.tags, loop)
        step: Optional[int] = 1
        if loop.step is not None:
            s = eval_affine(loop.step, env, self.tags, loop)
            if s is not None and s.is_constant() and s.const.denominator == 1:
                step = int(s.const)
            else:
                step = None
        result.loop_bounds[loop.stmt_id] = (low, high, step)

        # Iteration-entry environment: kill everything the body may modify
        # (their values depend on the unknown previous iteration), except
        # simple induction variables which we leave opaque too but record.
        body_env = env.copy()
        body_env.set(loop.index, LinExpr.var(index_var(loop)))
        modified = self._scalars_modified_in(loop.body, proc)
        induction = self._find_induction(loop, env)
        result.induction[loop.stmt_id] = induction
        for sym in modified:
            if sym is loop.index:
                continue
            body_env.set(sym, LinExpr.var(self.tags.fresh(loop)))
        self._walk_block(loop.body, body_env, result, proc)

        # After the loop: index and modified scalars are unknown.
        after = env.copy()
        after.set(loop.index, LinExpr.var(self.tags.fresh(loop)))
        for sym in modified:
            after.set(sym, LinExpr.var(self.tags.fresh(loop)))
        return after

    def _scalars_modified_in(self, block: Block, proc: Procedure
                             ) -> Set[Symbol]:
        out: Set[Symbol] = set()
        for stmt in block.walk():
            if isinstance(stmt, AssignStmt) and isinstance(stmt.target,
                                                           VarRef):
                out.add(stmt.target.symbol)
            elif isinstance(stmt, LoopStmt):
                out.add(stmt.index)
            elif isinstance(stmt, IoStmt) and stmt.kind == "read":
                for item in stmt.items:
                    if isinstance(item, VarRef):
                        out.add(item.symbol)
            elif isinstance(stmt, CallStmt):
                for sym in proc.symbols:
                    if not sym.is_array and self.call_modifies(stmt, sym,
                                                               proc):
                        out.add(sym)
        return out

    def _find_induction(self, loop: LoopStmt, env: Env
                        ) -> Dict[Symbol, LinExpr]:
        """Recognize scalars updated exactly once per iteration as
        ``v = v + loop-invariant`` (basic induction variables)."""
        candidates: Dict[Symbol, List[AssignStmt]] = {}
        conditional: Set[Symbol] = set()
        for stmt in loop.body.walk():
            if isinstance(stmt, AssignStmt) and isinstance(stmt.target,
                                                           VarRef):
                sym = stmt.target.symbol
                candidates.setdefault(sym, []).append(stmt)
                if any(isinstance(p, IfStmt) or
                       (isinstance(p, LoopStmt) and p is not loop)
                       for p in _parents_up_to(stmt, loop)):
                    conditional.add(sym)
        modified = set(candidates)
        for s in loop.body.walk():
            if isinstance(s, LoopStmt):
                modified.add(s.index)
        out: Dict[Symbol, LinExpr] = {}
        for sym, stmts in candidates.items():
            if len(stmts) != 1 or sym in conditional:
                continue
            stmt = stmts[0]
            delta = _self_increment(stmt, sym)
            if delta is None:
                continue
            # the increment must be loop invariant: it may not reference
            # anything (re)assigned inside the loop, including the index
            if any(s2 in modified or s2 is loop.index
                   for s2 in delta.referenced_symbols()):
                continue
            val = eval_affine(delta, env, self.tags, stmt)
            if val is not None:
                out[sym] = val
        return out


def _parents_up_to(stmt: Statement, stop: Statement) -> Iterator[Statement]:
    cur = stmt.parent
    while cur is not None and cur is not stop:
        yield cur
        cur = cur.parent


def _self_increment(stmt: AssignStmt, sym: Symbol) -> Optional[Expression]:
    """If stmt is ``sym = sym + delta`` (or ``delta + sym`` / ``sym - d``),
    return delta (negated for subtraction)."""
    v = stmt.value
    if not isinstance(v, BinaryOp) or v.op not in ("+", "-"):
        return None
    left_is_sym = isinstance(v.left, VarRef) and v.left.symbol is sym
    right_is_sym = isinstance(v.right, VarRef) and v.right.symbol is sym
    if left_is_sym and not _mentions(v.right, sym):
        if v.op == "+":
            return v.right
        return UnaryOp("-", v.right)
    if v.op == "+" and right_is_sym and not _mentions(v.left, sym):
        return v.left
    return None


def _mentions(expr: Expression, sym: Symbol) -> bool:
    return any(s is sym for s in expr.referenced_symbols())


def eval_affine(expr: Expression, env: Env, tags: TagRegistry,
                stmt: Statement) -> Optional[LinExpr]:
    """Evaluate an IR expression to a LinExpr in ``env``; None if the value
    is not affine (float arithmetic, array loads, intrinsics, ...)."""
    if isinstance(expr, Const):
        if isinstance(expr.value, bool):
            return None
        if isinstance(expr.value, int):
            return LinExpr.constant(expr.value)
        return None   # float constants never feed subscripts usefully
    if isinstance(expr, VarRef):
        got = env.get(expr.symbol)
        if got is not None:
            return got
        if expr.symbol.is_const:
            v = expr.symbol.const_value
            return LinExpr.constant(v) if isinstance(v, int) else None
        return None
    if isinstance(expr, BinaryOp):
        if expr.op in ("+", "-", "*", "/"):
            left = eval_affine(expr.left, env, tags, stmt)
            right = eval_affine(expr.right, env, tags, stmt)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                if left.is_constant():
                    return right * left.const
                if right.is_constant():
                    return left * right.const
                return None
            if expr.op == "/":
                if right.is_constant() and right.const != 0:
                    # Exact only when division is integral; we accept the
                    # rational value, which is correct whenever the program
                    # divides evenly (typical for index math) and is treated
                    # as non-affine otherwise by integer-only consumers.
                    if left.is_constant():
                        q = left.const / right.const
                        return (LinExpr.constant(q)
                                if q.denominator == 1 else None)
                    return None
                return None
        return None
    if isinstance(expr, UnaryOp):
        if expr.op == "-":
            inner = eval_affine(expr.operand, env, tags, stmt)
            return -inner if inner is not None else None
        return None
    if isinstance(expr, (ArrayRef, Intrinsic, StrConst)):
        return None
    return None
