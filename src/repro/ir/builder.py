"""Lowering from the mini-Fortran AST to the resolved, structured IR.

Responsibilities:

* symbol resolution with Fortran implicit typing (I–N integer),
* COMMON block layout and view registration,
* disambiguating ``name(args)`` into array references vs. intrinsics,
* **GOTO elimination** so every later pass sees structured code only:

  - ``GOTO L`` where ``L`` is the terminating label of an enclosing DO
    becomes :class:`CycleStmt` (hydro's ``IF (K1 .EQ. 0) GO TO 85``),
  - a conditional forward ``GOTO L`` jumping over statements inside the
    same statement list becomes an ``IF (.NOT. cond)`` guard around the
    skipped statements (mdg's ``IF (...) GO TO 2355``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..lang import ast_nodes as ast
from ..lang.errors import BuildError, FrontEndError
from ..lang.parser import INTRINSICS, parse_source, parse_units
from .expressions import (ArrayRef, BinaryOp, Const, Expression, Intrinsic,
                          StrConst, UnaryOp, VarRef, fold_constants)
from .program import Procedure, Program
from .statements import (AssignStmt, Block, CallStmt, CycleStmt, ExitStmt,
                         IfStmt, IoStmt, LoopStmt, NoopStmt, ReturnStmt,
                         Statement, StopStmt)
from .symbols import Dimension, Symbol, SymbolTable, INT, REAL


def build_program(source: str, name: str = "program") -> Program:
    """Parse and lower mini-Fortran source text into a :class:`Program`."""
    from ..obs import get_tracer
    with get_tracer().span("build", program=name) as sp:
        units = parse_units(source, unit=name)
        try:
            program = _build(source, name, units)
        except FrontEndError:
            if not any(delta for _, delta in units):
                raise
            # a diagnostic names its line from the tree: rebuild on trees
            # whose lines are the source's own
            program = _build(source, name, [
                (unit, 0) for unit in parse_source(source, name).units])
        sp.tag(procedures=len(program.procedures),
               loops=len(program.all_loops()))
        return program


def _build(source: str, name: str, units) -> Program:
    program = Program(name)
    program.source_text = source
    builder = _Builder(program)
    for unit, delta in units:
        builder.build_unit(unit, delta)
    builder.validate_calls()
    return program


class _Builder:
    def __init__(self, program: Program):
        self.program = program
        self._call_sites: List[CallStmt] = []

    # -- units ---------------------------------------------------------------
    def build_unit(self, unit: ast.Unit, delta: int = 0) -> None:
        """Lower one unit; ``delta`` is added to the tree's line numbers."""
        table = SymbolTable(unit.name)
        formals: List[Symbol] = []
        for pname in unit.params:
            inferred = INT if pname[:1] in "ijklmn" else REAL
            sym = table.define(Symbol(pname, inferred, storage="formal"))
            formals.append(sym)

        common_names: List[str] = []
        for decl in unit.decls:
            self._build_declaration(decl, table, common_names, unit.name)

        lowerer = _StatementLowerer(self, table, unit.name, delta)
        body = lowerer.lower_block(unit.body)

        first_line = last_line = unit.loc.line + delta
        for stmt in body.walk():
            last_line = max(last_line, stmt.line)
        proc = Procedure(unit.name, unit.kind, formals, table, body,
                         common_names,
                         source_lines=range(first_line, last_line + 2))
        self._name_loops(proc)
        self.program.add_procedure(proc)
        self._call_sites.extend(proc.call_sites())

    def _name_loops(self, proc: Procedure) -> None:
        for loop in proc.loops():
            if loop.term_label is not None:
                loop.name = f"{proc.name}/{loop.term_label}"
            else:
                loop.name = f"{proc.name}/L{loop.line}"

    def validate_calls(self) -> None:
        for call in self._call_sites:
            if call.callee not in self.program.procedures:
                raise BuildError(
                    f"call to undefined subroutine {call.callee!r} "
                    f"(line {call.line})")
            callee = self.program.procedures[call.callee]
            if len(callee.formals) != len(call.args):
                raise BuildError(
                    f"call to {call.callee!r} at line {call.line} passes "
                    f"{len(call.args)} args, expected {len(callee.formals)}")

    # -- declarations ------------------------------------------------------------
    def _build_declaration(self, decl: ast.Declaration, table: SymbolTable,
                           common_names: List[str], proc_name: str) -> None:
        if decl.kind == "parameter":
            for pname, expr in decl.params:
                value = fold_constants(self._lower_expr_decl(expr, table))
                if not isinstance(value, Const):
                    raise BuildError(
                        f"PARAMETER {pname} is not a constant", decl.loc)
                table.define(Symbol(pname, INT if isinstance(value.value, int)
                                    else REAL, storage="const",
                                    const_value=value.value))
            return

        if decl.kind in ("type", "dimension"):
            for entry in decl.entries:
                self._declare_entry(entry, table,
                                    decl.type_name or None)
            return

        if decl.kind == "common":
            from .symbols import CommonView
            members: List[Symbol] = []
            for entry in decl.entries:
                sym = self._declare_entry(entry, table, None)
                sym.storage = "common"
                sym.common_block = decl.common_name
                members.append(sym)
            block = self.program.common_block(decl.common_name)
            block.add_view(CommonView(proc_name, members))
            if decl.common_name not in common_names:
                common_names.append(decl.common_name)
            return

        raise BuildError(f"unknown declaration kind {decl.kind!r}", decl.loc)

    def _declare_entry(self, entry: ast.ArrayDecl, table: SymbolTable,
                       type_name: Optional[str]) -> Symbol:
        existing = table.lookup(entry.name)
        dims: List[Dimension] = []
        for low_ast, high_ast in entry.dims:
            low = (self._lower_expr_decl(low_ast, table)
                   if low_ast is not None else Const(1))
            high = (self._lower_expr_decl(high_ast, table)
                    if high_ast is not None else None)
            dims.append(Dimension(fold_constants(low),
                                  fold_constants(high) if high is not None
                                  else None))
        if existing is not None:
            # e.g. INTEGER n after n appeared as a formal, or DIMENSION
            # refining a typed name.
            if type_name:
                existing.type = type_name
            if dims:
                existing.dims = dims
            return existing
        inferred = type_name or (INT if entry.name[:1] in "ijklmn" else REAL)
        return table.define(Symbol(entry.name, inferred, dims=dims))

    def _lower_expr_decl(self, expr: ast.Expr, table: SymbolTable
                         ) -> Expression:
        """Lower an expression appearing in a declaration context."""
        return _StatementLowerer(self, table, table.proc_name
                                 ).lower_expr(expr)


class _StatementLowerer:
    """Lower one unit's statement tree, eliminating GOTOs on the way."""

    def __init__(self, builder: _Builder, table: SymbolTable, proc_name: str,
                 delta: int = 0):
        self.builder = builder
        self.table = table
        self.proc_name = proc_name
        self.delta = delta            # tree line -> source line
        self._loop_label_stack: List[int] = []

    # -- expressions -----------------------------------------------------------
    def lower_expr(self, expr: ast.Expr) -> Expression:
        if isinstance(expr, ast.NumLit):
            return Const(expr.value)
        if isinstance(expr, ast.StrLit):
            return StrConst(expr.value)
        if isinstance(expr, ast.BoolLit):
            return Const(expr.value)
        if isinstance(expr, ast.Name):
            sym = self.table.get_or_create(expr.ident)
            if sym.is_const:
                return Const(sym.const_value)
            if sym.is_array:
                # whole-array actual argument (only legal in CALL position;
                # callers check)
                return ArrayRef(sym, [])
            return VarRef(sym)
        if isinstance(expr, ast.Apply):
            declared = self.table.lookup(expr.ident)
            if declared is not None and declared.is_array:
                if len(expr.args) > declared.rank:
                    raise BuildError(
                        f"array {expr.ident} has rank {declared.rank}, "
                        f"indexed with {len(expr.args)} subscripts", expr.loc)
                return ArrayRef(declared,
                                [self.lower_expr(a) for a in expr.args])
            if expr.ident in INTRINSICS:
                return Intrinsic(_normalize_intrinsic(expr.ident),
                                 [self.lower_expr(a) for a in expr.args])
            raise BuildError(
                f"{expr.ident!r} is neither a declared array nor an "
                f"intrinsic", expr.loc)
        if isinstance(expr, ast.BinOp):
            return BinaryOp(expr.op, self.lower_expr(expr.left),
                            self.lower_expr(expr.right))
        if isinstance(expr, ast.UnOp):
            return UnaryOp(expr.op, self.lower_expr(expr.operand))
        raise BuildError(f"cannot lower expression {expr!r}", expr.loc)

    # -- statements -----------------------------------------------------------
    def lower_block(self, stmts: List[ast.Stmt]) -> Block:
        return Block(self._lower_list(stmts))

    def _lower_list(self, stmts: List[ast.Stmt]) -> List[Statement]:
        out: List[Statement] = []
        i = 0
        while i < len(stmts):
            node = stmts[i]
            goto = _extract_goto(node)
            if goto is not None:
                cond_ast, target = goto
                handled, consumed = self._lower_goto(
                    node, cond_ast, target, stmts, i, out)
                if handled:
                    i += consumed
                    continue
            out.append(self._lower_stmt(node))
            i += 1
        return out

    def _lower_goto(self, node: ast.Stmt, cond_ast: Optional[ast.Expr],
                    target: int, stmts: List[ast.Stmt], i: int,
                    out: List[Statement]) -> Tuple[bool, int]:
        """Handle a (possibly conditional) GOTO at position ``i``.

        Returns (handled, #ast-statements consumed)."""
        # Case 1: jump to an enclosing loop's terminating label -> CYCLE.
        if target in self._loop_label_stack:
            line = node.loc.line + self.delta
            cyc = CycleStmt(target_label=target, line=line)
            if cond_ast is not None:
                cond = self.lower_expr(cond_ast)
                out.append(IfStmt([(cond, Block([cyc]))], None,
                                  line=line, label=node.label))
            else:
                cyc.label = node.label
                out.append(cyc)
            return True, 1

        # Case 2: conditional forward jump within this statement list ->
        # guard the skipped statements with the negated condition.
        if cond_ast is not None:
            for j in range(i + 1, len(stmts)):
                if stmts[j].label == target:
                    skipped = self._lower_list(stmts[i + 1:j])
                    guard = UnaryOp("not", self.lower_expr(cond_ast))
                    out.append(IfStmt([(guard, Block(skipped))], None,
                                      line=node.loc.line + self.delta,
                                      label=node.label))
                    return True, j - i   # resume at the labeled statement
        raise BuildError(
            f"unsupported GOTO {target} at line {node.loc.line}: target is "
            f"neither an enclosing DO terminator nor a forward label in the "
            f"same statement list")

    def _lower_stmt(self, node: ast.Stmt) -> Statement:
        line = node.loc.line + self.delta
        label = node.label
        if isinstance(node, ast.Assign):
            target = self.lower_expr(node.target)
            if not isinstance(target, (VarRef, ArrayRef)) or (
                    isinstance(target, ArrayRef) and not target.indices):
                raise BuildError("invalid assignment target", node.loc)
            return AssignStmt(target, self.lower_expr(node.value),
                              line=line, label=label)
        if isinstance(node, ast.CallStmt):
            args = [self.lower_expr(a) for a in node.args]
            return CallStmt(node.name, args, line=line, label=label)
        if isinstance(node, ast.DoLoop):
            index = self.table.get_or_create(node.var)
            low = self.lower_expr(node.low)
            high = self.lower_expr(node.high)
            step = self.lower_expr(node.step) if node.step else None
            if node.term_label is not None:
                self._loop_label_stack.append(node.term_label)
            body = self.lower_block(node.body)
            if node.term_label is not None:
                self._loop_label_stack.pop()
            return LoopStmt(index, low, high, step, body,
                            term_label=node.term_label, line=line,
                            label=label)
        if isinstance(node, ast.IfBlock):
            arms = [(self.lower_expr(c), self.lower_block(b))
                    for c, b in node.arms]
            else_block = (self.lower_block(node.else_body)
                          if node.else_body is not None else None)
            return IfStmt(arms, else_block, line=line, label=label)
        if isinstance(node, ast.LogicalIf):
            cond = self.lower_expr(node.cond)
            inner = self._lower_list([node.stmt])
            return IfStmt([(cond, Block(inner))], None, line=line,
                          label=label)
        if isinstance(node, ast.Continue):
            return NoopStmt(line=line, label=label)
        if isinstance(node, ast.Return):
            return ReturnStmt(line=line, label=label)
        if isinstance(node, ast.Stop):
            return StopStmt(line=line, label=label)
        if isinstance(node, ast.ExitStmt):
            return ExitStmt(line=line, label=label)
        if isinstance(node, ast.CycleStmt):
            return CycleStmt(line=line, label=label)
        if isinstance(node, ast.IoStmt):
            return IoStmt(node.kind, [self.lower_expr(e) for e in node.items],
                          line=line, label=label)
        if isinstance(node, ast.Goto):
            raise BuildError(f"unsupported bare GOTO at line {line}")
        raise BuildError(f"cannot lower statement {node!r}", node.loc)


def _extract_goto(node: ast.Stmt) -> Optional[Tuple[Optional[ast.Expr], int]]:
    """If ``node`` is ``GOTO L`` or ``IF (c) GOTO L``, return (cond?, L)."""
    if isinstance(node, ast.Goto):
        return (None, node.target)
    if isinstance(node, ast.LogicalIf) and isinstance(node.stmt, ast.Goto):
        return (node.cond, node.stmt.target)
    return None


_INTRINSIC_ALIASES = {
    "amin1": "min", "amax1": "max", "min0": "min", "max0": "max",
    "iabs": "abs",
}


def _normalize_intrinsic(name: str) -> str:
    return _INTRINSIC_ALIASES.get(name, name)
