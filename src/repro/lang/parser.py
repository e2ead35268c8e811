"""Recursive-descent parser for the mini-Fortran language.

Produces a :class:`repro.lang.ast_nodes.SourceFile`.  Notable Fortran-isms
supported because the paper's example codes use them:

* label-terminated DO loops (``DO 100 I = 1, N ... 100 CONTINUE``),
  including several nested loops sharing one terminating label
  (``DO 30 I ... DO 30 J ... 30 CONTINUE`` as in flo88's psmoo),
* one-line logical IF (``IF (K .EQ. 0) GO TO 85``),
* COMMON blocks with per-unit shapes (hydro2d's vz/vz1 aliasing),
* dotted relational/logical operators.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from . import ast_nodes as ast
from .errors import FrontEndError, ParseError, SourceLocation
from .lexer import (EOF, FLOAT, IDENT, INT, KW, LABEL, NEWLINE, OP, STRING,
                    Token, tokenize)

_DECL_KEYWORDS = {"integer", "real", "dimension", "common", "parameter"}

# Intrinsics are parsed as Apply and classified later by the IR builder.
INTRINSICS = {
    "min", "max", "abs", "mod", "sqrt", "exp", "log", "sin", "cos",
    "float", "int", "sign", "iabs", "amin1", "amax1", "min0", "max0",
}


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        # Set when a shared-label DO terminator has just been consumed, so
        # enclosing loops with the same terminating label also close.
        self._just_closed_label: Optional[int] = None

    # -- token plumbing -----------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        i = self.pos + offset
        return self.tokens[min(i, len(self.tokens) - 1)]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def _check(self, kind: str, value=None) -> bool:
        tok = self._peek()
        if tok.kind != kind:
            return False
        return value is None or tok.value == value

    def _accept(self, kind: str, value=None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value=None) -> Token:
        if not self._check(kind, value):
            tok = self._peek()
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}", tok.loc)
        return self._advance()

    def _skip_newlines(self) -> None:
        while self._accept(NEWLINE):
            pass

    def _end_of_statement(self) -> None:
        if self._peek().kind == EOF:
            return
        self._expect(NEWLINE)
        self._skip_newlines()

    # -- program units --------------------------------------------------------
    def parse_source(self) -> ast.SourceFile:
        self._skip_newlines()
        units: List[ast.Unit] = []
        loc = self._peek().loc
        while not self._check(EOF):
            units.append(self._parse_unit())
            self._skip_newlines()
        if not units:
            raise ParseError("empty source file", loc)
        return ast.SourceFile(units, loc)

    def _parse_unit(self) -> ast.Unit:
        tok = self._peek()
        if self._accept(KW, "program"):
            name = self._expect(IDENT).value
            params: List[str] = []
        elif self._accept(KW, "subroutine"):
            name = self._expect(IDENT).value
            params = []
            if self._accept(OP, "("):
                if not self._check(OP, ")"):
                    params.append(self._expect(IDENT).value)
                    while self._accept(OP, ","):
                        params.append(self._expect(IDENT).value)
                self._expect(OP, ")")
        else:
            raise ParseError("expected PROGRAM or SUBROUTINE", tok.loc)
        self._end_of_statement()

        decls: List[ast.Declaration] = []
        while self._check(KW) and self._peek().value in _DECL_KEYWORDS:
            decls.append(self._parse_declaration())
            self._end_of_statement()

        body = self._parse_stmt_list(stop=lambda: self._check(KW, "end"))
        self._expect(KW, "end")
        if self._peek().kind == NEWLINE:
            self._end_of_statement()
        return ast.Unit(tok.value, name, params, decls, body, tok.loc)

    # -- declarations -----------------------------------------------------------
    def _parse_declaration(self) -> ast.Declaration:
        tok = self._advance()
        kw = tok.value
        if kw in ("integer", "real"):
            entries = self._parse_arraydecl_list()
            return ast.Declaration("type", tok.loc, type_name=kw,
                                   entries=entries)
        if kw == "dimension":
            entries = self._parse_arraydecl_list()
            return ast.Declaration("dimension", tok.loc, entries=entries)
        if kw == "common":
            self._expect(OP, "/")
            cname = self._expect(IDENT).value
            self._expect(OP, "/")
            entries = self._parse_arraydecl_list()
            return ast.Declaration("common", tok.loc, common_name=cname,
                                   entries=entries)
        if kw == "parameter":
            self._expect(OP, "(")
            params: List[Tuple[str, ast.Expr]] = []
            while True:
                pname = self._expect(IDENT).value
                self._expect(OP, "=")
                params.append((pname, self._parse_expr()))
                if not self._accept(OP, ","):
                    break
            self._expect(OP, ")")
            return ast.Declaration("parameter", tok.loc, params=params)
        raise ParseError(f"unknown declaration {kw!r}", tok.loc)

    def _parse_arraydecl_list(self) -> List[ast.ArrayDecl]:
        entries = [self._parse_arraydecl()]
        while self._accept(OP, ","):
            entries.append(self._parse_arraydecl())
        return entries

    def _parse_arraydecl(self) -> ast.ArrayDecl:
        tok = self._expect(IDENT)
        dims: List[Tuple[Optional[ast.Expr], Optional[ast.Expr]]] = []
        if self._accept(OP, "("):
            while True:
                dims.append(self._parse_dim())
                if not self._accept(OP, ","):
                    break
            self._expect(OP, ")")
        return ast.ArrayDecl(tok.value, dims, tok.loc)

    def _parse_dim(self) -> Tuple[Optional[ast.Expr], Optional[ast.Expr]]:
        if self._accept(OP, "*"):
            return (None, None)
        first = self._parse_expr()
        if self._accept(OP, ":"):
            if self._check(OP, "*"):
                self._advance()
                return (first, None)
            return (first, self._parse_expr())
        return (None, first)   # declared 1:first

    # -- statements -----------------------------------------------------------
    def _parse_stmt_list(self, stop: Callable[[], bool],
                         shared_label: Optional[int] = None) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        self._skip_newlines()
        while not stop() and not self._check(EOF):
            stmt = self._parse_statement()
            stmts.append(stmt)
            if shared_label is not None and (
                    stmt.label == shared_label
                    or self._just_closed_label == shared_label):
                break
            self._skip_newlines()
        self._skip_newlines()
        return stmts

    def _parse_statement(self) -> ast.Stmt:
        label: Optional[int] = None
        lab_tok = self._accept(LABEL)
        if lab_tok is not None:
            label = lab_tok.value
        self._just_closed_label = None
        stmt = self._parse_unlabeled_statement(label)
        stmt.label = label
        return stmt

    def _parse_unlabeled_statement(self, label: Optional[int]) -> ast.Stmt:
        tok = self._peek()
        if tok.kind == KW:
            kw = tok.value
            if kw == "do":
                return self._parse_do()
            if kw == "if":
                return self._parse_if()
            if kw == "call":
                return self._parse_call()
            if kw == "goto":
                self._advance()
                target = self._expect(INT).value
                self._end_of_statement()
                return ast.Goto(target, tok.loc)
            if kw == "continue":
                self._advance()
                self._end_of_statement()
                return ast.Continue(tok.loc)
            if kw == "return":
                self._advance()
                self._end_of_statement()
                return ast.Return(tok.loc)
            if kw == "stop":
                self._advance()
                self._end_of_statement()
                return ast.Stop(tok.loc)
            if kw == "exit":
                self._advance()
                self._end_of_statement()
                return ast.ExitStmt(tok.loc)
            if kw == "cycle":
                self._advance()
                self._end_of_statement()
                return ast.CycleStmt(tok.loc)
            if kw in ("print", "read"):
                return self._parse_io(kw)
            raise ParseError(f"unexpected keyword {kw!r}", tok.loc)
        if tok.kind == IDENT:
            return self._parse_assignment()
        raise ParseError(f"unexpected token {tok.value!r}", tok.loc)

    def _parse_simple_statement(self) -> ast.Stmt:
        """Statement allowed as the body of a one-line logical IF."""
        tok = self._peek()
        if tok.kind == KW:
            kw = tok.value
            if kw == "goto":
                self._advance()
                target = self._expect(INT).value
                self._end_of_statement()
                return ast.Goto(target, tok.loc)
            if kw == "call":
                return self._parse_call()
            if kw == "return":
                self._advance()
                self._end_of_statement()
                return ast.Return(tok.loc)
            if kw == "exit":
                self._advance()
                self._end_of_statement()
                return ast.ExitStmt(tok.loc)
            if kw == "cycle":
                self._advance()
                self._end_of_statement()
                return ast.CycleStmt(tok.loc)
            if kw in ("print", "read"):
                return self._parse_io(kw)
            raise ParseError(f"{kw!r} not allowed in logical IF", tok.loc)
        return self._parse_assignment()

    def _parse_do(self) -> ast.DoLoop:
        tok = self._expect(KW, "do")
        term_label: Optional[int] = None
        lt = self._accept(INT)
        if lt is not None:
            term_label = lt.value
        var = self._expect(IDENT).value
        self._expect(OP, "=")
        low = self._parse_expr()
        self._expect(OP, ",")
        high = self._parse_expr()
        step = None
        if self._accept(OP, ","):
            step = self._parse_expr()
        self._end_of_statement()

        if term_label is None:
            body = self._parse_stmt_list(
                stop=lambda: self._check(KW, "enddo"))
            self._expect(KW, "enddo")
            if self._peek().kind == NEWLINE:
                self._end_of_statement()
            return ast.DoLoop(var, low, high, step, body, None, tok.loc)

        # Label-terminated: consume statements until one carries term_label.
        body = self._parse_stmt_list(
            stop=lambda: False, shared_label=term_label)
        if body and body[-1].label == term_label:
            pass
        elif self._just_closed_label != term_label:
            raise ParseError(
                f"DO loop terminator label {term_label} not found", tok.loc)
        self._just_closed_label = term_label
        return ast.DoLoop(var, low, high, step, body, term_label, tok.loc)

    def _parse_if(self) -> ast.Stmt:
        tok = self._expect(KW, "if")
        self._expect(OP, "(")
        cond = self._parse_expr()
        self._expect(OP, ")")
        if self._accept(KW, "then"):
            self._end_of_statement()
            arms: List[Tuple[ast.Expr, List[ast.Stmt]]] = []
            body = self._parse_stmt_list(
                stop=lambda: self._check(KW, "elseif")
                or self._check(KW, "else") or self._check(KW, "endif"))
            arms.append((cond, body))
            else_body: Optional[List[ast.Stmt]] = None
            while self._accept(KW, "elseif"):
                self._expect(OP, "(")
                c2 = self._parse_expr()
                self._expect(OP, ")")
                self._expect(KW, "then")
                self._end_of_statement()
                b2 = self._parse_stmt_list(
                    stop=lambda: self._check(KW, "elseif")
                    or self._check(KW, "else") or self._check(KW, "endif"))
                arms.append((c2, b2))
            if self._accept(KW, "else"):
                self._end_of_statement()
                else_body = self._parse_stmt_list(
                    stop=lambda: self._check(KW, "endif"))
            self._expect(KW, "endif")
            if self._peek().kind == NEWLINE:
                self._end_of_statement()
            return ast.IfBlock(arms, else_body, tok.loc)
        # one-line logical IF
        inner = self._parse_simple_statement()
        return ast.LogicalIf(cond, inner, tok.loc)

    def _parse_call(self) -> ast.CallStmt:
        tok = self._expect(KW, "call")
        name = self._expect(IDENT).value
        args: List[ast.Expr] = []
        if self._accept(OP, "("):
            if not self._check(OP, ")"):
                args.append(self._parse_expr())
                while self._accept(OP, ","):
                    args.append(self._parse_expr())
            self._expect(OP, ")")
        self._end_of_statement()
        return ast.CallStmt(name, args, tok.loc)

    def _parse_io(self, kind: str) -> ast.IoStmt:
        tok = self._advance()
        self._expect(OP, "*")
        items: List[ast.Expr] = []
        while self._accept(OP, ","):
            items.append(self._parse_expr())
        self._end_of_statement()
        return ast.IoStmt(kind, items, tok.loc)

    def _parse_assignment(self) -> ast.Assign:
        target = self._parse_primary()
        if not isinstance(target, (ast.Name, ast.Apply)):
            raise ParseError("invalid assignment target", target.loc)
        self._expect(OP, "=")
        value = self._parse_expr()
        self._end_of_statement()
        return ast.Assign(target, value, target.loc)

    # -- expressions (precedence climbing) -------------------------------------
    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._check(OP, "or"):
            tok = self._advance()
            left = ast.BinOp("or", left, self._parse_and(), tok.loc)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._check(OP, "and"):
            tok = self._advance()
            left = ast.BinOp("and", left, self._parse_not(), tok.loc)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._check(OP, "not"):
            tok = self._advance()
            return ast.UnOp("not", self._parse_not(), tok.loc)
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        if self._peek().kind == OP and self._peek().value in (
                "<", "<=", ">", ">=", "==", "/=", "!="):
            tok = self._advance()
            op = "/=" if tok.value == "!=" else tok.value
            right = self._parse_additive()
            return ast.BinOp(op, left, right, tok.loc)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().kind == OP and self._peek().value in ("+", "-"):
            tok = self._advance()
            left = ast.BinOp(tok.value, left,
                             self._parse_multiplicative(), tok.loc)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().kind == OP and self._peek().value in ("*", "/"):
            tok = self._advance()
            left = ast.BinOp(tok.value, left, self._parse_unary(), tok.loc)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self._check(OP, "-"):
            tok = self._advance()
            return ast.UnOp("-", self._parse_unary(), tok.loc)
        if self._check(OP, "+"):
            self._advance()
            return self._parse_unary()
        return self._parse_power()

    def _parse_power(self) -> ast.Expr:
        base = self._parse_primary()
        if self._check(OP, "**"):
            tok = self._advance()
            # right associative; exponent may carry unary minus
            exponent = self._parse_unary()
            return ast.BinOp("**", base, exponent, tok.loc)
        return base

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == INT or tok.kind == FLOAT:
            self._advance()
            return ast.NumLit(tok.value, tok.loc)
        if tok.kind == STRING:
            self._advance()
            return ast.StrLit(tok.value, tok.loc)
        if tok.kind == KW and tok.value in ("true", "false"):
            self._advance()
            return ast.BoolLit(tok.value == "true", tok.loc)
        if tok.kind == IDENT:
            self._advance()
            if self._check(OP, "("):
                self._advance()
                args: List[ast.Expr] = []
                if not self._check(OP, ")"):
                    args.append(self._parse_expr())
                    while self._accept(OP, ","):
                        args.append(self._parse_expr())
                self._expect(OP, ")")
                return ast.Apply(tok.value, args, tok.loc)
            return ast.Name(tok.value, tok.loc)
        if tok.kind == OP and tok.value == "(":
            self._advance()
            inner = self._parse_expr()
            self._expect(OP, ")")
            return inner
        raise ParseError(f"unexpected token {tok.value!r} in expression",
                         tok.loc)


#: Parsed units keyed by (source unit name, unit text): see parse_units
_UNITS: "OrderedDict[Tuple[str, str], Tuple[ast.Unit, int, int]]" = \
    OrderedDict()
_UNITS_CAPACITY = 256
_UNITS_LOCK = threading.Lock()
_UNIT_HEADER = re.compile(r"[ \t]*(?:program|subroutine)\b", re.IGNORECASE)


def parse_source(text: str, unit: str = "<input>") -> ast.SourceFile:
    """Parse mini-Fortran source text into an AST."""
    from ..obs import get_tracer
    with get_tracer().span("parse", unit=unit) as sp:
        tokens = tokenize(text, unit)
        tree = Parser(tokens).parse_source()
        sp.tag(tokens=len(tokens), units=len(tree.units))
        return tree


def parse_units(text: str,
                unit: str = "<input>") -> List[Tuple[ast.Unit, int]]:
    """The program units of ``text`` as ``(tree, delta)`` pairs: add
    ``delta`` to a tree's line numbers to get the unit's lines in
    ``text``.

    Each unit's lines (its header up to the next header) are parsed on
    their own and kept in a small LRU, so re-parsing an edited file lexes
    and parses only the units whose text changed; a unit that moved comes
    back unchanged with a nonzero ``delta``.  Trees are shared and must
    not be mutated.  Source the per-unit split cannot parse is parsed
    whole, so errors are those of :func:`parse_source`."""
    from ..obs import get_tracer
    with get_tracer().span("parse", unit=unit) as sp:
        lines = text.splitlines()
        starts = [i for i, line in enumerate(lines)
                  if _UNIT_HEADER.match(line)]
        bounds = [0] + starts[1:] + [len(lines)]
        units: List[Tuple[ast.Unit, int]] = []
        tokens, reused = 1, 0                           # 1: EOF
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                (tree, at, n), hit = _parse_unit_text(
                    "\n".join(lines[lo:hi]), unit, lo + 1)
                units.append((tree, lo + 1 - at))
                tokens += n
                reused += hit
        except (FrontEndError, ValueError):         # ValueError: not 1 unit
            toks = tokenize(text, unit)
            units = [(u, 0) for u in Parser(toks).parse_source().units]
            tokens, reused = len(toks), 0
        sp.tag(tokens=tokens, units=len(units), reused=reused)
        return units


def _parse_unit_text(text: str, unit: str, first_line: int):
    """((tree, the line it was parsed at, tokens), hit?) for one unit's
    text, from the LRU when the same text was parsed before."""
    key = (unit, text)
    with _UNITS_LOCK:
        got = _UNITS.get(key)
        if got is not None:
            _UNITS.move_to_end(key)
            return got, True
    toks = tokenize(text, unit, first_line)
    (tree,) = Parser(toks).parse_source().units
    got = (tree, first_line, len(toks) - 1)
    with _UNITS_LOCK:
        _UNITS[key] = got
        while len(_UNITS) > _UNITS_CAPACITY:
            _UNITS.popitem(last=False)
    return got, False


def reset_parse_cache() -> None:
    """Forget every parsed unit (what a cold measurement wants)."""
    with _UNITS_LOCK:
        _UNITS.clear()

