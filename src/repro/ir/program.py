"""Program and Procedure containers."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .statements import (AssignStmt, Block, CallStmt, LoopStmt, Statement,
                         assign_parents)
from .symbols import CommonBlock, Symbol, SymbolTable


class Procedure:
    """One PROGRAM or SUBROUTINE unit after lowering."""

    __slots__ = ("name", "kind", "formals", "symbols", "body",
                 "common_blocks", "source_lines")

    def __init__(self, name: str, kind: str, formals: List[Symbol],
                 symbols: SymbolTable, body: Block,
                 common_blocks: List[str],
                 source_lines: Optional[range] = None):
        self.name = name
        self.kind = kind                    # "program" | "subroutine"
        self.formals = formals
        self.symbols = symbols
        self.body = body
        self.common_blocks = common_blocks  # names of blocks declared here
        self.source_lines = source_lines or range(0, 0)
        assign_parents(body)
        for stmt in body.walk():
            stmt.proc_name = name

    # -- queries -----------------------------------------------------------
    def loops(self) -> List[LoopStmt]:
        """All loops in this procedure, outermost first (pre-order)."""
        return [s for s in self.body.walk() if isinstance(s, LoopStmt)]

    def top_level_loops(self) -> List[LoopStmt]:
        out = []
        for stmt in self.body.walk():
            if isinstance(stmt, LoopStmt):
                from .statements import enclosing_loops
                if not enclosing_loops(stmt):
                    out.append(stmt)
        return out

    def call_sites(self) -> List[CallStmt]:
        return [s for s in self.body.walk() if isinstance(s, CallStmt)]

    def statements(self) -> Iterator[Statement]:
        return self.body.walk()

    def line_count(self) -> int:
        return len(self.source_lines)

    def common_symbols(self) -> List[Symbol]:
        return [s for s in self.symbols if s.is_common]

    def __repr__(self):
        return f"Procedure({self.name})"


class Program:
    """A whole mini-Fortran program: procedures + COMMON blocks + indexes."""

    def __init__(self, name: str = "program"):
        self.name = name
        self.procedures: Dict[str, Procedure] = {}
        self.commons: Dict[str, CommonBlock] = {}
        self.main: Optional[str] = None
        self.source_text: str = ""
        #: Set by transforms that rewrite the IR in place (array
        #: contraction, common-block splitting): the program no longer
        #: is what ``source_text`` says, so nothing derived from it may
        #: be cached under the text's hash.
        self.transformed = False
        self._stmt_index: Dict[int, Statement] = {}
        self._loop_by_name: Dict[str, LoopStmt] = {}

    # -- construction -------------------------------------------------------
    def add_procedure(self, proc: Procedure) -> None:
        self.procedures[proc.name] = proc
        if proc.kind == "program":
            self.main = proc.name
        for stmt in proc.statements():
            self._stmt_index[stmt.stmt_id] = stmt
            if isinstance(stmt, LoopStmt) and stmt.name:
                self._loop_by_name[stmt.name] = stmt

    def common_block(self, name: str) -> CommonBlock:
        blk = self.commons.get(name)
        if blk is None:
            blk = CommonBlock(name)
            self.commons[name] = blk
        return blk

    # -- queries -----------------------------------------------------------
    def procedure(self, name: str) -> Procedure:
        return self.procedures[name]

    def main_procedure(self) -> Procedure:
        if self.main is None:
            raise ValueError("program has no PROGRAM unit")
        return self.procedures[self.main]

    def statement(self, stmt_id: int) -> Statement:
        return self._stmt_index[stmt_id]

    def loop(self, name: str) -> LoopStmt:
        """Look up a loop by its paper-style name, e.g. ``'interf/1000'``."""
        return self._loop_by_name[name]

    def all_loops(self) -> List[LoopStmt]:
        out: List[LoopStmt] = []
        for proc in self.procedures.values():
            out.extend(proc.loops())
        return out

    def loop_names(self) -> List[str]:
        return sorted(self._loop_by_name)

    def total_lines(self) -> int:
        return sum(p.line_count() for p in self.procedures.values())

    def assignments(self) -> Iterator[AssignStmt]:
        for proc in self.procedures.values():
            for stmt in proc.statements():
                if isinstance(stmt, AssignStmt):
                    yield stmt

    def __repr__(self):
        return f"Program({self.name}, procs={sorted(self.procedures)})"
