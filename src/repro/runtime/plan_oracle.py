"""The plan oracle (DESIGN.md "Plan oracle"; Nuriyev's information-
independence condition, PAPERS.md): each dynamically outermost plan-
parallel loop runs with its iterations reordered, and the run must show
no cell one iteration writes and another touches outside the plan's
``private*``, ``induction`` and ``reduction`` locations, and no read of
a ``private*`` cell its own iteration did not write."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..analysis.symbolic import _self_increment
from ..ir.program import Program
from ..ir.statements import AssignStmt, IfStmt, LoopStmt
from ..parallelize.parallelizer import common_member_spans
from ..parallelize.plan import (INDUCTION, PRIVATE, PRIVATE_FINAL,
                                PRIVATE_USER, REDUCTION, ProgramPlan)
from .dyndep import reduction_stmt_ids
from .interpreter import Interpreter, Observer

# how the checker treats a location's cells
_CHECK, _REDUCE, _PRIVATE, _PRIVATE_LAST, _EXEMPT = range(5)
_MODES = {PRIVATE: _PRIVATE, PRIVATE_FINAL: _PRIVATE_LAST,
          PRIVATE_USER: _PRIVATE_LAST, INDUCTION: _EXEMPT,
          REDUCTION: _REDUCE}


def iteration_order(n: int) -> List[int]:
    """The order (sequential positions) a region's ``n`` iterations run
    in: reversed, but the last one stays last, so what it leaves behind
    is what the sequential run leaves."""
    return [*range(n - 2, -1, -1), n - 1] if n else []


@dataclass
class LoopCheck:
    """One region loop over the run.  ``guarded``: its body holds a
    guarded (IF) min/max update; ``reordered``: runs of >= 3 iterations."""

    loop: LoopStmt
    guarded: bool
    invocations: int = 0
    reordered: int = 0
    conflicts: set = field(default_factory=set)   # (kind, loc, wline, rline)
    poisoned_reads: int = 0


class _TrackedScalars(dict):
    """The region procedure's scalars: writes outside ``skip`` (indices,
    inductions) and reads outside ``quiet`` (``skip`` and the scalars the
    plan says the loop never writes, until written) reach the checker."""

    __slots__ = ("checker", "skip", "quiet")

    def get(self, sym, default=0):
        if sym not in self.quiet:
            self.checker.scalar_access(sym, False)
        return dict.get(self, sym, default)

    def __setitem__(self, sym, value):
        if sym not in self.skip:
            self.quiet.discard(sym)
            self.checker.scalar_access(sym, True)
        dict.__setitem__(self, sym, value)


class _PlanChecker(Observer):
    """The active region's schedule and bookkeeping, attached to the
    engine only while a region runs.  A cell (``(id(buffer), offset)``
    or a scalar's symbol) is a list: mode, location name, then
    (iteration, line) of the last plain write, update write, plain read
    and update read at 2/4/6/8 (read iteration -2: several).  An update
    is an access at a reduction location's update statement; accesses
    from two iterations conflict when one writes and not both update."""

    def __init__(self, oracle: "PlanOracle"):
        self.interpreter = oracle
        self.region: Optional[LoopCheck] = None

    def begin(self, loop: LoopStmt, frame, values: range) -> None:
        oracle = self.interpreter
        check = oracle.loops.get(loop.stmt_id) or LoopCheck(loop, any(
            s.stmt_id in oracle.guarded for s in loop.body.walk()))
        oracle.loops[loop.stmt_id] = check
        check.invocations += 1
        check.reordered += len(values) >= 3
        self.region, self.frame, self.values = check, frame, values
        self.order = iter(iteration_order(len(values)))
        self.j, self.inductions, self._cells, self._spans = 0, [], {}, {}
        # buffers alive at entry; any other one is a callee's local
        self._buffers = {id(b): b for b in [*oracle.commons.values()] + [
            v.buffer for f in oracle._frames for v in f.arrays.values()]}
        self._scalars = {s.index: (_EXEMPT, s.index.name)
                         for s in [loop] + loop.inner_loops()}
        for key, vp in oracle.plan.loops[loop.stmt_id].vars.items():
            loc = (_MODES.get(vp.status, _CHECK), vp.display_name)
            if vp.status == INDUCTION:
                self.inductions += self._closed_forms(loop, frame, vp)
            if key[0] == "cm":          # through the planner's groups
                buf = oracle.commons[key[1]]
                lo, hi, _ = (common_member_spans(oracle.program, key[1])
                             [key[2]] if len(key) > 2 else (0, len(buf), 0))
                self._spans.setdefault(id(buf), []).append((lo, hi, loc))
                continue
            sym = frame.proc.symbols.lookup(key[2]) \
                if key[1] == frame.proc.name else None
            view = frame.arrays.get(sym)
            if view is None and sym is not None:
                self._scalars[sym] = loc
            elif view is not None:
                hi = len(view.buffer) - 1 if sym.is_array else view.offset
                if sym.is_array and None not in view.extents:
                    hi = view.offset + view.size() - 1
                # the frame's view names the storage before any COMMON span
                self._spans.setdefault(id(view.buffer), []).insert(
                    0, (view.offset, hi, loc))
        tracked = frame.scalars = _TrackedScalars(frame.scalars)
        tracked.checker = self
        tracked.skip = {s for s, loc in self._scalars.items()
                        if loc[0] == _EXEMPT}
        tracked.quiet = tracked.skip | {s for s in tracked
                                        if s not in self._scalars}

    def _closed_forms(self, loop: LoopStmt, frame, vp) -> List:
        """(symbol, COMMON view or None, entry value, free step) each."""
        out, oracle = [], self.interpreter
        for stmt in loop.body.walk():
            sym = getattr(getattr(stmt, "target", None), "symbol", None)
            delta = (_self_increment(stmt, sym) if sym in vp.symbols and
                     isinstance(stmt, AssignStmt) else None)
            if delta is not None:
                ops, step = oracle.ops, oracle._eval(delta, frame)
                oracle.ops = ops
                view = frame.arrays.get(sym)
                start = (view.buffer.data[view.offset] if view is not None
                         else frame.scalars.get(sym, 0))
                out.append((sym, view, start, step))
        return out

    def on_loop_iteration(self, loop: LoopStmt, index_value: int) -> None:
        # the engine counts in order; the body runs the schedule's next
        if loop is not self.region.loop:
            return
        self.j = j = next(self.order)
        scalars = self.frame.scalars
        scalars[loop.index] = self.values[j]
        for sym, view, start, step in self.inductions:
            if view is not None:
                view.buffer.data[view.offset] = start + j * step
            else:
                scalars[sym] = self.interpreter._coerce(sym, start + j * step)

    def end(self, frame) -> None:
        """Untrack the scalars; poison what ``private`` locations wrote."""
        frame.scalars = dict(frame.scalars)
        for key, cell in self._cells.items():
            if cell[0] == _PRIVATE and cell[2] >= 0:
                if isinstance(key, tuple):
                    self._buffers[key[0]].data[key[1]] = math.nan
                else:
                    frame.scalars[key] = math.nan
        self.region = self._cells = self._buffers = None

    def on_read(self, buffer, offset, stmt, write: bool = False) -> None:
        key = (id(buffer), offset)
        if key in self._cells or key[0] in self._buffers:
            self._access(key, stmt, write, buffer.name)

    def on_write(self, buffer, offset, stmt) -> None:
        self.on_read(buffer, offset, stmt, True)

    def scalar_access(self, sym, write: bool) -> None:
        self._access(sym, self.interpreter.current_stmt, write, sym.name)

    def _access(self, key, stmt, write: bool, name: str) -> None:
        cell = self._cells.get(key)
        if cell is None:
            loc = self._scalars.get(key, (_CHECK, name))
            for lo, hi, got in self._spans.get(key[0], ()) \
                    if isinstance(key, tuple) else ():
                if lo <= key[1] <= hi:
                    loc = got
                    break
            cell = self._cells[key] = [*loc] + [-1, 0] * 4
        mode, j = cell[0], self.j
        line = stmt.line if stmt is not None else 0
        if mode == _EXEMPT:
            return
        if mode in (_PRIVATE, _PRIVATE_LAST):
            if write:
                cell[2], cell[3] = j, line
            elif cell[2] != j:
                self.region.poisoned_reads += 1
            return
        upd = mode == _REDUCE and stmt is not None and \
            stmt.stmt_id in self.interpreter.red_stmts
        conflicts = self.region.conflicts
        for at in ((2,) if upd else (2, 4)):        # earlier writes
            if cell[at] not in (-1, j):
                kind = "output" if write else (
                    "flow" if cell[at] < j else "anti")
                conflicts.add((kind, cell[1], cell[at + 1], line))
        for at in ((6,) if upd else (6, 8)) if write else ():  # reads
            if cell[at] not in (-1, j):
                kind = "flow" if 0 <= j < cell[at] else "anti"
                conflicts.add((kind, cell[1], line, cell[at + 1]))
        at = (4 if upd else 2) + (0 if write else 4)
        cell[at] = j if write or cell[at] in (-1, j) else -2
        cell[at + 1] = line


class _ArmCounting(Interpreter):
    """A tree run that also counts ``arm_ops``, the ops charged inside
    guarded (IF) reduction updates: another order runs arms more often."""

    def __init__(self, program: Program, inputs: Sequence[float] = (),
                 max_ops: int = 500_000_000):
        super().__init__(program, inputs, (), max_ops)
        self.red_stmts = red = reduction_stmt_ids(program)
        self.guarded = {s.stmt_id for proc in program.procedures.values()
                        for s in proc.body.walk()
                        if isinstance(s, IfStmt) and s.stmt_id in red}
        self.arm_ops, self._in_arm = 0, False

    def _exec_stmt(self, stmt, frame) -> None:
        if self._in_arm or stmt.stmt_id not in self.guarded:
            return Interpreter._exec_stmt(self, stmt, frame)
        ops, self._in_arm = self.ops, True
        try:
            Interpreter._exec_stmt(self, stmt, frame)
        finally:
            self.arm_ops, self._in_arm = self.arm_ops + self.ops - ops, False


class PlanOracle(_ArmCounting):
    """A tree run with the plan's regions reordered under a
    :class:`_PlanChecker`; :func:`check_plan` adds the verdict."""

    def __init__(self, program: Program, plan: ProgramPlan,
                 inputs: Sequence[float] = (), *,
                 max_ops: int = 500_000_000):
        super().__init__(program, inputs, max_ops)
        self.plan, self.error = plan, None
        self.parallel = {loop.stmt_id for loop in plan.parallel_loops()}
        self.loops: Dict[int, LoopCheck] = {}     # region roots
        self.reached: Set[int] = set()   # plan-parallel loops, any depth
        self.checker = _PlanChecker(self)

    def _exec_loop(self, loop: LoopStmt, frame) -> None:
        if loop.stmt_id in self.parallel:
            self.reached.add(loop.stmt_id)
        if loop.stmt_id not in self.parallel or self.checker.region:
            return super()._exec_loop(loop, frame)
        ops = self.ops                   # the trip count, free of charge
        low, high, step = (int(self._eval(e, frame)) if e is not None else 1
                           for e in (loop.low, loop.high, loop.step))
        self.ops = ops
        self.checker.begin(loop, frame, range(
            low, high + (1 if step > 0 else -1), step or 1))
        self.observers.append(self.checker)
        try:
            super()._exec_loop(loop, frame)
        finally:
            self.observers.remove(self.checker)
            self.checker.end(frame)


def check_plan(program: Program, plan: ProgramPlan,
               inputs: Sequence[float] = (), *,
               max_ops: int = 500_000_000,
               reference: Optional[Interpreter] = None) -> PlanOracle:
    """Run the plan oracle against ``reference``, a finished run of the
    same program and inputs (a counting tree run when none is given or
    arms must be counted): outputs within relative 1e-9, ops less
    ``arm_ops``.  An error in the oracle's run is the plan's: recorded."""
    o = PlanOracle(program, plan, inputs, max_ops=max_ops)
    if reference is None or o.guarded and not isinstance(
            reference, _ArmCounting):
        reference = _ArmCounting(program, inputs, max_ops).run()
    try:
        with np.errstate(all="ignore"):
            o.run()
    except Exception as exc:            # noqa: BLE001 - reported
        o.error = f"{type(exc).__name__}: {exc}"
    got, want, loops = o.outputs, reference.outputs, o.loops.values()
    o.conflicts = sorted(c for lc in loops for c in lc.conflicts)
    o.poisoned_reads = sum(lc.poisoned_reads for lc in loops)
    o.reference_ops = reference.ops
    o.outputs_equal = o.error is None and len(got) == len(want) and all(
        a == b or not isinstance(a, str) and not isinstance(b, str)
        and math.isclose(a, b, rel_tol=1e-9) for a, b in zip(got, want))
    o.ops_equal = o.ops - o.arm_ops == reference.ops - getattr(
        reference, "arm_ops", 0)
    o.clean = (not o.conflicts and not o.poisoned_reads
               and o.outputs_equal and o.ops_equal)
    return o
