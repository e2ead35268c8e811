"""Deterministic op-counting interpreter for the structured IR.

The interpreter is the substrate for every dynamic component of the
Explorer: the Loop Profile Analyzer instruments loop entry/exit, the
Dynamic Dependence Analyzer instruments loads and stores, and the parallel
machine simulator consumes per-iteration operation counts.

"Time" is a deterministic operation count: every expression node and
statement costs a fixed number of abstract operations.  Machine models
translate operations into seconds.
"""

from __future__ import annotations

import math

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.expressions import (ArrayRef, BinaryOp, Const, Expression,
                              Intrinsic, StrConst, UnaryOp, VarRef)
from ..ir.program import Procedure, Program
from ..ir.statements import (AssignStmt, Block, CallStmt, CycleStmt,
                             ExitStmt, IfStmt, IoStmt, LoopStmt, NoopStmt,
                             ReturnStmt, Statement, StopStmt)
from ..ir.symbols import Symbol, INT
from .values import ArrayView, Buffer


class RuntimeErrorInProgram(Exception):
    pass


class OpsBudgetExceeded(RuntimeErrorInProgram):
    """The operation budget (``max_ops``) was exhausted.

    Raised identically by the tree-walking interpreter and the
    transpiled engine (same type, same message for the same
    ``max_ops``), so budget exhaustion is a *deterministic, structured*
    outcome the service layer can classify — not a raw exception string
    that differs per engine.  Subclasses :class:`RuntimeErrorInProgram`
    for backward compatibility with existing ``except`` clauses.

    The exception must survive a pickle round-trip (worker process →
    scheduler), hence the explicit :meth:`__reduce__`.
    """

    def __init__(self, message: str = "operation budget exceeded",
                 ops: Optional[int] = None,
                 max_ops: Optional[int] = None):
        super().__init__(message)
        self.ops = ops
        self.max_ops = max_ops

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.ops, self.max_ops))


def budget_error(ops: int, max_ops: int) -> OpsBudgetExceeded:
    """The one way both engines build a budget error.  The message
    deliberately includes only ``max_ops`` (identical across engines for
    the same request), never the instantaneous op count (the engines
    check the budget at different granularities, so ``ops`` at raise
    time is engine-dependent — it is kept on the exception object for
    diagnostics only)."""
    return OpsBudgetExceeded(
        f"operation budget exceeded (max_ops={max_ops})", ops, max_ops)


class _Cycle(Exception):
    def __init__(self, target_label):
        self.target_label = target_label


class _Exit(Exception):
    pass


class _Return(Exception):
    pass


class _Stop(Exception):
    pass


class Observer:
    """Hook interface; every callback is optional (no-op by default)."""

    #: The codegen aspect that reproduces this analyzer, if one does.
    aspect: Optional[str] = None
    interpreter = None

    def attach(self, interpreter):
        self.interpreter = interpreter
        interpreter.observers.append(self)
        return self

    def finish(self) -> Dict:
        """The run this observer rode has completed; returns what the
        run's span reports for it."""
        return {}

    def on_loop_enter(self, loop: LoopStmt) -> None: ...
    def on_loop_iteration(self, loop: LoopStmt, index_value: int) -> None: ...
    def on_loop_exit(self, loop: LoopStmt) -> None: ...
    def on_read(self, buffer: Buffer, offset: int, stmt: Statement) -> None: ...
    def on_write(self, buffer: Buffer, offset: int, stmt: Statement) -> None: ...
    def on_call(self, call: CallStmt) -> None: ...


class Frame:
    """One procedure activation: scalar values + array views."""

    __slots__ = ("proc", "scalars", "arrays")

    def __init__(self, proc: Procedure):
        self.proc = proc
        self.scalars: Dict[Symbol, float] = {}
        self.arrays: Dict[Symbol, ArrayView] = {}


class Interpreter:
    """Execute a program; deterministic and instrumentable.

    Parameters
    ----------
    program:
        The IR program.
    inputs:
        Values consumed by ``READ`` statements, in order.
    observers:
        Instrumentation hooks.
    max_ops:
        Abort knob against runaway loops.
    """

    #: What :func:`engine_label` reports for this engine.
    label = "tree"

    def __init__(self, program: Program, inputs: Sequence[float] = (),
                 observers: Sequence[Observer] = (),
                 max_ops: int = 500_000_000):
        self.program = program
        #: Set by the transpiled engine when it delegates here: why the
        #: generator could not run this job (tagged on the span).
        self.fallback: Optional[str] = None
        self.inputs = list(inputs)
        self._input_pos = 0
        self.observers = list(observers)
        self.ops = 0
        self.max_ops = max_ops
        self.outputs: List[float] = []
        self.current_stmt: Optional[Statement] = None
        self.commons: Dict[str, Buffer] = {}
        self._frames: List[Frame] = []
        for name, block in program.commons.items():
            self.commons[name] = Buffer(f"/{name}/", block.size)

    # -- public -----------------------------------------------------------
    def run(self) -> "Interpreter":
        from ..obs import get_tracer
        with get_tracer().span("execute", engine="tree",
                               program=self.program.name) as sp:
            main = self.program.main_procedure()
            frame = self._make_frame(main, [])
            try:
                self._exec_block(main.body, frame)
            except _Stop:
                pass
            except _Return:
                pass
            sp.tag(ops=self.ops, observers=len(self.observers))
            if self.fallback is not None:
                sp.tag(fallback=self.fallback)
        return self

    # -- frames ------------------------------------------------------------
    def _make_frame(self, proc: Procedure, bound_args: List) -> Frame:
        frame = Frame(proc)
        self._frames.append(frame)
        # formals first
        for formal, value in zip(proc.formals, bound_args):
            if isinstance(value, ArrayView):
                frame.arrays[formal] = value
            else:
                frame.scalars[formal] = value
        # commons
        for block_name in proc.common_blocks:
            buffer = self.commons[block_name]
            view = self.program.commons[block_name].views[proc.name]
            for sym in view.symbols:
                if sym.is_array:
                    dims = [self._dim_bounds(d, frame) for d in sym.dims]
                    frame.arrays[sym] = ArrayView(
                        buffer, sym.common_offset,
                        [lo for lo, _ in dims],
                        [(hi - lo + 1) if hi is not None else None
                         for lo, hi in dims])
                else:
                    frame.arrays[sym] = ArrayView(buffer, sym.common_offset,
                                                  [1], [1])
        # locals
        for sym in proc.symbols:
            if sym in frame.arrays or sym in frame.scalars or sym.is_const:
                continue
            if sym.is_formal:
                if sym.is_array and sym not in frame.arrays:
                    raise RuntimeErrorInProgram(
                        f"array formal {sym.name} of {proc.name} not bound")
                frame.scalars.setdefault(sym, 0)
                continue
            if sym.is_array:
                dims = [self._dim_bounds(d, frame) for d in sym.dims]
                size = 1
                for lo, hi in dims:
                    if hi is None:
                        raise RuntimeErrorInProgram(
                            f"local array {sym.name} has assumed size")
                    size *= hi - lo + 1
                buffer = Buffer(f"{proc.name}::{sym.name}", size)
                frame.arrays[sym] = ArrayView(
                    buffer, 0, [lo for lo, _ in dims],
                    [hi - lo + 1 for lo, hi in dims])
            else:
                frame.scalars[sym] = 0
        return frame

    def _dim_bounds(self, dimension, frame: Frame
                    ) -> Tuple[int, Optional[int]]:
        low = int(self._eval(dimension.low, frame))
        high = (int(self._eval(dimension.high, frame))
                if dimension.high is not None else None)
        return low, high

    # -- statements -----------------------------------------------------------
    def _exec_block(self, block: Block, frame: Frame) -> None:
        for stmt in block.statements:
            self._exec_stmt(stmt, frame)

    def _exec_stmt(self, stmt: Statement, frame: Frame) -> None:
        self.ops += 1
        self.current_stmt = stmt
        if self.ops > self.max_ops:
            raise budget_error(self.ops, self.max_ops)
        if isinstance(stmt, AssignStmt):
            value = self._eval(stmt.value, frame)
            self._store(stmt.target, value, frame, stmt)
            return
        if isinstance(stmt, IfStmt):
            for cond, body in stmt.arms:
                if self._truthy(self._eval(cond, frame)):
                    self._exec_block(body, frame)
                    return
            if stmt.else_block is not None:
                self._exec_block(stmt.else_block, frame)
            return
        if isinstance(stmt, LoopStmt):
            self._exec_loop(stmt, frame)
            return
        if isinstance(stmt, CallStmt):
            self._exec_call(stmt, frame)
            return
        if isinstance(stmt, IoStmt):
            self._exec_io(stmt, frame)
            return
        if isinstance(stmt, NoopStmt):
            return
        if isinstance(stmt, CycleStmt):
            raise _Cycle(stmt.target_label)
        if isinstance(stmt, ExitStmt):
            raise _Exit()
        if isinstance(stmt, ReturnStmt):
            raise _Return()
        if isinstance(stmt, StopStmt):
            raise _Stop()
        raise RuntimeErrorInProgram(f"cannot execute {stmt!r}")

    def _exec_loop(self, loop: LoopStmt, frame: Frame) -> None:
        low = int(self._eval(loop.low, frame))
        high = int(self._eval(loop.high, frame))
        step = int(self._eval(loop.step, frame)) if loop.step is not None \
            else 1
        if step == 0:
            raise RuntimeErrorInProgram(f"zero step in {loop.name}")
        for obs in self.observers:
            obs.on_loop_enter(loop)
        i = low
        try:
            while (step > 0 and i <= high) or (step < 0 and i >= high):
                frame.scalars[loop.index] = i
                for obs in self.observers:
                    obs.on_loop_iteration(loop, i)
                try:
                    self._exec_block(loop.body, frame)
                except _Cycle as cyc:
                    if cyc.target_label is not None and \
                            cyc.target_label != loop.term_label:
                        raise
                i += step
                self.ops += 1
        except _Exit:
            pass
        finally:
            frame.scalars[loop.index] = i
            for obs in self.observers:
                obs.on_loop_exit(loop)

    def _exec_call(self, call: CallStmt, frame: Frame) -> None:
        callee = self.program.procedures[call.callee]
        for obs in self.observers:
            obs.on_call(call)
        bound: List = []
        copy_back: List[Tuple[int, Symbol]] = []   # (arg position, caller sym)
        for pos, (actual, formal) in enumerate(zip(call.args,
                                                   callee.formals)):
            if isinstance(actual, ArrayRef):
                view = frame.arrays.get(actual.symbol)
                if view is None:
                    raise RuntimeErrorInProgram(
                        f"array {actual.symbol.name} unbound")
                if actual.indices:
                    idx = [int(self._eval(e, frame)) for e in actual.indices]
                    if formal.is_array:
                        bound.append(view.subview_at(idx))
                    else:
                        # scalar formal bound to array element: copy-in/out
                        bound.append(view.load(idx))
                        copy_back.append((pos, actual.symbol))
                else:
                    bound.append(view)
            elif isinstance(actual, VarRef) and not formal.is_array:
                sym = actual.symbol
                if sym.is_common and not sym.is_array:
                    # COMMON scalar: copy-in/out through its buffer cell
                    bound.append(frame.arrays[sym].load([1]))
                else:
                    bound.append(frame.scalars.get(sym, 0))
                copy_back.append((pos, sym))
            else:
                bound.append(self._eval(actual, frame))
        callee_frame = self._make_frame(callee, bound)
        self.ops += 5      # call overhead
        try:
            self._exec_block(callee.body, callee_frame)
        except _Return:
            pass
        finally:
            # copy-out for by-reference scalars
            for pos, caller_sym in copy_back:
                formal = callee.formals[pos]
                value = callee_frame.scalars.get(formal, 0)
                actual = call.args[pos]
                if isinstance(actual, VarRef):
                    if caller_sym.is_common and not caller_sym.is_array:
                        frame.arrays[caller_sym].store([1], value)
                    else:
                        frame.scalars[caller_sym] = self._coerce(
                            caller_sym, value)
                elif isinstance(actual, ArrayRef) and actual.indices:
                    idx = [int(self._eval(e, frame)) for e in actual.indices]
                    frame.arrays[caller_sym].store(idx, value)
            self._frames.pop()

    def _exec_io(self, stmt: IoStmt, frame: Frame) -> None:
        if stmt.kind == "print":
            for item in stmt.items:
                self.outputs.append(self._eval(item, frame))
            return
        for item in stmt.items:
            if self._input_pos >= len(self.inputs):
                raise RuntimeErrorInProgram("READ past end of inputs")
            value = self.inputs[self._input_pos]
            self._input_pos += 1
            self._store(item, value, frame, stmt)

    # -- expressions -----------------------------------------------------------
    def _eval(self, expr: Expression, frame: Frame):
        self.ops += 1
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, StrConst):
            return expr.value
        if isinstance(expr, VarRef):
            sym = expr.symbol
            if sym.is_const:
                return sym.const_value
            if sym in frame.arrays and not sym.is_array:
                # common scalar accessed via its buffer view
                view = frame.arrays[sym]
                for obs in self.observers:
                    obs.on_read(view.buffer, view.offset, self.current_stmt)
                return view.buffer.data[view.offset]
            return frame.scalars.get(sym, 0)
        if isinstance(expr, ArrayRef):
            view = frame.arrays.get(expr.symbol)
            if view is None:
                raise RuntimeErrorInProgram(f"array {expr.symbol.name} "
                                            f"unbound in {frame.proc.name}")
            idx = [int(self._eval(e, frame)) for e in expr.indices]
            off = view.flat_index(idx)
            for obs in self.observers:
                obs.on_read(view.buffer, off, self.current_stmt)
            return view.buffer.data[off]
        if isinstance(expr, BinaryOp):
            left = self._eval(expr.left, frame)
            if expr.op == "and":
                return bool(left) and bool(self._eval(expr.right, frame))
            if expr.op == "or":
                return bool(left) or bool(self._eval(expr.right, frame))
            right = self._eval(expr.right, frame)
            return _binop(expr.op, left, right)
        if isinstance(expr, UnaryOp):
            inner = self._eval(expr.operand, frame)
            if expr.op == "-":
                return -inner
            if expr.op == "not":
                return not bool(inner)
        if isinstance(expr, Intrinsic):
            args = [self._eval(a, frame) for a in expr.args]
            return _intrinsic(expr.name, args)
        raise RuntimeErrorInProgram(f"cannot evaluate {expr!r}")

    def _store(self, target, value, frame: Frame, stmt: Statement) -> None:
        if isinstance(target, VarRef):
            sym = target.symbol
            if sym in frame.arrays and not sym.is_array:
                view = frame.arrays[sym]
                for obs in self.observers:
                    obs.on_write(view.buffer, view.offset, stmt)
                view.buffer.data[view.offset] = value
                return
            frame.scalars[sym] = self._coerce(sym, value)
            return
        if isinstance(target, ArrayRef):
            view = frame.arrays.get(target.symbol)
            if view is None:
                raise RuntimeErrorInProgram(
                    f"array {target.symbol.name} unbound")
            idx = [int(self._eval(e, frame)) for e in target.indices]
            off = view.flat_index(idx)
            for obs in self.observers:
                obs.on_write(view.buffer, off, stmt)
            view.buffer.data[off] = value
            return
        raise RuntimeErrorInProgram(f"invalid store target {target!r}")

    @staticmethod
    def _coerce(sym: Symbol, value):
        if sym.type == INT:
            return int(value)
        return float(value)

    @staticmethod
    def _truthy(value) -> bool:
        return bool(value)


def _fortran_div(a, b):
    """Fortran ``/``: truncating division on integer operands."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int,
                                                           np.integer)):
        if b == 0:
            raise RuntimeErrorInProgram("integer division by zero")
        q = abs(a) // abs(b)
        return int(q if (a >= 0) == (b >= 0) else -q)
    return a / b


def _sign(a, b):
    return abs(a) if b >= 0 else -abs(a)


#: Binary operator dispatch.  ``and``/``or`` are NOT here: they
#: short-circuit and ``_eval`` sequences them itself.
BINOPS: Dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _fortran_div,
    "**": lambda a, b: a ** b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "/=": lambda a, b: a != b,
}

#: Intrinsic dispatch (callable over the evaluated argument list).
INTRINSICS: Dict[str, Callable[[List], object]] = {
    "min": lambda args: min(args),
    "max": lambda args: max(args),
    "abs": lambda args: abs(args[0]),
    "mod": lambda args: args[0] % args[1],
    "sqrt": lambda args: math.sqrt(args[0]),
    "exp": lambda args: math.exp(args[0]),
    "log": lambda args: math.log(args[0]),
    "sin": lambda args: math.sin(args[0]),
    "cos": lambda args: math.cos(args[0]),
    "float": lambda args: float(args[0]),
    "int": lambda args: int(args[0]),
    "sign": lambda args: _sign(args[0], args[1]),
}


def _binop(op: str, a, b):
    fn = BINOPS.get(op)
    if fn is None:
        raise RuntimeErrorInProgram(f"unknown operator {op}")
    return fn(a, b)


def _intrinsic(name: str, args: List):
    fn = INTRINSICS.get(name)
    if fn is None:
        raise RuntimeErrorInProgram(f"unknown intrinsic {name}")
    return fn(args)


#: The execution engines every ``engine=`` keyword accepts.
ENGINE_NAMES = ("transpiled", "tree")


def make_engine(program: Program, inputs: Sequence[float] = (),
                observers: Sequence[Observer] = (),
                max_ops: int = 500_000_000, engine: str = "transpiled"):
    """Build (don't run) the selected execution engine:

    * ``"transpiled"`` (default) — the code-generating engine
      (:mod:`repro.runtime.transpile`): the program is emitted as plain
      Python source, compiled by CPython, and cached; observers are
      reproduced by codegen-time instrumentation, and configurations
      the generator cannot express run on ``"tree"`` transparently,
    * ``"tree"`` — this module's tree-walking :class:`Interpreter`, the
      reference oracle (exact op-count, output and observer-state parity
      is enforced by the differential tests).
    """
    if engine == "transpiled":
        from .transpile import TranspiledEngine
        return TranspiledEngine(program, inputs, observers, max_ops)
    if engine == "tree":
        return Interpreter(program, inputs, observers, max_ops)
    raise ValueError(
        f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}")


def engine_label(engine) -> str:
    """What actually ran: ``"tree"`` for the oracle (including a
    transpiled engine that fell back to it) or ``"transpiled/<variant>"``
    (call after ``run()`` — the variant is chosen at run start)."""
    return engine.label


def run_instrumented(program: Program, inputs: Sequence[float],
                     observers: Sequence[Observer], *, max_ops: int,
                     engine: str, span: str = "instrument", **tags):
    """One execution carrying every analyzer in ``observers`` (loop
    profiler, dependence analyzer, parallel executor) under one ``span``
    whose ``aspects`` / ``engine_variant`` tags say what was asked for
    and what ran — one generated module, ``transpiled/<aspects>``, or
    the oracle's callbacks.  Returns the finished engine."""
    from ..obs import get_tracer
    with get_tracer().span(
            span, program=program.name, engine=engine,
            aspects="+".join(o.aspect for o in observers), **tags) as sp:
        interp = make_engine(program, inputs, max_ops=max_ops, engine=engine)
        for obs in observers:
            obs.attach(interp)
        interp.run()
        sp.tag(ops=interp.ops, engine_variant=engine_label(interp))
        for obs in observers:
            sp.tag(**obs.finish())
    return interp


def run_program(program: Program, inputs: Sequence[float] = (),
                observers: Sequence[Observer] = (),
                max_ops: int = 500_000_000, engine: str = "transpiled"):
    """Execute ``program`` on ``engine`` (see :func:`make_engine`) and
    return the finished engine."""
    return make_engine(program, inputs, observers, max_ops, engine).run()
