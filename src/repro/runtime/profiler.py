"""The Loop Profile Analyzer (paper section 2.5.1).

"It runs a program sequentially, and determines for each loop its total
execution time and its average computation per invocation."  Implemented as
an interpreter observer: loop entry/exit deltas of the op counter give each
loop its *inclusive* total, invocation count, and iteration count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.program import Program
from ..ir.statements import LoopStmt
from .interpreter import Interpreter, Observer, run_instrumented
from .machine import Machine


class LoopProfile:
    __slots__ = ("loop", "total_ops", "invocations", "iterations")

    def __init__(self, loop: LoopStmt):
        self.loop = loop
        self.total_ops = 0
        self.invocations = 0
        self.iterations = 0

    @property
    def name(self) -> str:
        return self.loop.name

    def ops_per_invocation(self) -> float:
        return self.total_ops / self.invocations if self.invocations else 0.0

    def __repr__(self):
        return (f"LoopProfile({self.name}: ops={self.total_ops}, "
                f"inv={self.invocations})")


class LoopProfiler(Observer):
    """Observer collecting per-loop inclusive op counts."""

    aspect = "profile"

    def __init__(self, interpreter: Optional[Interpreter] = None):
        self.interpreter = interpreter
        self.profiles: Dict[int, LoopProfile] = {}
        self._stack: List[tuple] = []       # (loop, ops at entry)
        self.total_ops = 0

    # -- observer callbacks ----------------------------------------------------
    def on_loop_enter(self, loop: LoopStmt) -> None:
        self._stack.append((loop, self.interpreter.ops))

    def on_loop_iteration(self, loop: LoopStmt, index_value: int) -> None:
        prof = self._profile(loop)
        prof.iterations += 1

    def on_loop_exit(self, loop: LoopStmt) -> None:
        entry_loop, entry_ops = self._stack.pop()
        assert entry_loop is loop
        prof = self._profile(loop)
        prof.total_ops += self.interpreter.ops - entry_ops
        prof.invocations += 1

    def _profile(self, loop: LoopStmt) -> LoopProfile:
        prof = self.profiles.get(loop.stmt_id)
        if prof is None:
            prof = LoopProfile(loop)
            self.profiles[loop.stmt_id] = prof
        return prof

    # -- queries -----------------------------------------------------------
    def finish(self) -> Dict:
        self.total_ops = self.interpreter.ops if self.interpreter else 0
        return {"loops": len(self.profiles)}

    def profile(self, loop: LoopStmt) -> Optional[LoopProfile]:
        return self.profiles.get(loop.stmt_id)

    def executed_loops(self) -> List[LoopProfile]:
        return list(self.profiles.values())

    def coverage_of(self, loop: LoopStmt) -> float:
        """Fraction of program ops spent (inclusively) in this loop."""
        prof = self.profiles.get(loop.stmt_id)
        if prof is None or not self.total_ops:
            return 0.0
        return prof.total_ops / self.total_ops

    def granularity_ms(self, loop: LoopStmt, machine: Machine) -> float:
        """Average per-invocation time in milliseconds on ``machine``."""
        prof = self.profiles.get(loop.stmt_id)
        if prof is None:
            return 0.0
        return machine.seconds(prof.ops_per_invocation()) * 1e3


def profile_program(program: Program, inputs=(), max_ops: int = 500_000_000,
                    engine: str = "transpiled") -> LoopProfiler:
    """Run the program once under the Loop Profile Analyzer.

    The single-aspect form of :func:`run_instrumented`, under an
    ``instrument.profile`` span.  ``engine`` selects the substrate (see
    :func:`repro.runtime.interpreter.make_engine`): the transpiled
    engine emits the profiler *into* the generated code (its
    ``profile`` aspect) — loop drivers do their own op-delta accounting
    and no callback fires — bit-identical to this observer riding the
    tree-walking oracle."""
    profiler = LoopProfiler()
    run_instrumented(program, inputs, [profiler], max_ops=max_ops,
                     engine=engine, span="instrument.profile")
    return profiler
