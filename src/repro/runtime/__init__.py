"""Dynamic substrate: execution engines, analyzers, machine simulation.

Two execution engines share one semantics:

* :class:`TranspiledEngine` (``"transpiled"``, the default) — generates
  plain Python source from the IR and runs it; the instrumented runs
  (loop profile, dynamic dependences, simulated-multiprocessor cost
  accounting) are codegen-time aspects of the same generator — any
  subset in one module and one run — and observer configurations it
  cannot express fall back to the oracle,
* :class:`Interpreter` (``"tree"``) — the tree-walking reference oracle,
  instrumented through the :class:`Observer` protocol.

Both produce bit-identical outputs, op counts, COMMON memory and
analyzer state, and raise the same :class:`OpsBudgetExceeded` on budget
exhaustion.  Every entry point taking an ``engine=`` keyword accepts
exactly :data:`ENGINE_NAMES`; :func:`engine_label` reports what actually
ran (``"transpiled/<plain | aspects joined by +>"`` or ``"tree"``).
"""

from .dyndep import (DynamicDependenceAnalyzer, analyze_dependences,
                     reduction_stmt_ids)
from .interpreter import (BINOPS, ENGINE_NAMES, INTRINSICS, Interpreter,
                          Observer, OpsBudgetExceeded,
                          RuntimeErrorInProgram, budget_error,
                          engine_label, make_engine, run_program)
from .machine import (ALPHASERVER_8400, MACHINES, SGI_CHALLENGE, SGI_ORIGIN,
                      Machine, with_processors)
from .parallel_exec import (ATOMIC, MINIMIZED, NAIVE, STAGGERED, TREE,
                            ParallelExecutionResult, ParallelExecutor,
                            execute_parallel)
from .profiler import LoopProfile, LoopProfiler, profile_program
from .transpile import (TranspiledEngine, codegen_cache_stats,
                        compile_program, reset_codegen_cache,
                        set_codegen_store, transpile_to_python)
from .values import ArrayView, Buffer

__all__ = [
    "DynamicDependenceAnalyzer", "analyze_dependences", "reduction_stmt_ids",
    "BINOPS", "ENGINE_NAMES", "INTRINSICS",
    "Interpreter", "Observer", "OpsBudgetExceeded", "RuntimeErrorInProgram",
    "budget_error", "engine_label", "make_engine", "run_program",
    "ALPHASERVER_8400", "MACHINES", "SGI_CHALLENGE", "SGI_ORIGIN", "Machine",
    "with_processors",
    "ATOMIC", "MINIMIZED", "NAIVE", "STAGGERED", "TREE",
    "ParallelExecutionResult",
    "ParallelExecutor", "execute_parallel",
    "LoopProfile", "LoopProfiler", "profile_program",
    "TranspiledEngine", "codegen_cache_stats", "compile_program",
    "reset_codegen_cache", "set_codegen_store", "transpile_to_python",
    "ArrayView", "Buffer",
]
