"""Simulated multiprocessor execution (the speedup substrate).

One instrumented run collects per-region measurements (iteration costs,
touched footprint, access counts, reduction statistics); the cost model
then prices those regions for any processor count, so a processor sweep
(Fig 5-12) needs a single execution — possibly one shared with the loop
profiler and the dependence analyzer (a session's one instrumented run).

Model summary:

* only outermost parallel loops execute in parallel; a parallel loop
  encountered while another parallel region is active runs sequentially
  (the paper's dynamic-nesting rule, sections 2.6/4.5),
* the run-time system suppresses parallelism for loops whose measured
  work would be swamped by spawn overhead ("runs the loop sequentially if
  it is considered too fine-grained", section 4.5),
* a parallel region costs
  ``spawn + max(max_p(chunk ops) * mem_factor, bandwidth floor)
  + private finalization + reduction init/finalization``
  following the implementation analysis of section 6.3; the reduction
  lowering strategy is selectable (:data:`NAIVE`, :data:`MINIMIZED`,
  :data:`STAGGERED`, :data:`ATOMIC`),
* the bandwidth floor charges serialized bus traffic for regions whose
  working set misses the cache — the mechanism that keeps memory-bound
  codes (arc3d, pre-contraction flo88) from scaling and that array
  contraction (section 5.6) removes by shrinking the working set.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ir.program import Program
from ..ir.statements import LoopStmt, Statement
from ..parallelize.plan import (PRIVATE, PRIVATE_FINAL, PRIVATE_USER,
                                REDUCTION, ProgramPlan, VarPlan)
from .dyndep import reduction_stmt_ids
from .interpreter import Interpreter, Observer, run_instrumented
from .machine import Machine, with_processors
from .values import Buffer

# Reduction lowering strategies (paper section 6.3)
NAIVE = "naive"            # private copies; serialized whole-array final
MINIMIZED = "minimized"    # private copies over the touched region only
STAGGERED = "staggered"    # minimized + staggered parallel finalization
ATOMIC = "atomic"          # lock around each individual update
TREE = "tree"              # minimized + log2(P) tree combining (6.3.1)

_ELEM_OPS = 2.0            # ops to initialize/accumulate one array element


class RegionStats:
    """Measurements from one dynamic execution of a parallel region."""

    __slots__ = ("loop", "seq_ops", "iter_costs", "buffers",
                 "red_updates", "red_touched", "accesses")

    def __init__(self, loop: LoopStmt, ops_at_enter: int):
        self.loop = loop
        self.seq_ops = ops_at_enter          # entry marker, fixed on exit
        self.iter_costs: List[int] = []
        # keyed by buffer *name* (a COMMON block or one procedure's local
        # array), not id(): storage identity that does not depend on
        # which addresses the allocator hands a callee's locals
        self.buffers: Dict[str, int] = {}    # buffer name -> byte size
        self.red_updates = 0
        self.red_touched: Set[Tuple[str, int]] = set()
        self.accesses = 0


class LoopTiming:
    """Aggregated accounting for one (static) parallel loop."""

    __slots__ = ("loop", "invocations", "seq_ops", "par_ops", "suppressed")

    def __init__(self, loop: LoopStmt):
        self.loop = loop
        self.invocations = 0
        self.seq_ops = 0.0
        self.par_ops = 0.0
        self.suppressed = 0


class ParallelExecutionResult:
    def __init__(self, machine: Machine):
        self.machine = machine
        self.seq_ops = 0.0          # sequential time, in ops
        self.par_ops = 0.0          # parallel time, in ops
        self.parallel_region_seq_ops = 0.0   # work inside parallel regions
        self.loop_timings: Dict[int, LoopTiming] = {}
        self.outputs: List[float] = []

    @property
    def speedup(self) -> float:
        return self.seq_ops / self.par_ops if self.par_ops else 1.0

    @property
    def coverage(self) -> float:
        """Fraction of sequential time spent inside parallelized regions
        (the Guru's parallelism-coverage metric)."""
        return (self.parallel_region_seq_ops / self.seq_ops
                if self.seq_ops else 0.0)

    def granularity_ms(self) -> float:
        """Average parallel-region work per invocation, in milliseconds of
        sequential machine time (the Guru's granularity metric)."""
        inv = sum(t.invocations for t in self.loop_timings.values())
        if not inv:
            return 0.0
        return self.machine.seconds(
            self.parallel_region_seq_ops / inv) * 1e3

    def seconds_parallel(self) -> float:
        return self.machine.seconds(self.par_ops)

    def seconds_sequential(self) -> float:
        return self.machine.seconds(self.seq_ops)


class ParallelExecutor(Observer):
    """Run a program under a parallelization plan on a machine model.

    The executor is the ``cost`` observer of the run it measures: its
    region tracking rides the ``Observer`` callbacks on the tree oracle,
    while the transpiled engine recognizes a fresh instance and
    generates its ``cost`` aspect instead, filling :attr:`regions` with
    identical :class:`RegionStats`."""

    aspect = "cost"

    def __init__(self, program: Program, plan: ProgramPlan,
                 machine: Machine, *, processors: Optional[int] = None,
                 reduction_strategy: str = STAGGERED,
                 suppress_factor: float = 2.0,
                 inputs: Sequence[float] = (),
                 max_ops: int = 500_000_000,
                 engine: str = "transpiled"):
        self.program = program
        self.plan = plan
        self.machine = (with_processors(machine, processors)
                        if processors else machine)
        self.reduction_strategy = reduction_strategy
        self.suppress_factor = suppress_factor
        self.inputs = inputs
        self.max_ops = max_ops
        self.engine = engine
        self._parallel_ids = {l.stmt_id for l in plan.parallel_loops()}
        self._red_stmts = reduction_stmt_ids(program)
        self._active: Optional[RegionStats] = None
        self._iter_start_ops = 0
        self._iters_seen = 0
        self.regions: List[RegionStats] = []
        self._total_ops = 0
        self._outputs: List[float] = []
        self._ran = False

    # -- driver ------------------------------------------------------------
    def run(self) -> ParallelExecutionResult:
        return self.account(self.machine.processors)

    def measure(self) -> "ParallelExecutor":
        """Execute once and collect region measurements (the transpiled
        engine's ``cost`` aspect, or the callbacks below on the oracle);
        a no-op once the executor has ridden a finished run."""
        if not self._ran:
            run_instrumented(self.program, self.inputs, [self],
                             max_ops=self.max_ops, engine=self.engine)
        return self

    @property
    def interp(self) -> Optional[Interpreter]:
        """The engine whose run this executor measures."""
        return self.interpreter

    def finish(self) -> Dict:
        self._total_ops = self.interpreter.ops
        self._outputs = list(self.interpreter.outputs)
        self._ran = True
        return {"regions": len(self.regions)}

    def account(self, processors: int) -> ParallelExecutionResult:
        """Price the measured regions for a processor count."""
        self.measure()
        machine = with_processors(self.machine, processors)
        result = ParallelExecutionResult(machine)
        for region in self.regions:
            self._account_region(region, machine, result)
        covered_seq = sum(t.seq_ops for t in result.loop_timings.values())
        covered_par = sum(t.par_ops for t in result.loop_timings.values())
        result.seq_ops = self._total_ops
        result.par_ops = self._total_ops - covered_seq + covered_par
        result.parallel_region_seq_ops = covered_seq
        result.outputs = list(self._outputs)
        return result

    def results_for(self, processor_counts: Sequence[int]
                    ) -> Dict[int, ParallelExecutionResult]:
        """One measurement run, priced at several processor counts
        (used by the Fig 5-12 sweep)."""
        return {p: self.account(p) for p in processor_counts}

    # -- real execution (the par_backend bridge) ---------------------------
    def execute(self, processors: int = 2, **runner_kwargs):
        """Run the program's DOALL plan on actual cores.

        Unlike :meth:`account`, which *prices* one instrumented run
        under the cost model, this executes the plan for real:
        offloadable loops are chunked over ``processors`` worker
        processes against shared-memory COMMON storage, bit-identical
        to ``engine="transpiled"`` (outputs, COMMON memory, op counts).
        Returns a :class:`~repro.runtime.par_backend.ParallelRunResult`.
        """
        from .par_backend import ParallelRunner
        runner = ParallelRunner(self.program, self.plan,
                                workers=processors, **runner_kwargs)
        return runner.execute(self.inputs, max_ops=self.max_ops)

    def speedup_report(self, counts: Sequence[int] = (1, 2, 4),
                       repeats: int = 1, **runner_kwargs) -> dict:
        """Measured-vs-predicted speedups over a processor sweep.

        One simulator measurement prices every count; each count is
        then actually executed ``repeats`` times (best wall time kept)
        and compared against the sequential transpiled engine's wall
        time.  Measured speedups only mean something on a host with
        that many free cores — the report records the host core count
        so callers can judge.
        """
        import os
        import time
        from .transpile import load_module

        run = load_module(self.program).namespace["run"]
        seq_wall = None
        outputs = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            outputs = run(self.inputs, max_ops=self.max_ops)
            dt = time.perf_counter() - t0
            seq_wall = dt if seq_wall is None else min(seq_wall, dt)

        rows = []
        for p in counts:
            predicted = self.account(p).speedup
            best = None
            res = None
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                res = self.execute(processors=p, **runner_kwargs)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            rows.append({
                "processors": p,
                "wall_s": best,
                "measured_speedup": seq_wall / best if best else 1.0,
                "predicted_speedup": predicted,
                "ops": res.ops,
                "dispatches": res.dispatches,
                "identical": res.outputs == outputs,
            })
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count() or 1
        return {"seq_wall_s": seq_wall, "host_cores": cores,
                "rows": rows}

    # -- region tracking -----------------------------------------------------
    def on_loop_enter(self, loop: LoopStmt) -> None:
        if self._active is not None:
            return
        if loop.stmt_id not in self._parallel_ids:
            return
        self._active = RegionStats(loop, self.interpreter.ops)
        self._iter_start_ops = self.interpreter.ops
        self._iters_seen = 0

    def on_loop_iteration(self, loop: LoopStmt, index_value: int) -> None:
        region = self._active
        if region is None or region.loop is not loop:
            return
        now = self.interpreter.ops
        if self._iters_seen > 0:
            region.iter_costs.append(now - self._iter_start_ops)
        self._iter_start_ops = now
        self._iters_seen += 1

    def on_loop_exit(self, loop: LoopStmt) -> None:
        region = self._active
        if region is None or region.loop is not loop:
            return
        self._active = None
        now = self.interpreter.ops
        if self._iters_seen > 0:
            region.iter_costs.append(now - self._iter_start_ops)
        region.seq_ops = now - region.seq_ops
        self.regions.append(region)

    def on_read(self, buffer: Buffer, offset: int,
                stmt: Optional[Statement]) -> None:
        self._touch(buffer, offset, stmt, False)

    def on_write(self, buffer: Buffer, offset: int,
                 stmt: Optional[Statement]) -> None:
        self._touch(buffer, offset, stmt, True)

    def _touch(self, buffer: Buffer, offset: int,
               stmt: Optional[Statement], is_write: bool) -> None:
        region = self._active
        if region is None:
            return
        region.buffers[buffer.name] = len(buffer.data) * 8
        region.accesses += 1
        if is_write and stmt is not None and \
                stmt.stmt_id in self._red_stmts:
            region.red_updates += 1
            region.red_touched.add((buffer.name, offset))

    # -- the cost model ----------------------------------------------------------
    def _account_region(self, region: RegionStats, machine: Machine,
                        result: ParallelExecutionResult) -> None:
        loop = region.loop
        timing = result.loop_timings.get(loop.stmt_id)
        if timing is None:
            timing = LoopTiming(loop)
            result.loop_timings[loop.stmt_id] = timing
        timing.invocations += 1
        timing.seq_ops += region.seq_ops

        costs = region.iter_costs
        threshold = self.suppress_factor * machine.spawn_ops
        if region.seq_ops < threshold or len(costs) <= 1 \
                or machine.processors <= 1:
            timing.par_ops += region.seq_ops
            timing.suppressed += 1
            return

        p = min(machine.processors, len(costs))
        chunks = _blocked_chunks(costs, p)
        tmax = max(sum(c) for c in chunks)
        footprint = float(sum(region.buffers.values()))
        mem = machine.mem_factor(footprint, p)

        overhead = machine.spawn_ops
        overhead += self._privatization_overhead(loop, p)
        overhead += self._reduction_overhead(loop, region, p, machine)
        # shared-memory traffic is serialized across processors: a region
        # whose working set misses the cache cannot go faster than the bus
        floor = machine.bandwidth_floor_ops(region.accesses, footprint)
        par = overhead + max(tmax * mem, floor)
        timing.par_ops += min(par, region.seq_ops)

    def _plan_vars(self, loop: LoopStmt, *statuses: str) -> List[VarPlan]:
        lp = self.plan.loops.get(loop.stmt_id)
        if lp is None:
            return []
        return [v for v in lp.vars.values() if v.status in statuses]

    @staticmethod
    def _var_elems(vp: VarPlan) -> int:
        sizes = [s.constant_size() or 1 for s in vp.symbols]
        return max(sizes) if sizes else 1

    def _privatization_overhead(self, loop: LoopStmt, p: int) -> float:
        """PRIVATE_FINAL arrays pay a serialized last-value copy-out."""
        ops = 0.0
        for vp in self._plan_vars(loop, PRIVATE_FINAL):
            ops += self._var_elems(vp) * _ELEM_OPS
        return ops

    def _reduction_overhead(self, loop: LoopStmt, region: RegionStats,
                            p: int, machine: Machine) -> float:
        red_vars = self._plan_vars(loop, REDUCTION)
        if not red_vars:
            return 0.0
        strategy = self.reduction_strategy
        if strategy == ATOMIC:
            # every individual update takes a lock (section 6.3.5); they
            # spread over the processors but serialize on contention
            return region.red_updates / max(1, p) * machine.lock_ops \
                + region.red_updates * 0.5

        ops = 0.0
        for vp in red_vars:
            full = self._var_elems(vp)
            touched = len(region.red_touched) if region.red_touched else full
            elems = full if strategy == NAIVE else min(full, touched)
            init = elems * _ELEM_OPS               # parallel across procs
            if strategy in (NAIVE, MINIMIZED):
                final = elems * p * _ELEM_OPS + p * machine.lock_ops
            elif strategy == TREE:
                # "tree combinations can be used to reduce the
                # serialization if the number of processors is large"
                levels = max(1, (p - 1).bit_length())
                final = elems * levels * _ELEM_OPS \
                    + levels * machine.lock_ops
            else:                                   # STAGGERED
                final = elems * _ELEM_OPS + p * machine.lock_ops
            ops += init + final
        return ops


def _blocked_chunks(costs: List[int], p: int) -> List[List[int]]:
    """Blocked iteration partition: iteration j goes to chunk j*p//n."""
    n = len(costs)
    chunks: List[List[int]] = [[] for _ in range(p)]
    for j, c in enumerate(costs):
        chunks[j * p // n].append(c)
    return chunks


def execute_parallel(program: Program, plan: ProgramPlan, machine: Machine,
                     **kwargs) -> ParallelExecutionResult:
    return ParallelExecutor(program, plan, machine, **kwargs).run()
