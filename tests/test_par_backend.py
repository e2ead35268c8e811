"""The plan oracle (repro.runtime.plan_oracle) and the simulated machine
it stands beside.

Every dynamically outermost plan-parallel loop runs with its iterations
reversed (the last one kept last) and must show no cross-iteration
conflict outside the locations the plan privatizes, inducts or reduces,
no read of an uninitialised private cell, and the same outputs
(relative 1e-9) and op count (less the arms of guarded min/max updates)
as the sequential run.  Plus the oracle's own edges: budget and
runtime-error parity, dynamic nesting, determinism, and the shapes
(calls, formal writes, conditional inner drivers, guarded min/max) it
checks like any other loop.
"""

import os
import subprocess
import sys

import pytest

from repro.ir import build_program
from repro.ir.statements import IfStmt, LoopStmt
from repro.obs.tracer import Tracer, activate
from repro.parallelize import Parallelizer
from repro.parallelize.plan import PARALLEL, PRIVATE, PRIVATE_FINAL
from repro.runtime import run_program
from repro.runtime.interpreter import (OpsBudgetExceeded,
                                       RuntimeErrorInProgram)
from repro.runtime.machine import ALPHASERVER_8400
from repro.runtime.parallel_exec import (ParallelExecutionResult,
                                         ParallelExecutor)
from repro.runtime.plan_oracle import (PlanOracle, check_plan,
                                       iteration_order)
from repro.workloads import ALL

CORPUS = sorted(ALL)

_cache = {}


def _program(name):
    """Each workload built once with its default plan (no user
    assertions, as a default job plans it) and its sequential reference.
    The reference is the transpiled engine, which the parity suites hold
    bit-identical to the tree run."""
    if name not in _cache:
        w = ALL[name]
        prog = build_program(w.source, w.name)
        plan = Parallelizer(prog).plan()
        ref = run_program(prog, w.inputs, engine="transpiled")
        _cache[name] = (prog, plan, w.inputs, ref)
    return _cache[name]


def _check(name):
    key = (name, "check")
    if key not in _cache:
        prog, plan, inputs, ref = _program(name)
        _cache[key] = check_plan(prog, plan, inputs, reference=ref)
    return _cache[key]


def _assert_clean(check, context):
    assert check.error is None, (context, check.error)
    assert not check.conflicts, (context, check.conflicts[:8])
    assert check.poisoned_reads == 0, (context, check.conflicts[:8])
    assert check.outputs_equal, context
    assert check.ops_equal, (context, check.ops, check.arm_ops,
                             check.reference_ops)
    if not check.arm_ops:
        assert check.ops == check.reference_ops, context


# -- whole-corpus plan checks --------------------------------------------------

@pytest.mark.parametrize("name", CORPUS)
def test_corpus_parity_across_worker_counts(name):
    """The default plan passes the oracle with every region reversed:
    no conflict, no poisoned read, equal outputs, equal ops (less the
    arms of guarded min/max updates, counted in both runs)."""
    _assert_clean(_check(name), name)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_offload_coverage(name):
    """Every plan-parallel loop the run reaches is checked: it ran as a
    reordered region root, or only inside one (the dynamic-nesting rule,
    whose root's check covers its accesses).  The roots and their
    invocation counts are exactly the simulated machine's regions."""
    prog, plan, inputs, _ = _program(name)
    check = _check(name)
    parallel = {loop.stmt_id for loop in plan.parallel_loops()}
    assert set(check.loops) <= check.reached <= parallel, name
    assert check.reached, f"{name}: no plan-parallel loop reached"
    for lc in check.loops.values():
        assert lc.invocations >= 1 and lc.reordered >= 1, (
            f"{name}: {lc.loop.name} never reordered")
    sim = ParallelExecutor(prog, plan, ALPHASERVER_8400, inputs=inputs,
                           engine="transpiled").measure()
    regions = {}
    for region in sim.regions:
        regions[region.loop.stmt_id] = \
            regions.get(region.loop.stmt_id, 0) + 1
    assert regions == {sid: lc.invocations
                       for sid, lc in check.loops.items()}, name


def test_merge_is_deterministic_across_repeats():
    """Reduction-heavy workload, three times: same report, outputs and
    ops (nothing depends on buffer addresses)."""
    prog, plan, inputs, _ = _program("mdljdp2")
    runs = [PlanOracle(prog, plan, inputs).run()
            for _ in range(3)]
    assert runs[0].outputs == runs[1].outputs == runs[2].outputs
    assert runs[0].ops == runs[1].ops == runs[2].ops
    reports = [{sid: (lc.invocations, lc.reordered, lc.poisoned_reads,
                      sorted(lc.conflicts))
                for sid, lc in r.loops.items()} for r in runs]
    assert reports[0] == reports[1] == reports[2]


def test_inline_chunks_match_pool_chunks():
    """The oracle's order is a permutation of the iterations with the
    last one last, and every other pair runs the opposite way round to
    the sequential order, so each carried dependence between two of
    them meets its accesses swapped."""
    for n in range(0, 40):
        order = iteration_order(n)
        assert sorted(order) == list(range(n))
        if n:
            assert order[-1] == n - 1
        pos = {j: k for k, j in enumerate(order)}
        assert all(pos[a] > pos[b] for a in range(n - 1)
                   for b in range(a + 1, n - 1)), n
    assert iteration_order(5) == [3, 2, 1, 0, 4]
    assert iteration_order(0) == [] and iteration_order(2) == [0, 1]


def test_spawn_start_method_parity():
    """A fresh interpreter (no shared state, new addresses) reports the
    same check as this process."""
    probe = ("from repro.workloads import ALL\n"
             "from repro.ir import build_program\n"
             "from repro.parallelize import Parallelizer\n"
             "from repro.runtime.plan_oracle import check_plan\n"
             "w = ALL['ora']\n"
             "p = build_program(w.source, w.name)\n"
             "r = check_plan(p, Parallelizer(p).plan(), w.inputs)\n"
             "print(repr((r.ops, r.outputs_equal, r.conflicts,"
             " r.poisoned_reads, sorted(lc.loop.name for lc in"
             " r.loops.values()))))\n")
    import repro
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout.strip()
    here = _check("ora")
    assert out == repr((here.ops, here.outputs_equal, here.conflicts,
                        here.poisoned_reads,
                        sorted(lc.loop.name for lc in here.loops.values())))


# -- oracle edges -------------------------------------------------------------

TRIPS_SRC = """
      PROGRAM trips
      COMMON /g/ a(16)
      DO 10 i = 5, 1
        a(i) = 1.0
10    CONTINUE
      DO 20 i = 16, 1, -1
        a(i) = i * 2.0 + a(i)
20    CONTINUE
      PRINT *, a(1), a(16)
      END
"""


def test_runner_rejects_bad_worker_count():
    """The order is over positions, not index values: a zero-trip
    region is entered but has nothing to reorder, and a descending one
    runs its positions reversed like any other, with the same result."""
    prog = build_program(TRIPS_SRC, "trips")
    plan = Parallelizer(prog).plan()
    check = check_plan(prog, plan)
    _assert_clean(check, "trips")
    by_name = {lc.loop.name: lc for lc in check.loops.values()}
    assert (by_name["trips/10"].invocations,
            by_name["trips/10"].reordered) == (1, 0)
    assert by_name["trips/20"].reordered == 1


SHORT_SRC = """
      PROGRAM short
      COMMON /g/ a(8)
      DO 10 i = 1, 2
        a(i) = i * 1.5
10    CONTINUE
      DO 20 i = 1, 6
        a(i) = a(i) + 1.0
20    CONTINUE
      PRINT *, a(1), a(6)
      END
"""


def test_min_iters_declines_small_loops():
    """A region of fewer than 3 iterations keeps its order (the last
    one stays last, so there is nothing to swap) and is not counted as
    reordered; the longer one is."""
    prog = build_program(SHORT_SRC, "short")
    plan = Parallelizer(prog).plan()
    check = check_plan(prog, plan)
    _assert_clean(check, "short")
    by_name = {lc.loop.name: lc for lc in check.loops.values()}
    assert by_name["short/10"].invocations == 1
    assert by_name["short/10"].reordered == 0
    assert by_name["short/20"].reordered == 1


NEST_SRC = """
      PROGRAM nest
      COMMON /g/ a(16, 16)
      DO 20 j = 1, 16
        CALL row(j)
20    CONTINUE
      CALL row(3)
      PRINT *, a(4, 5), a(16, 16)
      END

      SUBROUTINE row(j)
      COMMON /g/ a(16, 16)
      DO 10 i = 1, 16
        a(i, j) = i + j * 0.5
10    CONTINUE
      END
"""


IND_SRC = """
      PROGRAM ind
      COMMON /g/ a(64)
      k = 0
      DO 10 i = 1, 20
        k = k + 3
        a(k) = i * 1.0
10    CONTINUE
      PRINT *, a(30), a(3), k
      END
"""


def test_induction_variables_take_their_closed_form():
    """An induction variable is set to ``start + j * step`` at the start
    of sequential iteration ``j``, as a compiler rewrites it: with ``a``
    asserted independent, the reversed run writes the same cells.  Left
    shared instead, ``k`` carries its value from iteration to iteration
    and the oracle says so."""
    from repro.parallelize.parallelizer import Assertion
    prog = build_program(IND_SRC, "ind")
    plan = Parallelizer(prog, assertions=[
        Assertion("ind/10", "a", "independent")]).plan()
    lp = plan.plan_by_name("ind/10")
    assert lp.parallel and sorted(
        vp.status for vp in lp.vars.values()) == ["induction", "parallel"]
    _assert_clean(check_plan(prog, plan), "ind")
    for vp in lp.vars.values():
        vp.status = PARALLEL
    check = check_plan(prog, plan)
    assert {c[1] for c in check.conflicts} == {"k"}
    assert not check.outputs_equal


def test_max_dispatches_caps_then_falls_back_sequential():
    """Dynamic nesting: a parallel loop reached inside a region runs in
    order as part of it; reached on its own, it is a region root."""
    prog = build_program(NEST_SRC, "nest")
    plan = Parallelizer(prog).plan()
    outer, inner = prog.loop("nest/20"), prog.loop("row/10")
    assert plan.is_parallel(outer) and plan.is_parallel(inner)
    check = check_plan(prog, plan)
    _assert_clean(check, "nest")
    assert check.reached == {outer.stmt_id, inner.stmt_id}
    assert check.loops[outer.stmt_id].invocations == 1
    # 16 calls from inside the outer region, one from main on its own
    assert check.loops[inner.stmt_id].invocations == 1


def test_budget_abort_decision_and_message_match_sequential():
    """The abort decision and the exception text (which carries only
    max_ops) match the sequential engine."""
    prog, plan, inputs, ref = _program("tomcatv")
    max_ops = ref.ops // 2
    with pytest.raises(OpsBudgetExceeded) as seq_exc:
        run_program(prog, inputs, engine="tree", max_ops=max_ops)
    with pytest.raises(OpsBudgetExceeded) as par_exc:
        PlanOracle(prog, plan, inputs, max_ops=max_ops).run()
    assert str(par_exc.value) == str(seq_exc.value)


def test_budget_completion_parity_just_above_threshold():
    prog, plan, inputs, ref = _program("ora")
    oracle = PlanOracle(prog, plan, inputs, max_ops=ref.ops).run()
    assert oracle.ops == ref.ops


ERR_SRC = """
      PROGRAM perr
      COMMON /g/ a(64)
      INTEGER k, m
      m = 1
      DO 10 i = 1, 64
        k = i / (m - m)
        a(i) = k * 1.0
10    CONTINUE
      PRINT *, a(1)
      END
"""


def test_runtime_error_in_kernel_propagates_with_same_message():
    prog = build_program(ERR_SRC, "perr")
    plan = Parallelizer(prog).plan()
    assert plan.is_parallel(prog.loop("perr/10")), \
        "the error loop must actually run as a region"
    with pytest.raises(RuntimeErrorInProgram) as seq_exc:
        run_program(prog, engine="tree")
    with pytest.raises(RuntimeErrorInProgram) as par_exc:
        PlanOracle(prog, plan).run()
    assert str(par_exc.value) == str(seq_exc.value)


# -- observability ------------------------------------------------------------

def test_parallel_spans_are_emitted_with_tags():
    """An oracle run is traced like any tree run: one ``execute`` span
    with its ops; the phase taxonomy names no real-execution phase."""
    from repro.obs.export import PHASES
    prog, plan, inputs, ref = _program("tomcatv")
    tracer = Tracer()
    with activate(tracer):
        PlanOracle(prog, plan, inputs).run()
    spans = tracer.finished_spans()
    assert [s.name for s in spans] == ["execute"]
    assert spans[0].tags["engine"] == "tree"
    assert spans[0].tags["ops"] == ref.ops
    assert "parallel.exec" not in PHASES
    assert "parallel.merge" not in PHASES


# -- zero-op guards (simulated result arithmetic) -----------------------------

def test_simulated_result_guards_divide_by_zero():
    res = ParallelExecutionResult(ALPHASERVER_8400)
    assert res.speedup == 1.0
    assert res.coverage == 0.0
    assert res.granularity_ms() == 0.0


EMPTY_SRC = """
      PROGRAM nul
      END
"""


def test_zero_work_program_end_to_end():
    """A program with no loops and no output: the simulator's ratios
    stay defined and the oracle has nothing to reorder."""
    prog = build_program(EMPTY_SRC, "nul")
    plan = Parallelizer(prog).plan()
    ex = ParallelExecutor(prog, plan, ALPHASERVER_8400,
                          engine="transpiled")
    sim = ex.run()
    assert sim.speedup >= 1.0 and sim.coverage == 0.0
    check = check_plan(prog, plan)
    _assert_clean(check, "nul")
    assert not check.loops and not check.reached


# -- the simulated machine beside the oracle ----------------------------------

def test_executor_execute_matches_account_shape():
    """The plan the simulator prices is one the oracle accepts, and the
    predicted speedups are monotonic over 1/2/4 processors."""
    prog, plan, inputs, ref = _program("tomcatv")
    ex = ParallelExecutor(prog, plan, ALPHASERVER_8400, inputs=inputs,
                          engine="transpiled")
    predicted = [ex.account(p).speedup for p in (1, 2, 4)]
    assert predicted[0] <= predicted[1] <= predicted[2]
    assert ex.account(4).outputs == ref.outputs
    _assert_clean(_check("tomcatv"), "tomcatv")


def test_session_parallel_execute_builds_plan_on_demand():
    """A session executes on the simulated machine only; the plan it
    builds passes the oracle."""
    from repro.explorer.session import ExplorerSession
    w = ALL["ora"]
    session = ExplorerSession(w.build(), inputs=w.inputs)
    assert not hasattr(session, "parallel_execute")
    assert session.plan is None
    session.run_automatic()
    _assert_clean(check_plan(session.program, session.plan, w.inputs),
                  "ora session")


# -- service boundary ---------------------------------------------------------

def test_service_validates_parallel_options():
    """Real-execution options are unknown options: a 400 naming the
    options the service reads."""
    from repro.service.jobs import validate_options
    for bad in ({"workers": 2}, {"parallel_execute": True},
                {"parallel_execute": False, "engine": "tree"}):
        with pytest.raises(ValueError, match="unknown option") as exc:
            validate_options(bad)
        assert "use_liveness" in str(exc.value)


def test_service_job_records_parallel_execution():
    """A job's artifact reports the simulated run only, and its outputs
    are the ones the oracle's reordered run reproduces."""
    from repro.service.jobs import AnalysisRequest, execute_request
    art = execute_request(AnalysisRequest(
        "ora", options={"engine": "transpiled"}))
    assert "parallel_execution" not in art
    prog, plan, inputs, ref = _program("ora")
    assert art["execution"]["outputs"] == [float(v) for v in ref.outputs]
    _assert_clean(_check("ora"), "ora")


# -- shapes a per-loop code generator finds hard -----------------------------
#
# The synth factory has a trait profile per shape: calls, writes through
# formal arrays, conditionally reached inner drivers, guarded min/max
# updates.  The planner marks each loop PARALLEL, and the oracle runs
# and checks it like any other loop.

REJECTION_PROFILES = [
    ("call", "loop contains a call"),
    ("formal", "formal array"),
    ("conddrv", "conditionally reached"),
    ("red-mm", "read outside its update"),
]


def _conditional_inner_loop(loop):
    for inner in loop.inner_loops():
        node = inner.parent
        while node is not None and node is not loop:
            if isinstance(node, IfStmt):
                return True
            node = node.parent
    return False


#: Which plan-parallel loops have the profile's shape.
SHAPES = {
    "call": lambda loop, lp, lc: loop.contains_call(),
    "formal": lambda loop, lp, lc: any(
        key[0] == "f" and vp.status == PARALLEL and
        any(s.is_array for s in vp.symbols)
        for key, vp in lp.vars.items()),
    "conddrv": lambda loop, lp, lc: _conditional_inner_loop(loop),
    "red-mm": lambda loop, lp, lc: lc.guarded,
}


def _shaped_roots(profile, seed):
    from repro.workloads import synth
    w = synth.generate(seed, profile)
    prog = build_program(w.source, w.name)
    plan = Parallelizer(prog).plan()
    check = check_plan(prog, plan)
    hits = [lc for sid, lc in check.loops.items()
            if SHAPES[profile](lc.loop, plan.loops[sid], lc)]
    return w, prog, plan, check, hits


@pytest.mark.parametrize("profile,needle", REJECTION_PROFILES)
def test_rejection_class_produced_on_demand(profile, needle):
    """For several seeds, the profile yields a plan-parallel loop of its
    shape ({needle}), which the oracle ran as a reordered region and
    found clean."""
    for seed in range(4):
        w, prog, plan, check, hits = _shaped_roots(profile, seed)
        assert hits, f"{w.name}: no {profile} region ({needle})"
        assert all(isinstance(lc.loop, LoopStmt) and
                   plan.is_parallel(lc.loop) and lc.reordered
                   for lc in hits), w.name
        _assert_clean(check, w.name)


@pytest.mark.parametrize("profile,needle", REJECTION_PROFILES)
def test_rejected_loops_fall_back_bit_identically(profile, needle):
    """Against the transpiled engine's run (the one a job makes; a
    counting tree run where guarded arms are left out), the shaped
    program's plan holds: equal outputs and ops, no conflict."""
    from repro.workloads import synth
    w = synth.generate(1, profile)
    prog = build_program(w.source, w.name)
    plan = Parallelizer(prog).plan()
    ref = run_program(prog, engine="transpiled")
    check = check_plan(prog, plan, reference=ref)
    _assert_clean(check, w.name)
    assert any(SHAPES[profile](lc.loop, plan.loops[sid], lc)
               for sid, lc in check.loops.items()), (w.name, needle)


# -- the oracle is not vacuous ------------------------------------------------

def test_oracle_flags_mdg_interf_forced_parallel_without_privatization():
    """mdg's interf/1000 and interf/1100, forced parallel with every
    location left shared, carry real cross-iteration traffic (the
    privatizable scratch scalars, the force reductions): conflicts.
    Both dynamic dependence checks before the oracle passed this plan."""
    prog, _, inputs, ref = _program("mdg")
    plan = Parallelizer(prog).plan()      # a private copy to mutate
    for name in ("interf/1000", "interf/1100"):
        lp = plan.plan_by_name(name)
        assert not lp.parallel
        for vp in lp.vars.values():
            vp.status = PARALLEL
        lp.blockers = []
        lp.parallel = True
    check = check_plan(prog, plan, inputs, reference=ref)
    assert not check.clean
    flagged = {lc.loop.name for lc in check.loops.values() if lc.conflicts}
    assert "interf/1000" in flagged
    kinds = {c[0] for c in check.conflicts}
    assert {"flow", "anti", "output"} & kinds


LIVE_SRC = """
      PROGRAM live
      DIMENSION w(8), s(32)
      DO 20 i = 1, 32
        DO 10 k = 1, 8
          w(k) = i + k * 0.5
10      CONTINUE
        s(i) = w(1) + w(8)
20    CONTINUE
      PRINT *, s(32), w(4)
      END
"""


def test_oracle_flags_wrong_dead_at_exit_verdict():
    """The scratch array ``w`` is read after the loop, so the planner
    privatizes it with last-value finalization; a plan that calls it
    dead at exit (plain ``private``) is wrong, and the poisoned cells
    change the printed output.  So is the privatization hydro's user
    asserts at vsetuv/85: ``dkrc(k1-1)`` is read before the iteration
    writes it whenever ``klo(l) > 1``."""
    from repro.parallelize.parallelizer import Assertion
    prog, _, inputs, ref = _program("hydro")
    plan = Parallelizer(prog, assertions=[
        Assertion("vsetuv/85", "dkrc", "privatizable")]).plan()
    assert plan.plan_by_name("vsetuv/85").parallel
    check = check_plan(prog, plan, inputs, reference=ref)
    assert check.poisoned_reads > 0 and not check.outputs_equal

    prog = build_program(LIVE_SRC, "live")
    plan = Parallelizer(prog).plan()
    lp = plan.plan_by_name("live/20")
    w_plan = [vp for vp in lp.vars.values() if vp.display_name == "w"]
    assert lp.parallel and [vp.status for vp in w_plan] == [PRIVATE_FINAL]
    _assert_clean(check_plan(prog, plan), "live")
    w_plan[0].status = PRIVATE
    check = check_plan(prog, plan)
    assert not check.outputs_equal or check.poisoned_reads
    assert not check.clean
