"""Bit-parity of the transpiled (code-generating) engine vs the oracle.

The transpiled engine emits plain Python source per set of
instrumentation aspects (``plain``, or any of ``profile`` / ``dyndep`` /
``cost`` joined by ``+``) and runs it; these tests pin the contract the generator's optimizations (range-driven
loops, merged per-iteration charges, whole-loop precharging, invariant
hoisting, store-forwarding, coercion elision, batched access counting)
must honor:

* **plain runs** are bit-identical to the tree-walking oracle — printed
  outputs, op counts, final COMMON memory — over every corpus workload,
* **codegen-time instrumentation** reproduces the oracle's observer
  state exactly: LoopProfiler numbers including first-touch order,
  dyndep census / witness pairs / sampling counters at stride 1 and 2,
  and the simulated run's per-region measurements and machine accounts
  — one aspect at a time and every combination in one run,
* loops left early (EXIT/STOP) and runs cut short by the op budget keep
  the same partial observer data; the budget aborts with the *same*
  ``OpsBudgetExceeded`` message,
* observer sets the generator cannot express (two of a type, stale,
  subclassed) **fall back** to the tree oracle (and still agree), with
  ``engine_label`` and the span's ``fallback`` tag naming what ran,
* generated modules are **cached** — in-process memo (bounded) and the
  persistent ``ArtifactStore`` — and repeat compilations skip codegen,
* generated-module **hygiene**: user identifiers echoing the preamble
  helper names never capture them.
"""

import hashlib
import itertools
import json
import os
from functools import lru_cache

import numpy as np
import pytest

from conftest import EveryLoopParallel, regions_state
from repro.ir import build_program
from repro.parallelize import Parallelizer
from repro.runtime import (ALPHASERVER_8400, ATOMIC, MINIMIZED, NAIVE,
                           STAGGERED, TREE, OpsBudgetExceeded,
                           ParallelExecutor, analyze_dependences,
                           engine_label, make_engine, profile_program,
                           reduction_stmt_ids, run_program)
from repro.runtime import transpile
from repro.runtime.dyndep import DynamicDependenceAnalyzer
from repro.runtime.profiler import LoopProfiler
from repro.runtime.transpile import (codegen_cache_stats, compile_program,
                                     load_module, reset_codegen_cache,
                                     set_codegen_store,
                                     transpile_to_python)
from repro.workloads import ALL, get
from repro.workloads.synth import pinned_slice

CORPUS = sorted(ALL)
ASPECTS = ("profile", "dyndep", "cost")
ASPECT_SETS = [c for n in (1, 2, 3)
               for c in itertools.combinations(ASPECTS, n)]

#: Digests taken at the parent of the PR that made variants aspect sets
#: (commit 158b516, ``CODEGEN_VERSION`` 2): ``sha256`` of
#: ``transpile_to_python(program, variant)`` per corpus program and
#: single-aspect variant, and ``assert_artifact_sha256`` of
#: ``canonical_json(execute_request(AnalysisRequest(name, options=
#: {"slice": ["targets"], "assertions": True})))``.  Regenerate both from
#: a trusted commit with exactly those expressions when generated text
#: (bump ``CODEGEN_VERSION``) or the artifact schema changes on purpose.
with open(os.path.join(os.path.dirname(__file__),
                       "golden_codegen.json")) as _fh:
    GOLDEN = json.load(_fh)


@lru_cache(maxsize=None)
def _program(name):
    """Build each workload once so stmt_ids line up across engines."""
    w = ALL[name]
    return build_program(w.source, w.name), tuple(w.inputs)


@lru_cache(maxsize=None)
def _plan(name):
    return Parallelizer(_program(name)[0]).plan()


def _profile_state(p):
    """Everything a LoopProfiler exposes, including first-touch order."""
    return ([(prof.loop.stmt_id, prof.total_ops, prof.invocations,
              prof.iterations) for prof in p.executed_loops()],
            p.total_ops)


def _dyndep_state(d):
    """Everything a DynamicDependenceAnalyzer exposes."""
    return (d.carried, d.carried_by_var, d.witnesses,
            d.sampled_accesses, d.skipped_accesses, d._invocations)


def _accounts(ex):
    """``account(p)`` over the processor sweep x every reduction
    lowering — one measurement prices them all."""
    out = {}
    for strategy in (NAIVE, MINIMIZED, STAGGERED, ATOMIC, TREE):
        ex.reduction_strategy = strategy
        for p in (1, 2, 4, 8, 32):
            res = ex.account(p)
            out[strategy, p] = (
                res.seq_ops, res.par_ops, res.parallel_region_seq_ops,
                {lid: (t.invocations, t.seq_ops, t.par_ops, t.suppressed)
                 for lid, t in res.loop_timings.items()})
    return out


# The oracle legs are memoized: tests/test_instrumented_parity.py
# re-exports these cases under their earlier ids.

@lru_cache(maxsize=None)
def _profiles(name):
    prog, inputs = _program(name)
    return tuple(profile_program(prog, inputs, engine=e)
                 for e in ("tree", "transpiled"))


@lru_cache(maxsize=None)
def _dyndeps(name, stride):
    prog, inputs = _program(name)
    skip = reduction_stmt_ids(prog)
    return tuple(analyze_dependences(prog, inputs, skip_stmt_ids=skip,
                                     sample_stride=stride, engine=e)
                 for e in ("tree", "transpiled"))


# -- whole-corpus parity ------------------------------------------------------

@pytest.mark.parametrize("name", CORPUS)
def test_plain_parity_full_corpus(name):
    prog, inputs = _program(name)
    tree = run_program(prog, inputs, engine="tree")
    trans = run_program(prog, inputs, engine="transpiled")
    assert engine_label(trans) == "transpiled/plain"
    assert trans.outputs == tree.outputs
    assert trans.ops == tree.ops, (
        f"{name}: op-count drift tree={tree.ops} transpiled={trans.ops}")
    assert set(trans.commons) == set(tree.commons)
    for cname, buf in tree.commons.items():
        assert np.array_equal(trans.commons[cname].data, buf.data), (
            f"{name}: COMMON /{cname}/ contents differ")


@pytest.mark.parametrize("name", CORPUS)
def test_profiler_parity_full_corpus(name):
    tree, fast = _profiles(name)
    assert engine_label(tree.interpreter) == "tree"
    assert engine_label(fast.interpreter) == "transpiled/profile"
    assert _profile_state(fast) == _profile_state(tree)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("name", CORPUS)
def test_dyndep_parity_full_corpus(name, stride):
    tree, fast = _dyndeps(name, stride)
    assert engine_label(tree.interpreter) == "tree"
    assert engine_label(fast.interpreter) == "transpiled/dyndep"
    assert _dyndep_state(fast) == _dyndep_state(tree)


@pytest.mark.parametrize("name", CORPUS)
def test_simulated_run_parity_full_corpus(name):
    """The ``cost`` variant hands the cost model exactly what the cost
    observer collects on the oracle: every dynamic region's loop, ops,
    per-iteration costs, touched buffers and bytes, access count and
    reduction statistics — hence identical accounts for every machine
    size and reduction lowering."""
    prog, inputs = _program(name)
    runs = {e: ParallelExecutor(prog, _plan(name), ALPHASERVER_8400,
                                inputs=inputs, engine=e).measure()
            for e in ("tree", "transpiled")}
    assert engine_label(runs["tree"].interp) == "tree"
    assert engine_label(runs["transpiled"].interp) == "transpiled/cost"
    assert regions_state(runs["transpiled"]) == \
        regions_state(runs["tree"])
    assert _accounts(runs["transpiled"]) == _accounts(runs["tree"])


# -- aspect sets: any combination in one run ---------------------------------

def _observed(prog, inputs, plan, aspects, engine, skip=None,
              max_ops=500_000_000):
    """One run of ``engine`` carrying fresh analyzers for ``aspects``
    at once: what ran, plus each analyzer's state (partial after a
    budget abort, like the oracle's)."""
    ex = ParallelExecutor(prog, plan, ALPHASERVER_8400, inputs=inputs,
                          engine=engine)
    made = {"profile": LoopProfiler(),
            "dyndep": DynamicDependenceAnalyzer(skip),
            "cost": ex}
    eng = make_engine(prog, inputs, max_ops=max_ops, engine=engine)
    for aspect in aspects:
        made[aspect].attach(eng)
    try:
        eng.run()
    except OpsBudgetExceeded:
        pass
    for aspect in aspects:
        made[aspect].finish()
    state = {"outputs": eng.outputs, "ops": eng.ops}
    if "profile" in aspects:
        state["profile"] = _profile_state(made["profile"])
    if "dyndep" in aspects:
        state["dyndep"] = _dyndep_state(made["dyndep"])
    if "cost" in aspects:
        state["cost"] = regions_state(ex)
    return engine_label(eng), state


def _assert_aspect_sets_match_oracle(prog, inputs, plan, skip,
                                     aspect_sets=ASPECT_SETS):
    """The oracle's observers are independent of one another, so one
    oracle run carrying all three is the reference for every subset."""
    label, oracle = _observed(prog, inputs, plan, ASPECTS, "tree", skip)
    assert label == "tree"
    for aspects in aspect_sets:
        label, fast = _observed(prog, inputs, plan, aspects,
                                "transpiled", skip)
        assert label == "transpiled/" + "+".join(aspects)
        want = {k: oracle[k] for k in ("outputs", "ops") + aspects}
        assert fast == want, f"{prog.name}: {'+'.join(aspects)} diverged"


@pytest.mark.parametrize("name", CORPUS)
def test_aspect_set_parity_full_corpus(name):
    """Every non-empty subset of {profile, dyndep, cost} generated into
    one module leaves each analyzer exactly where the tree oracle
    carrying the same observers at once leaves it — with the session's
    reduction skip set, and (for the sets where a reduction statement is
    both a dyndep site and a cost reduction store) without one."""
    prog, inputs = _program(name)
    _assert_aspect_sets_match_oracle(prog, inputs, _plan(name),
                                     reduction_stmt_ids(prog))
    _assert_aspect_sets_match_oracle(
        prog, inputs, _plan(name), None,
        [s for s in ASPECT_SETS if {"dyndep", "cost"} <= set(s)])


def test_aspect_set_parity_synth_slice():
    for name in pinned_slice(200):
        w = get(name)
        prog = build_program(w.source, w.name)
        _assert_aspect_sets_match_oracle(
            prog, tuple(w.inputs), Parallelizer(prog).plan(),
            reduction_stmt_ids(prog))


@pytest.mark.parametrize("name", CORPUS)
def test_single_aspect_text_is_byte_identical_to_the_parents(name):
    """``plain`` / ``profile`` / ``dyndep`` / ``cost`` are the 0- and
    1-element aspect sets through the same emitter path: their generated
    text has not moved (see ``GOLDEN``)."""
    assert transpile.CODEGEN_VERSION == GOLDEN["codegen_version"]
    prog, _ = _program(name)
    for variant in ("plain",) + ASPECTS:
        text = transpile_to_python(prog, variant)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            GOLDEN["sha256"][f"{name}/{variant}"], f"{name}/{variant}"


def test_variant_labels_are_canonical():
    prog, _ = _program("ora")
    for bad in ("cost+profile", "profile+profile", "all", "", "plain+cost"):
        with pytest.raises(transpile.TranspileUnsupported):
            transpile_to_python(prog, bad)


# -- early-exit control flow ---------------------------------------------------

EXIT_SRC = """
      PROGRAM t
      DIMENSION a(50)
      s = 0.0
      DO 100 it = 1, 5
        DO 10 i = 1, 50
          a(i) = a(i) + i * 1.0
          IF (i .GT. 12) EXIT
          s = s + a(i)
10      CONTINUE
100   CONTINUE
      PRINT *, s
      END
"""

STOP_SRC = """
      PROGRAM t
      DIMENSION a(50)
      DO 10 i = 1, 50
        a(i) = i * 2.0
        IF (i .GT. 7) THEN
          STOP
        END IF
10    CONTINUE
      PRINT *, a(1)
      END
"""


@pytest.mark.parametrize("src", [EXIT_SRC, STOP_SRC],
                         ids=["exit", "stop"])
def test_profile_totals_match_on_early_loop_exit(src):
    """Loops left mid-iteration via EXIT/STOP: the generated drivers
    accumulate totals in a ``finally`` at the oracle's on_loop_exit
    point, so partial iterations charge identically on both engines."""
    prog = build_program(src)
    tree = profile_program(prog, engine="tree")
    fast = profile_program(prog, engine="transpiled")
    assert engine_label(fast.interpreter) == "transpiled/profile"
    assert _profile_state(fast) == _profile_state(tree)
    # the early exit actually happened: iterations < trip count bound
    inner = prog.loop("t/10")
    assert fast.profile(inner).iterations < 50 * \
        fast.profile(inner).invocations


@pytest.mark.parametrize("src", [EXIT_SRC, STOP_SRC],
                         ids=["exit", "stop"])
def test_dyndep_state_matches_on_early_loop_exit(src):
    prog = build_program(src)
    tree = analyze_dependences(prog, engine="tree")
    fast = analyze_dependences(prog, engine="transpiled")
    assert engine_label(fast.interpreter) == "transpiled/dyndep"
    assert _dyndep_state(fast) == _dyndep_state(tree)


@pytest.mark.parametrize("src", [EXIT_SRC, STOP_SRC],
                         ids=["exit", "stop"])
def test_simulated_regions_match_on_early_loop_exit(src):
    """A region left via EXIT, or unwound by STOP, still closes in a
    ``finally`` with the partial last iteration's cost."""
    prog = build_program(src)
    runs = {e: ParallelExecutor(prog, EveryLoopParallel(prog),
                                ALPHASERVER_8400, engine=e).measure()
            for e in ("tree", "transpiled")}
    assert engine_label(runs["transpiled"].interp) == "transpiled/cost"
    assert runs["tree"].regions
    assert regions_state(runs["transpiled"]) == \
        regions_state(runs["tree"])


@pytest.mark.parametrize("src", [EXIT_SRC, STOP_SRC],
                         ids=["exit", "stop"])
def test_fused_run_matches_on_early_loop_exit(src):
    prog = build_program(src)
    _assert_aspect_sets_match_oracle(prog, (), EveryLoopParallel(prog),
                                     None, [ASPECTS])


# -- budget enforcement -------------------------------------------------------

def test_budget_abort_message_identical_across_engines():
    """Both engines must raise the *same* unified exception with the
    *same* message (the abort may land a few ops apart — the generated
    code charges loops in merged batches — but the contract is the
    error type and text, which carry only ``max_ops``)."""
    prog, inputs = _program("mdg")
    total = run_program(prog, inputs, engine="tree").ops
    budget = max(1, total // 2)
    messages = []
    for engine in ("tree", "transpiled"):
        with pytest.raises(OpsBudgetExceeded) as exc_info:
            run_program(prog, inputs, max_ops=budget, engine=engine)
        assert exc_info.value.max_ops == budget
        messages.append(str(exc_info.value))
    assert len(set(messages)) == 1
    assert messages[0] == f"operation budget exceeded (max_ops={budget})"


def test_profile_partial_data_survives_ops_budget_abort():
    """The oracle keeps whatever it observed before the op budget blew;
    the generated code's fill-back runs in a ``finally`` so it must too.

    Exact op totals legitimately differ by a few ops here: the
    transpiled engine charges ops in per-block batches, so the budget
    trips a handful of ops away from the oracle's finer-grained checks.
    That skew exists for *clean* execution too and only becomes
    observable at the abort point; the structural profile (which loops,
    in which first-touch order, with which invocation/iteration counts)
    must still match, and per-loop totals may differ by at most the
    global abort skew."""
    results = []
    prog, inputs = _program("mdg")
    for engine in ("tree", "transpiled"):
        prof = LoopProfiler()
        eng = make_engine(prog, inputs, max_ops=20_000, engine=engine)
        prof.attach(eng)
        with pytest.raises(OpsBudgetExceeded):
            eng.run()
        prof.finish()
        results.append(prof)
    tree, fast = results
    t_loops = tree.executed_loops()
    f_loops = fast.executed_loops()
    assert t_loops, "budget abort must leave partial profiles"
    assert [(p.loop.stmt_id, p.invocations, p.iterations)
            for p in f_loops] == \
           [(p.loop.stmt_id, p.invocations, p.iterations)
            for p in t_loops]
    skew = abs(fast.total_ops - tree.total_ops)
    assert skew < 1_000, "abort points wildly diverged"
    for f, t in zip(f_loops, t_loops):
        assert abs(f.total_ops - t.total_ops) <= skew


def test_simulated_run_budget_abort_mid_region():
    """A budget that blows inside a parallel region: every region
    closed before the abort is bit-identical, and the open one is still
    delivered (closed by the unwinding ``finally``) for the same loop,
    its partial costs within the batch-charging skew."""
    prog, inputs = _program("mdg")
    runs = {}
    for engine in ("tree", "transpiled"):
        ex = ParallelExecutor(prog, _plan("mdg"), ALPHASERVER_8400,
                              inputs=inputs, max_ops=20_000,
                              engine=engine)
        with pytest.raises(OpsBudgetExceeded):
            ex.measure()
        runs[engine] = (regions_state(ex)[0], ex.interp.ops)
    (tree, t_ops), (fast, f_ops) = runs["tree"], runs["transpiled"]
    assert len(tree) > 1, "the budget must trip after some regions"
    assert fast[:-1] == tree[:-1]
    (t_loop, t_seq, t_costs, *_) = tree[-1]
    (f_loop, f_seq, f_costs, *_) = fast[-1]
    assert f_loop == t_loop
    assert f_costs[:-1] == t_costs[:-1]
    skew = abs(f_ops - t_ops)
    assert skew < 1_000, "abort points wildly diverged"
    assert abs(f_seq - t_seq) <= skew


def test_fused_run_budget_abort_mid_loop():
    """The three aspects share one op counter, so a fused run aborts
    where each single-aspect run does and every ``finally`` fill-back
    delivers the same partial state; against the oracle the usual
    batch-charging skew applies (structure equal, totals within it)."""
    prog, inputs = _program("mdg")
    plan, skip = _plan("mdg"), reduction_stmt_ids(prog)
    label, fused = _observed(prog, inputs, plan, ASPECTS, "transpiled",
                             skip, max_ops=20_000)
    assert label == "transpiled/profile+dyndep+cost"
    for aspect in ASPECTS:
        _, single = _observed(prog, inputs, plan, (aspect,), "transpiled",
                              skip, max_ops=20_000)
        assert single == {k: fused[k] for k in single}
    _, tree = _observed(prog, inputs, plan, ASPECTS, "tree", skip,
                        max_ops=20_000)
    skew = abs(fused["ops"] - tree["ops"])
    assert skew < 1_000, "abort points wildly diverged"
    assert [row[:1] + row[2:] for row in fused["profile"][0]] == \
        [row[:1] + row[2:] for row in tree["profile"][0]]
    carried, by_var, witnesses, sampled, _, invocations = fused["dyndep"]
    assert (carried, by_var, witnesses, invocations) == \
        tree["dyndep"][:3] + tree["dyndep"][5:]
    assert abs(sampled - tree["dyndep"][3]) <= skew
    assert len(tree["cost"][0]) > 1, "the budget must trip after regions"
    assert fused["cost"][0][:-1] == tree["cost"][0][:-1]
    assert fused["cost"][0][-1][0] == tree["cost"][0][-1][0]


# -- witness bookkeeping -------------------------------------------------------

MANY_READERS_SRC = """
      PROGRAM t
      DIMENSION a(40)
      a(1) = 1.0
      DO 10 i = 2, 40
        a(i) = a(i-1) + 1.0
        b1 = a(i-1) * 2.0
        b2 = a(i-1) * 3.0
        b3 = a(i-1) * 4.0
        b4 = a(i-1) * 5.0
10    CONTINUE
      PRINT *, a(40)
      END
"""


@pytest.mark.parametrize("engine", ["tree", "transpiled"])
def test_witnesses_dedupe_before_cap(engine):
    """A hot (writer, reader) pair repeating every iteration is ONE
    witness; the cap applies to *distinct* pairs, so later distinct
    readers still earn a slot instead of being crowded out."""
    prog = build_program(MANY_READERS_SRC)
    dd = analyze_dependences(prog, engine=engine)
    loop = prog.loop("t/10")
    pairs = dd.witnesses[loop.stmt_id]
    assert len(pairs) == 4                       # _MAX_WITNESSES
    assert len(set(pairs)) == 4                  # all distinct
    # 5 distinct reader lines exist; the first four in program order win
    reader_lines = [r for _, r in pairs]
    assert reader_lines == sorted(reader_lines)
    # far more dependences than witnesses: the census kept counting
    assert dd.carried[loop.stmt_id] > 4


def test_witness_pairs_identical_across_engines():
    prog = build_program(MANY_READERS_SRC)
    tree = analyze_dependences(prog, engine="tree")
    fast = analyze_dependences(prog, engine="transpiled")
    assert fast.witnesses == tree.witnesses


# -- fallback to the tree oracle ----------------------------------------------

def _run_dyndep(prog, inputs, analyzer=None, engine="transpiled"):
    d = analyzer or DynamicDependenceAnalyzer()
    eng = make_engine(prog, inputs, engine=engine)
    d.attach(eng)
    eng.run()
    return d, eng


def _execute_spans(tracer):
    return [s["tags"] for s in tracer.to_dicts() if s["name"] == "execute"]


def test_extra_observers_fall_back_and_agree():
    """Profiler + dyndep attached together are two aspects of one
    generated module — no fallback, and the pair matches the oracle
    pair.  ``multiple-observers`` now means only what the generator
    really cannot express: two observers of one type (both accumulate
    through the oracle's protocol, reading live op counts through the
    engine they are attached to).  A stale observer in an otherwise
    valid set still names itself."""
    from repro.obs import Tracer, activate
    prog, inputs = _program("mgrid")

    def run(observers, engine="transpiled"):
        eng = make_engine(prog, inputs, engine=engine)
        for obs in observers:
            obs.attach(eng)
        tracer = Tracer()
        with activate(tracer):
            eng.run()
        for obs in observers:
            obs.finish()
        return eng, _execute_spans(tracer)[0]

    p, d = LoopProfiler(), DynamicDependenceAnalyzer()
    eng, span = run([p, d])
    assert engine_label(eng) == "transpiled/profile+dyndep"
    assert eng.fallback is None and "fallback" not in span
    assert span["variant"] == "profile+dyndep"
    tp, td = LoopProfiler(), DynamicDependenceAnalyzer()
    teng, _ = run([tp, td], engine="tree")
    assert _profile_state(p) == _profile_state(tp)
    assert _dyndep_state(d) == _dyndep_state(td)
    assert eng.ops == teng.ops and eng.outputs == teng.outputs

    twins = [LoopProfiler(), LoopProfiler()]
    eng, span = run(twins)
    assert engine_label(eng) == "tree"
    assert eng.fallback == span["fallback"] == "multiple-observers"
    assert _profile_state(twins[0]) == _profile_state(twins[1]) == \
        _profile_state(tp)

    eng, span = run([p, DynamicDependenceAnalyzer()])    # p is used now
    assert engine_label(eng) == "tree"
    assert eng.fallback == span["fallback"] == "stale-observer"


def test_stale_analyzer_falls_back_to_generic_path():
    """A dyndep analyzer carrying state from an earlier run must NOT be
    generated in (the fill-back would double-count); the engine keeps
    the observer protocol and the analyzer accumulates as on the
    oracle."""
    prog, inputs = _program("hydro2d")
    d, eng1 = _run_dyndep(prog, inputs)
    assert engine_label(eng1) == "transpiled/dyndep"
    assert eng1.fallback is None
    once = _dyndep_state(d)
    d2, eng2 = _run_dyndep(prog, inputs, analyzer=d)   # reuse, now dirty
    assert engine_label(eng2) == "tree"
    assert eng2.fallback == "stale-observer"
    # oracle reference: one fresh run + one accumulating rerun
    ref = DynamicDependenceAnalyzer()
    for _ in range(2):
        _run_dyndep(prog, inputs, analyzer=ref, engine="tree")
    assert _dyndep_state(d2) == _dyndep_state(ref)
    assert d2.sampled_accesses == 2 * once[3]


@pytest.mark.parametrize("name", ["mgrid", "su2cor", "appbt"])
def test_used_analyzer_accumulates_the_same_after_either_engine(name):
    """The generated run does not hand its shadow memory back as the
    oracle's ``_last_write``: once a run has completed every loop
    invocation in it is over and ``_invocations`` carries on, so no
    write snapshot can match a later run's activations.  Hence a used
    analyzer is still caught as stale (by its counters) and ends a
    second run in the same state whether its first run was generated or
    the oracle's.  (Completed first runs only: after a budget abort the
    oracle keeps its ``_stack`` and a generated run never handed that
    over.)"""
    prog, inputs = _program(name)
    skip = reduction_stmt_ids(prog)
    states = {}
    for first in ("tree", "transpiled"):
        d = DynamicDependenceAnalyzer(skip)
        _, eng = _run_dyndep(prog, inputs, analyzer=d, engine=first)
        assert bool(d._last_write) == (first == "tree")
        _, eng = _run_dyndep(prog, inputs, analyzer=d)
        assert engine_label(eng) == "tree"
        assert eng.fallback == "stale-observer"
        states[first] = _dyndep_state(d)
    assert states["transpiled"] == states["tree"]


def test_oracle_first_analyzer_is_stale_by_its_last_write_alone():
    prog, inputs = _program("ora")
    d = DynamicDependenceAnalyzer()
    d._last_write[(0, 0)] = ((), 0)
    _, eng = _run_dyndep(prog, inputs, analyzer=d)
    assert eng.fallback == "stale-observer"


def test_stale_profiler_reports_tree_and_reason():
    """What ran, and why, is readable from the trace alone: the
    instrumented run's ``engine_variant`` and its execute span's
    ``fallback`` tag."""
    from repro.obs import Tracer, activate
    prog, inputs = _program("ora")
    prof = profile_program(prog, inputs)
    assert engine_label(prof.interpreter) == "transpiled/profile"
    tracer = Tracer()
    with activate(tracer):
        eng = make_engine(prog, inputs)
        prof.attach(eng)                       # second run, now dirty
        eng.run()
    assert engine_label(eng) == "tree"
    assert _execute_spans(tracer)[0]["fallback"] == "stale-observer"
    ref = LoopProfiler()
    for _ in range(2):
        teng = make_engine(prog, inputs, engine="tree")
        ref.attach(teng)
        teng.run()
    assert [(p.loop.stmt_id, p.total_ops, p.invocations, p.iterations)
            for p in prof.executed_loops()] == \
           [(p.loop.stmt_id, p.total_ops, p.invocations, p.iterations)
            for p in ref.executed_loops()]


def test_subclassed_observer_falls_back():
    """A subclass may override behaviour, so only the exact analyzer
    types are generated in."""
    class Sub(LoopProfiler):
        pass

    prog, inputs = _program("ora")
    prof = Sub()
    eng = make_engine(prog, inputs, engine="transpiled")
    prof.attach(eng)
    eng.run()
    prof.finish()
    assert engine_label(eng) == "tree"
    assert eng.fallback == "observer-type"
    assert _profile_state(prof) == \
        _profile_state(profile_program(prog, inputs, engine="tree"))


def test_unsupported_program_falls_back_with_reason(monkeypatch):
    from repro.obs import Tracer, activate

    def refuse(*args, **kwargs):
        raise transpile.TranspileUnsupported("cannot transpile this")

    monkeypatch.setattr(transpile, "load_module", refuse)
    prog, inputs = _program("ora")
    tracer = Tracer()
    with activate(tracer):
        eng = run_program(prog, inputs, engine="transpiled")
    assert engine_label(eng) == "tree"
    assert eng.fallback == "unsupported:cannot transpile this"
    assert _execute_spans(tracer) == [
        {"engine": "tree", "program": prog.name, "ops": eng.ops,
         "observers": 0, "fallback": "unsupported:cannot transpile this"}]
    assert eng.outputs == run_program(prog, inputs, engine="tree").outputs


def test_unknown_engine_is_a_value_error():
    prog, inputs = _program("ora")
    for name in ("compiled", "oracle", ""):
        with pytest.raises(ValueError) as exc_info:
            run_program(prog, inputs, engine=name)
        assert "('transpiled', 'tree')" in str(exc_info.value)


# -- codegen caching ----------------------------------------------------------

def test_compile_program_memoizes_on_source_hash():
    set_codegen_store(None)      # isolate from scheduler-installed stores
    reset_codegen_cache()
    prog, _ = _program("ora")
    before = codegen_cache_stats()
    run1 = compile_program(prog)
    mid = codegen_cache_stats()
    assert mid["miss"] == before["miss"] + 1
    run2 = compile_program(prog)
    after = codegen_cache_stats()
    assert run2 is run1, "repeat compile must return the memoized module"
    assert after["hit"] == mid["hit"] + 1
    assert after["miss"] == mid["miss"]
    # a structurally identical rebuild (same source hash) also hits
    w = ALL["ora"]
    rebuilt = build_program(w.source, w.name)
    assert compile_program(rebuilt) is run1


def test_memo_is_bounded_and_serves_a_session_rerun():
    """The in-process memo holds one session's worth of modules: it
    never grows past its cap, and re-running a program after
    ``apply_assertions`` (a new plan over the same source) generates
    one more module, the ``cost`` aspect alone — the plan's parallel set
    is a run-time argument of it, not part of its key, so a second
    re-plan would hit."""
    from repro.explorer.session import ExplorerSession
    set_codegen_store(None)
    reset_codegen_cache()
    for name in CORPUS[:6]:
        prog, inputs = _program(name)
        for variant in (transpile.VARIANT_PLAIN, transpile.VARIANT_PROFILE,
                        transpile.VARIANT_COST):
            load_module(prog, variant)
            assert len(transpile._memo) <= transpile._MEMO_CAP
    assert len(transpile._memo) == transpile._MEMO_CAP

    reset_codegen_cache()
    w = ALL["mdg"]
    session = ExplorerSession(w.build(), inputs=w.inputs)
    session.run_automatic()
    first = codegen_cache_stats()
    assert first == {"hit": 0, "miss": 1}
    fused = "transpiled/profile+dyndep+cost"
    assert session.engine_labels == {
        "profile": fused, "dyndep": fused, "parallel_exec": fused}
    before = len(session.plan.parallel_loops())
    session.apply_assertions(w.user_assertions)
    assert len(session.plan.parallel_loops()) > before
    assert codegen_cache_stats() == {"hit": 0, "miss": 2}
    assert session.engine_labels == {
        "profile": fused, "dyndep": fused,
        "parallel_exec": "transpiled/cost"}


@pytest.mark.parametrize("name", ["mdg", "hydro", "flo88"])
def test_replan_keeps_profile_and_dyndep_and_measures_cost_only(name):
    """Profile and dependences are functions of (program, inputs) alone:
    ``apply_assertions`` keeps the session's analyzers and runs the
    program once more for the new plan's regions only."""
    from repro.explorer.session import ExplorerSession
    from repro.obs import Tracer, activate
    w = ALL[name]
    session = ExplorerSession(w.build(), inputs=w.inputs)
    session.run_automatic()
    kept = (session.profiler, session.dyndep)
    tracer = Tracer()
    with activate(tracer):
        session.apply_assertions(w.user_assertions)
    assert (session.profiler, session.dyndep) == kept
    assert [(t["variant"], t["ops"]) for t in _execute_spans(tracer)] == \
        [("cost", session.profiler.total_ops)]
    spans = {sp["name"]: sp["tags"] for sp in tracer.to_dicts()}
    assert spans["instrument"]["aspects"] == "cost"
    assert spans["parallel_exec"]["engine_variant"] == "transpiled/cost"


@pytest.mark.parametrize("name", sorted(GOLDEN["assert_artifact_sha256"]))
def test_asserted_artifact_is_byte_identical_to_the_parents(name):
    """Every corpus workload with ``user_assertions``: the job that
    fuses the first run and re-measures ``{cost}`` after the assertions
    answers with the bytes the three-runs-twice parent did."""
    from repro.service.artifacts import canonical_json
    from repro.service.jobs import AnalysisRequest, execute_request
    assert sorted(n for n in ALL if ALL[n].user_assertions) == \
        sorted(GOLDEN["assert_artifact_sha256"])
    artifact = execute_request(AnalysisRequest(
        name, options={"slice": ["targets"], "assertions": True}))
    assert hashlib.sha256(canonical_json(artifact).encode()).hexdigest() \
        == GOLDEN["assert_artifact_sha256"][name]


def test_persistent_store_serves_generated_source(tmp_path):
    """With an ArtifactStore installed, a cold process (simulated by
    dropping the in-process memo) re-uses the stored source instead of
    re-running codegen."""
    from repro.service.artifacts import ArtifactStore
    prog, inputs = _program("ora")
    oracle = run_program(prog, inputs, engine="tree")
    set_codegen_store(ArtifactStore(str(tmp_path)))
    try:
        reset_codegen_cache()
        mod = load_module(prog)
        assert codegen_cache_stats() == {"hit": 0, "miss": 1}
        reset_codegen_cache()                  # "new process", store warm
        warm = load_module(prog)
        assert codegen_cache_stats() == {"hit": 1, "miss": 0}
        assert warm.source == mod.source
        assert warm.namespace["run"](list(inputs)) == \
            pytest.approx([float(v) for v in oracle.outputs])
    finally:
        set_codegen_store(None)
        reset_codegen_cache()


def test_engine_tags_codegen_span_with_cache_state():
    from repro.obs import Tracer, activate
    prog, inputs = _program("ora")
    set_codegen_store(None)      # isolate from scheduler-installed stores
    reset_codegen_cache()
    tracer = Tracer()
    with activate(tracer):
        run_program(prog, inputs, engine="transpiled")
        run_program(prog, inputs, engine="transpiled")
    spans = [s for s in tracer.to_dicts() if s["name"] == "codegen"]
    assert [s["tags"]["cached"] for s in spans] == [False, True]
    assert {s["tags"]["engine"] for s in spans} == {"transpiled"}


# -- generated-module hygiene -------------------------------------------------

HYGIENE_SRC = """
      PROGRAM run
      COMMON /cm/ out(4), idiv
      DIMENSION inputs(3)
      idiv = 9.0
      DO 10 mo = 1, 3
        inputs(mo) = mo * 1.5
10    CONTINUE
      CALL pop(inputs, 3)
      s = inputs(2) + out(1) + idiv / 2.0
      PRINT *, s, out(1), idiv
      END
      SUBROUTINE pop(wr, n)
      DIMENSION wr(*)
      COMMON /cm/ out(4), idiv
      DO 20 rd = 1, n
        wr(rd) = wr(rd) + 1.0
        out(1) = out(1) + wr(rd)
20    CONTINUE
      END
"""


def test_user_names_cannot_capture_preamble_helpers():
    """A program whose identifiers echo the generated module's helper
    names (``run``, ``cm``, ``out``, ``inputs``, ``idiv``, ``pop``,
    ``wr``, ``s``, ``mo``) must transpile, run, and agree with the
    oracle — name mangling keeps user symbols and helpers disjoint."""
    prog = build_program(HYGIENE_SRC, "hygiene")
    src = transpile_to_python(prog)
    # the helpers survive under their reserved (underscored) names
    for helper in ("_idiv(", "_Stop", "_cm", "_out", "_in"):
        assert helper in src, f"preamble helper {helper!r} missing"
    # no generated name collides with a helper: user symbols are
    # prefix-mangled (v_/a_/p_/_c_), so plain helper names never rebind
    for banned in ("\nidiv =", "\nout =", "\ncm =", "\nrun ="):
        assert banned not in src
    tree = run_program(prog, engine="tree")
    trans = run_program(prog, engine="transpiled")
    assert engine_label(trans) == "transpiled/plain"
    assert trans.outputs == tree.outputs
    assert trans.ops == tree.ops
    for cname, buf in tree.commons.items():
        assert np.array_equal(trans.commons[cname].data, buf.data)
