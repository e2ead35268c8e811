"""Property-based soundness fuzzing of the whole pipeline.

Random structured mini-Fortran programs are generated, then:

* they must build, execute, and simulate without errors,
* execution is deterministic,
* **parallelization soundness**: every loop the static parallelizer marks
  PARALLEL must show *zero* loop-carried flow dependences when executed
  under the Dynamic Dependence Analyzer (with compiler-known reduction
  statements skipped, exactly as the Explorer runs it).  The dynamic
  analyzer observes real memory addresses, so any misclassification by
  the polyhedral analyses shows up here.

Scalars live in a COMMON block so the (buffer-based) dynamic analyzer
sees their traffic too.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import EveryLoopParallel, regions_state
from repro.ir import build_program
from repro.parallelize import Parallelizer
from repro.runtime import analyze_dependences, reduction_stmt_ids, \
    run_program
from repro.workloads.synth.emit import (Chooser, fuzz_program,
                                        reduction_merge_program)


class _DrawChooser(Chooser):
    """A Hypothesis-backed chooser: the grammar lives once in
    ``repro.workloads.synth.emit`` (shared with the seeded corpus
    factory, so fuzzer and generator cannot drift apart); here every
    decision routes through ``draw``, which keeps shrinking — Hypothesis
    minimizes the draw sequence and replays it through the same rules."""

    def __init__(self, draw):
        self._draw = draw

    def choice(self, seq):
        return self._draw(st.sampled_from(list(seq)))

    def randint(self, lo, hi):
        return self._draw(st.integers(lo, hi))

    def boolean(self):
        return self._draw(st.booleans())


@st.composite
def programs(draw):
    return fuzz_program(_DrawChooser(draw))


@settings(max_examples=30, deadline=None)
@given(programs())
def test_pipeline_never_crashes_and_is_deterministic(source):
    prog = build_program(source, "fuzz")
    out1 = run_program(prog, max_ops=2_000_000).outputs
    out2 = run_program(build_program(source, "fuzz"),
                       max_ops=2_000_000).outputs
    assert out1 == out2
    Parallelizer(prog).plan()          # analyses must not crash


@settings(max_examples=30, deadline=None)
@given(programs())
def test_static_parallel_loops_have_no_dynamic_flow_deps(source):
    """The soundness oracle: statically-parallel => dynamically clean."""
    prog = build_program(source, "fuzz")
    plan = Parallelizer(prog).plan()
    parallel = plan.parallel_loops()
    if not parallel:
        return
    dd = analyze_dependences(prog,
                             skip_stmt_ids=reduction_stmt_ids(prog),
                             max_ops=2_000_000)
    for loop in parallel:
        assert not dd.has_carried_dependence(loop), (
            f"UNSOUND: {loop.name} marked parallel but the dynamic "
            f"analyzer observed a loop-carried flow dependence\n"
            f"witness lines: {dd.witnesses.get(loop.stmt_id)}\n"
            f"program:\n{source}")


@settings(max_examples=30, deadline=None)
@given(programs())
def test_interpreter_vs_transpiled_backend(source):
    """Differential semantics fuzzing: the tree-walking interpreter and
    the standalone transpiled-Python module (its self-contained ``run``,
    no engine around it) are independent implementations and must agree
    on every generated program."""
    from repro.runtime.transpile import compile_program
    prog = build_program(source, "fuzz")
    interp = run_program(prog, max_ops=2_000_000, engine="tree").outputs
    transpiled = compile_program(prog)([])
    assert transpiled == pytest.approx([float(v) for v in interp])


@settings(max_examples=20, deadline=None)
@given(programs())
def test_budget_exhaustion_is_identical_across_engines(source):
    """Budget-bounded differential case: with ``max_ops`` set below a
    program's total op count, both engines must fail with the
    *same* unified :class:`OpsBudgetExceeded` — identical type,
    identical message — never a partial result or a divergent error
    string."""
    from repro.runtime import OpsBudgetExceeded
    prog = build_program(source, "fuzz")
    total = run_program(prog, max_ops=2_000_000, engine="tree").ops
    budget = max(1, total // 2)
    messages = []
    for engine in ("tree", "transpiled"):
        with pytest.raises(OpsBudgetExceeded) as exc_info:
            run_program(prog, max_ops=budget, engine=engine)
        assert exc_info.value.max_ops == budget
        messages.append(str(exc_info.value))
    assert len(set(messages)) == 1
    assert messages[0] == \
        f"operation budget exceeded (max_ops={budget})"


def _assert_engine_parity(prog_a, prog_b, inputs=(),
                          max_ops=20_000_000, context=""):
    """Tree-walking oracle and the compiled (code-generating) engine
    must agree *exactly*: printed outputs, final COMMON-block buffer
    contents, and the op count (the contract is bit-identical
    accounting, not just matching answers) — and the generated code
    must actually have run (``transpiled/plain``, no tree fallback)."""
    import numpy as np
    from repro.runtime import engine_label
    tree = run_program(prog_a, inputs, max_ops=max_ops, engine="tree")
    comp = run_program(prog_b, inputs, max_ops=max_ops,
                       engine="transpiled")
    assert engine_label(comp) == "transpiled/plain", context
    # a NaN both engines computed is the same value (NaN != NaN)
    assert len(comp.outputs) == len(tree.outputs) and all(
        a == b or (a != a and b != b)
        for a, b in zip(comp.outputs, tree.outputs)), context
    assert comp.ops == tree.ops, (
        f"{context}: op-count drift tree={tree.ops} compiled={comp.ops}")
    assert set(comp.commons) == set(tree.commons), context
    for name, buf in tree.commons.items():
        assert np.array_equal(comp.commons[name].data, buf.data,
                              equal_nan=True), (
            f"{context}: COMMON /{name}/ contents differ")


#: A generated program whose ``s`` overflows to inf and then NaN: both
#: engines print NaN and must count as agreeing.
NAN_SRC = """
      PROGRAM fz
      COMMON /sc/ s, t
      DIMENSION a(40), b(40)
      DO 5 i = 1, 40
        a(i) = i * 0.5
        b(i) = 21.0 - i * 0.25
5     CONTINUE
      s = 1.0
      t = 2.0
      DO 100 i = 2, 12
        a(i+1) = s - a(i)
        DO 40 j = 2, 8
          s = s + s * a(i)
40      CONTINUE
100   CONTINUE
      PRINT *, a(3), b(5), s, t
      END
"""


@settings(max_examples=30, deadline=None)
@given(programs())
@example(NAN_SRC)
def test_transpiled_engine_matches_tree_oracle(source):
    """Differential fuzzing of the code-generating engine against the
    tree-walking reference: the generated Python (with its range-driven
    loops, merged op charges, precharged bodies, hoisting and
    store-forwarding) must reproduce outputs, COMMON memory, and op
    counts exactly — and report the ``transpiled/plain`` label."""
    prog = build_program(source, "fuzz")
    _assert_engine_parity(prog, prog, max_ops=2_000_000, context="fuzz")


@st.composite
def any_programs(draw):
    """The general grammar, or the reduction shapes (whose stores are
    the ``cost`` variant's only per-event code)."""
    chooser = _DrawChooser(draw)
    if draw(st.booleans()):
        return reduction_merge_program(chooser)
    return fuzz_program(chooser)


@settings(max_examples=30, deadline=None)
@given(any_programs())
def test_simulated_run_matches_tree_oracle(source):
    """Differential fuzzing of the ``cost`` variant: with every loop
    flagged parallel, the generated region accounting (batched access
    counts, buffer marks, iteration costs, reduction-store events) must
    equal the cost observer riding the oracle, region for region."""
    from repro.runtime import (ALPHASERVER_8400, ParallelExecutor,
                               engine_label)
    prog = build_program(source, "fuzz")
    runs = {engine: ParallelExecutor(prog, EveryLoopParallel(prog),
                                     ALPHASERVER_8400, max_ops=2_000_000,
                                     engine=engine).measure()
            for engine in ("tree", "transpiled")}
    assert engine_label(runs["transpiled"].interp) == "transpiled/cost"
    assert regions_state(runs["transpiled"]) == regions_state(runs["tree"])


@settings(max_examples=30, deadline=None)
@given(programs())
def test_engines_agree_and_are_unperturbed_under_tracing(source):
    """Differential fuzzing with the observability layer switched ON:
    activating a tracer must change neither engine's outputs, memory,
    or op counts (parity still holds), and must actually record the
    execution spans — tracing observes, never feeds back."""
    from repro.obs import Tracer, activate
    prog = build_program(source, "fuzz")
    # untraced baseline for both engines
    base_tree = run_program(prog, max_ops=2_000_000, engine="tree")
    tracer = Tracer()
    with activate(tracer):
        _assert_engine_parity(prog, prog, max_ops=2_000_000,
                              context="traced-fuzz")
        traced_tree = run_program(prog, max_ops=2_000_000, engine="tree")
    assert traced_tree.outputs == base_tree.outputs
    assert traced_tree.ops == base_tree.ops
    names = {s.name for s in tracer.finished_spans()}
    assert "execute" in names, "tracer recorded no engine spans"


@settings(max_examples=30, deadline=None)
@given(programs())
def test_instrumented_fast_path_matches_oracle_under_tracing(source):
    """Differential fuzzing of the *instrumented* variants with the
    observability layer switched ON: a lone fresh profiler / dyndep
    analyzer is generated into the code (``transpiled/profile``,
    ``transpiled/dyndep``), and its state must be bit-identical to the
    same observer riding the tree-walking oracle — profiles including
    first-touch order, carried-dependence census, witness pairs, and
    sampling counters — while the tracer records the
    ``instrument.profile`` / ``instrument.dyndep`` spans with the
    engine variant that actually ran."""
    from repro.obs import Tracer, activate
    from repro.runtime import profile_program
    prog = build_program(source, "fuzz")
    skip = reduction_stmt_ids(prog)
    tracer = Tracer()
    with activate(tracer):
        profs = {e: profile_program(prog, max_ops=2_000_000, engine=e)
                 for e in ("tree", "transpiled")}
        dds = {e: analyze_dependences(prog, skip_stmt_ids=skip,
                                      max_ops=2_000_000, engine=e)
               for e in ("tree", "transpiled")}
    tp, cp = profs["tree"], profs["transpiled"]
    assert cp.total_ops == tp.total_ops
    assert [(p.loop.stmt_id, p.total_ops, p.invocations, p.iterations)
            for p in cp.executed_loops()] == \
           [(p.loop.stmt_id, p.total_ops, p.invocations, p.iterations)
            for p in tp.executed_loops()]
    td, cd = dds["tree"], dds["transpiled"]
    assert cd.carried == td.carried
    assert cd.carried_by_var == td.carried_by_var
    assert cd.witnesses == td.witnesses
    assert cd.sampled_accesses == td.sampled_accesses
    assert cd.skipped_accesses == td.skipped_accesses
    spans = tracer.to_dicts()
    variants = {s["name"]: {s2["tags"].get("engine_variant")
                            for s2 in spans if s2["name"] == s["name"]}
                for s in spans}
    assert variants.get("instrument.profile") == \
        {"tree", "transpiled/profile"}
    assert variants.get("instrument.dyndep") == \
        {"tree", "transpiled/dyndep"}


def _corpus_names():
    from repro.workloads import corpus
    return sorted(corpus.ALL)


@pytest.mark.parametrize("name", _corpus_names())
def test_compiled_engine_parity_on_corpus(name):
    """Every workload in the registry runs bit-identically under both
    engines, from two independently built programs — the whole-corpus
    safety net behind the ``engine=`` default flip."""
    from repro.workloads import corpus
    w = corpus.get(name)
    _assert_engine_parity(w.build(), w.build(), inputs=w.inputs,
                          context=name)



# -- reductions combined in another order -------------------------------------

@st.composite
def reduction_programs(draw):
    """See :func:`repro.workloads.synth.emit.reduction_merge_program`
    — reduction shapes whose combination order matters to the last bit,
    drawn through Hypothesis for shrinking."""
    return reduction_merge_program(_DrawChooser(draw))


@settings(max_examples=30, deadline=None)
@given(reduction_programs())
def test_parallel_reduction_merge_matches_sequential(source):
    """Differential fuzzing of reduction plans: for any generated
    reduction shape, the plan oracle (every parallel region reversed,
    so reductions accumulate in another order) finds no conflict or
    poisoned read and reproduces the sequential outputs within relative
    1e-9 and its ops."""
    from repro.runtime.plan_oracle import check_plan
    prog = build_program(source, "fzr")
    plan = Parallelizer(prog).plan()
    check = check_plan(prog, plan, max_ops=2_000_000)
    assert not check.conflicts, check.conflicts[:8]
    assert check.poisoned_reads == 0, check.poisoned_reads
    assert check.outputs_equal, "outputs"
    assert check.ops_equal, "ops"
