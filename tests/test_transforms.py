"""Transforms: directives, reduction lowering, contraction, splitting."""

import pytest

from repro.ir import build_program
from repro.parallelize import (Assertion, Parallelizer, annotate_source,
                               contract_in_program, find_splittable_blocks,
                               loop_directives, lower_array_reduction,
                               lower_scalar_reduction, split_common_blocks,
                               split_pass)
from repro.runtime import run_program


def test_directives_for_parallel_loop():
    prog = build_program("""
      PROGRAM t
      DIMENSION a(50), w(5)
      s = 0.0
      DO 10 i = 1, 50
        w(1) = i * 1.0
        a(i) = w(1) * 2.0
        s = s + a(i)
10    CONTINUE
      PRINT *, s
      END
""")
    plan = Parallelizer(prog).plan()
    lines = loop_directives(plan.plan_by_name("t/10"))
    assert lines and lines[0].startswith("C$PAR PARALLEL DO")
    assert "PRIVATE(" in lines[0]
    assert "REDUCTION(+: s)" in lines[0]


def test_annotate_source_places_directive_above_loop():
    prog = build_program("""
      PROGRAM t
      DIMENSION a(50)
      DO 10 i = 1, 50
        a(i) = i * 1.0
10    CONTINUE
      END
""")
    plan = Parallelizer(prog).plan()
    text = annotate_source(prog, plan)
    lines = text.splitlines()
    idx = next(k for k, l in enumerate(lines) if "PARALLEL DO" in l)
    assert "DO 10" in lines[idx + 1]


def test_reduction_lowering_texts():
    scalar = lower_scalar_reduction("s", "+")
    assert "priv_s" in scalar and "lock()" in scalar
    for strat in ("naive", "minimized", "staggered", "atomic"):
        text = lower_array_reduction("b", "+", strategy=strat)
        assert "priv_b" in text or strat == "atomic"
    assert "LOCK(ind[i])" in lower_array_reduction("fox", "+",
                                                   strategy="atomic")


CONTRACT_SRC = """
      PROGRAM t
      DIMENSION d(40,40), w(40,40)
      INTEGER n
      n = 30
      DO 50 j = 2, n
        d(1,j) = 0.0
        DO 30 i = 2, n
          d(i,j) = d(i-1,j) * 0.5 + w(i,j)
30      CONTINUE
        DO 40 i = 2, n
          w(i,j) = w(i,j) + d(i,j) * 0.25
40      CONTINUE
50    CONTINUE
      PRINT *, w(3,3)
      END
"""


def test_contraction_drops_dimension_and_preserves_semantics():
    prog = build_program(CONTRACT_SRC)
    before = run_program(prog).outputs

    prog2 = build_program(CONTRACT_SRC)
    result = contract_in_program(prog2)
    contracted = {(p, v) for p, v, _ in result.contracted}
    assert ("t", "d") in contracted
    dsym = prog2.procedure("t").symbols.lookup("d")
    assert dsym.rank == 1                       # d(i,j) -> d(i)
    after = run_program(prog2).outputs
    assert after == pytest.approx(before)


def test_contraction_requires_deadness():
    src = CONTRACT_SRC.replace("PRINT *, w(3,3)", "PRINT *, d(3,3)")
    prog = build_program(src)
    result = contract_in_program(prog)
    assert ("t", "d") not in {(p, v) for p, v, _ in result.contracted}


def test_contraction_to_scalar_iterates():
    prog = build_program("""
      PROGRAM t
      DIMENSION tt(40,40), w(40,40)
      INTEGER n
      n = 30
      DO 50 j = 2, n
        DO 30 i = 2, n
          tt(i,j) = w(i,j) * 0.5
          w(i,j) = tt(i,j) + 1.0
30      CONTINUE
50    CONTINUE
      PRINT *, w(3,3)
      END
""")
    before = run_program(prog).outputs
    result = contract_in_program(prog)
    sym = prog.procedure("t").symbols.lookup("tt")
    assert sym.rank == 0                        # fully scalarized
    assert run_program(prog).outputs == pytest.approx(before)


def test_contraction_shrinks_allocation():
    prog = build_program(CONTRACT_SRC)
    contract_in_program(prog)
    interp = run_program(prog)
    # frame buffer for d must now be 1-D (40 elements)
    dsym = prog.procedure("t").symbols.lookup("d")
    assert dsym.constant_size() == 40

def test_transformed_program_is_never_served_a_cached_module():
    """Transforms rewrite the IR in place and leave ``source_text``
    alone, so the transpiled engine's source-hash module cache must not
    serve the pre-transform module to the post-transform program: the
    simulated run after contraction has to see the smaller footprint."""
    from repro.runtime import ALPHASERVER_8400, ParallelExecutor
    from repro.runtime.transpile import reset_codegen_cache

    def footprint(prog, engine):
        plan = Parallelizer(prog).plan()
        ex = ParallelExecutor(prog, plan, ALPHASERVER_8400, engine=engine)
        ex.measure()
        assert ex.interp.label == ("tree" if engine == "tree"
                                   else "transpiled/cost")
        return ([sorted(r.buffers.items()) for r in ex.regions],
                ex.interp.ops)

    reset_codegen_cache()
    prog = build_program(CONTRACT_SRC)
    before = footprint(prog, "transpiled")     # module now memoized
    contract_in_program(prog)
    assert prog.transformed
    after = footprint(prog, "transpiled")
    assert after != before
    assert after == footprint(prog, "tree")


# -- common-block splitting -------------------------------------------------------

def test_split_pass_on_hydro2d_preserves_output():
    from repro.workloads import get
    w = get("hydro2d")
    base = run_program(w.build(), w.inputs).outputs
    prog = w.build()
    report = split_pass(prog)
    assert report.total_splits() >= 2
    assert "varn" not in report.split_blocks
    after = run_program(prog, w.inputs).outputs
    assert after == pytest.approx(base)


def test_split_blocks_create_separate_storage():
    from repro.workloads import get
    prog = get("hydro2d").build()
    report = split_pass(prog)
    assert all(b not in prog.commons for b in report.split_blocks)
    # each split block yields >= 2 successor blocks
    for b in report.split_blocks:
        succ = [n for n in prog.commons if n.startswith(b + "_")]
        assert len(succ) >= 2


def test_negative_case_has_cross_flow():
    from repro.workloads import get
    prog = get("hydro2d").build()
    report = find_splittable_blocks(prog)
    assert "varn" not in report.splittable_pairs
