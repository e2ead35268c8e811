"""The Python backend: unit behaviours + differential testing against the
interpreter (a second, independent implementation of the semantics)."""

import time

import pytest
from hypothesis import given, settings

from repro.ir import build_program
from repro.runtime import run_program
from repro.runtime.transpile import compile_program, transpile_to_python


def both(src, inputs=()):
    prog = build_program(src)
    interp = run_program(prog, inputs, engine="tree").outputs
    comp = compile_program(prog)(inputs)
    return interp, comp


def test_arithmetic_and_control():
    interp, comp = both("""
      PROGRAM t
      s = 0.0
      DO 10 i = 1, 7, 2
        IF (i .GT. 3) THEN
          s = s + i * 2
        ELSE
          s = s - i
        ENDIF
10    CONTINUE
      PRINT *, s, i
      END
""")
    assert interp == comp


def test_goto_cycle_semantics():
    interp, comp = both("""
      PROGRAM t
      s = 0.0
      DO 20 i = 1, 4
        DO 10 j = 1, 4
          IF (j .EQ. 3) GO TO 20
          s = s + 1.0
10      CONTINUE
        s = s + 100.0
20    CONTINUE
      PRINT *, s
      END
""")
    assert interp == comp


def test_common_aliasing_and_element_actuals():
    interp, comp = both("""
      PROGRAM t
      COMMON /b/ x(6), y
      CALL fill(x(3), 2)
      y = x(4)
      PRINT *, x(3), y
      END
      SUBROUTINE fill(q, n)
      DIMENSION q(*)
      DO 10 j = 1, n
        q(j) = j * 10.0
10    CONTINUE
      END
""")
    assert interp == comp


def test_integer_division_matches():
    interp, comp = both("""
      PROGRAM t
      INTEGER a, b
      a = -9
      b = 2
      PRINT *, a / b, 9 / 2
      END
""")
    assert interp == comp == [-4, 4]


def test_stop_and_return():
    interp, comp = both("""
      PROGRAM t
      CALL f
      PRINT *, 1.0
      STOP
      PRINT *, 2.0
      END
      SUBROUTINE f
      RETURN
      END
""")
    assert interp == comp == [1.0]


def test_reads():
    interp, comp = both("""
      PROGRAM t
      DIMENSION a(5)
      READ *, n
      READ *, a(2)
      PRINT *, n, a(2)
      END
""", inputs=[3.0, 7.5])
    assert interp == comp


def test_transpiled_source_is_plain_python(simple_program):
    src = transpile_to_python(simple_program)
    compile(src, "<t>", "exec")               # syntactically valid
    assert "def run(" in src
    assert "numpy" not in src                 # self-contained


@pytest.mark.parametrize("name", [
    "mdg", "hydro", "hydro2d", "wave5", "bdna", "ora", "doduc", "embar",
    "cgm", "trfd", "qcd", "track", "dyfesm", "spec77", "tomcatv", "ear",
    "su2cor", "swm256", "mdljdp2", "nasa7", "mgrid", "ocean", "adm",
    "appbt",
])
def test_workloads_transpile_equivalently(name):
    """Differential test: on every corpus program the standalone
    generated module and the tree interpreter agree exactly."""
    from repro.workloads import get
    w = get(name)
    prog = w.build()
    interp = run_program(prog, w.inputs, engine="tree").outputs
    comp = compile_program(prog)(w.inputs)
    assert comp == pytest.approx(interp)


def test_transpiled_engine_is_20x_the_tree_engine_on_mdg():
    """The transpiled engine's contract: at least 20x the tree engine's
    ops/s on mdg, each engine timed best-of-3 in this process (rounds
    interleaved).  The first transpiled run may generate the module;
    later ones hit the codegen memo, as a warm service does."""
    from repro.workloads import get
    w = get("mdg")
    prog = w.build()
    best = {"tree": float("inf"), "transpiled": float("inf")}
    ops = {}
    for _ in range(3):
        for engine in best:
            t0 = time.perf_counter()
            ops[engine] = run_program(prog, w.inputs, engine=engine).ops
            best[engine] = min(best[engine], time.perf_counter() - t0)
    assert ops["tree"] == ops["transpiled"]
    speedup = best["tree"] / best["transpiled"]
    assert speedup >= 20.0, f"transpiled/tree {speedup:.1f}x on mdg"
