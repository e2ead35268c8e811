"""Interpreter semantics: Fortran storage, control flow, calls, I/O."""

import pytest

from repro.ir import build_program
from repro.runtime import Interpreter, RuntimeErrorInProgram, run_program


def outputs(src, inputs=()):
    return run_program(build_program(src), inputs).outputs


def test_arithmetic_and_print():
    assert outputs("""
      PROGRAM t
      x = 2.0 + 3.0 * 4.0
      PRINT *, x
      END
""") == [14.0]


def test_do_loop_semantics():
    out = outputs("""
      PROGRAM t
      s = 0.0
      DO 10 i = 1, 5
        s = s + i
10    CONTINUE
      PRINT *, s, i
      END
""")
    assert out == [15.0, 6]        # index is hi+step after a DO loop


def test_zero_trip_loop():
    assert outputs("""
      PROGRAM t
      s = 1.0
      DO 10 i = 5, 1
        s = 99.0
10    CONTINUE
      PRINT *, s
      END
""") == [1.0]


def test_negative_step():
    assert outputs("""
      PROGRAM t
      s = 0.0
      DO 10 i = 10, 2, -2
        s = s + i
10    CONTINUE
      PRINT *, s
      END
""") == [30.0]


def test_cycle_via_goto():
    assert outputs("""
      PROGRAM t
      s = 0.0
      DO 10 i = 1, 6
        IF (mod(i, 2) .EQ. 0) GO TO 10
        s = s + i
10    CONTINUE
      PRINT *, s
      END
""") == [9.0]


def test_goto_outer_loop_cycle():
    assert outputs("""
      PROGRAM t
      s = 0.0
      DO 20 i = 1, 3
        DO 10 j = 1, 3
          IF (j .EQ. 2) GO TO 20
          s = s + 1.0
10      CONTINUE
        s = s + 100.0
20    CONTINUE
      PRINT *, s
      END
""") == [3.0]       # the +100 is always skipped


def test_forward_goto_guard():
    assert outputs("""
      PROGRAM t
      s = 0.0
      DO 30 i = 1, 4
        IF (i .GT. 2) GO TO 25
        s = s + 10.0
25      s = s + 1.0
30    CONTINUE
      PRINT *, s
      END
""") == [24.0]


def test_common_block_shared_across_procs():
    assert outputs("""
      PROGRAM t
      COMMON /b/ x(5), total
      DO 10 i = 1, 5
        x(i) = i * 1.0
10    CONTINUE
      CALL sumup
      PRINT *, total
      END
      SUBROUTINE sumup
      COMMON /b/ x(5), total
      total = 0.0
      DO 20 i = 1, 5
        total = total + x(i)
20    CONTINUE
      END
""") == [15.0]


def test_common_aliasing_between_views():
    """Differently-shaped views see the same storage (hydro2d)."""
    assert outputs("""
      PROGRAM t
      COMMON /v/ a(4)
      CALL w2
      PRINT *, a(1), a(2)
      END
      SUBROUTINE w2
      COMMON /v/ b(2,2)
      b(1,1) = 7.0
      b(2,1) = 8.0
      END
""") == [7.0, 8.0]


def test_scalar_copy_in_copy_out():
    assert outputs("""
      PROGRAM t
      n = 5
      CALL bump(n)
      PRINT *, n
      END
      SUBROUTINE bump(m)
      m = m + 1
      END
""") == [6]
    # a COMMON scalar actual: the copy-out lands in the COMMON cell
    assert outputs("""
      PROGRAM t
      COMMON /c/ x
      x = 5.0
      CALL s(x)
      PRINT *, x
      END
      SUBROUTINE s(y)
      y = y + 1.0
      END
""") == [6.0]


def test_array_passed_by_reference():
    assert outputs("""
      PROGRAM t
      DIMENSION a(5)
      CALL fill2(a, 5)
      PRINT *, a(1), a(5)
      END
      SUBROUTINE fill2(q, n)
      DIMENSION q(*)
      DO 10 j = 1, n
        q(j) = j * 2.0
10    CONTINUE
      END
""") == [2.0, 10.0]


def test_element_actual_sequence_association():
    """CALL f(a(3), n) passes the storage starting at a(3) (hydro)."""
    assert outputs("""
      PROGRAM t
      DIMENSION a(10)
      DO 5 i = 1, 10
        a(i) = 0.0
5     CONTINUE
      CALL fill2(a(3), 4)
      PRINT *, a(2), a(3), a(6), a(7)
      END
      SUBROUTINE fill2(q, n)
      DIMENSION q(*)
      DO 10 j = 1, n
        q(j) = j * 1.0
10    CONTINUE
      END
""") == [0.0, 1.0, 4.0, 0.0]


def test_column_major_layout():
    assert outputs("""
      PROGRAM t
      DIMENSION a(3,3)
      CALL setflat(a)
      PRINT *, a(2,1), a(1,2)
      END
      SUBROUTINE setflat(q)
      DIMENSION q(9)
      DO 10 j = 1, 9
        q(j) = j * 1.0
10    CONTINUE
      END
""") == [2.0, 4.0]     # column-major: a(2,1)=flat 2, a(1,2)=flat 4


def test_lower_bound_dimensions():
    assert outputs("""
      PROGRAM t
      DIMENSION a(0:4)
      a(0) = 7.0
      a(4) = 9.0
      PRINT *, a(0), a(4)
      END
""") == [7.0, 9.0]


def test_read_consumes_inputs():
    assert outputs("""
      PROGRAM t
      READ *, n
      READ *, x
      PRINT *, n * 2, x + 0.5
      END
""", inputs=[21.0, 1.25]) == [42, 1.75]


def test_read_past_end_raises():
    with pytest.raises(RuntimeErrorInProgram):
        outputs("      PROGRAM t\n      READ *, n\n      END\n")


def test_integer_division_truncates():
    assert outputs("""
      PROGRAM t
      INTEGER a, b
      a = 7
      b = -7
      PRINT *, a / 2, b / 2
      END
""") == [3, -3]


def test_intrinsics():
    out = outputs("""
      PROGRAM t
      PRINT *, min(3.0, 1.0), max(3, 5), abs(-2.5), mod(10, 3)
      PRINT *, sqrt(16.0)
      END
""")
    assert out == [1.0, 5, 2.5, 1, 4.0]


def test_stop_halts():
    assert outputs("""
      PROGRAM t
      PRINT *, 1.0
      STOP
      PRINT *, 2.0
      END
""") == [1.0]


def test_return_from_subroutine():
    assert outputs("""
      PROGRAM t
      n = 1
      CALL f(n)
      PRINT *, n
      END
      SUBROUTINE f(m)
      m = 2
      RETURN
      m = 3
      END
""") == [2]


def test_exit_statement():
    assert outputs("""
      PROGRAM t
      s = 0.0
      DO 10 i = 1, 100
        IF (i .GT. 3) EXIT
        s = s + i
10    CONTINUE
      PRINT *, s
      END
""") == [6.0]


def test_ops_budget_enforced():
    with pytest.raises(RuntimeErrorInProgram):
        run_program(build_program("""
      PROGRAM t
      DO 10 i = 1, 1000000
        x = i * 1.0
10    CONTINUE
      END
"""), max_ops=1000)


def test_determinism(simple_program):
    a = run_program(simple_program)
    b = run_program(simple_program)
    assert a.outputs == b.outputs
    assert a.ops == b.ops
