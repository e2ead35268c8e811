"""Parser behaviour: units, declarations, loops (both forms), IFs, GOTOs."""

import pytest

from repro.lang import ast_nodes as ast
from repro.lang.errors import ParseError
from repro.lang.parser import parse_source


def parse_main(body, decls=""):
    return parse_source(
        f"      PROGRAM t\n{decls}{body}      END\n").units[0]


def test_program_and_subroutine_units():
    tree = parse_source("""
      PROGRAM main
      x = 1.0
      END

      SUBROUTINE foo(a, n)
      a = n
      END
""")
    assert [u.kind for u in tree.units] == ["program", "subroutine"]
    assert tree.units[1].params == ["a", "n"]


def test_label_terminated_do():
    unit = parse_main("""      DO 10 i = 1, n
        x = x + 1.0
10    CONTINUE
""")
    loop = unit.body[0]
    assert isinstance(loop, ast.DoLoop)
    assert loop.term_label == 10
    assert isinstance(loop.body[-1], ast.Continue)


def test_enddo_form():
    unit = parse_main("""      DO i = 1, 10
        x = i
      END DO
""")
    loop = unit.body[0]
    assert isinstance(loop, ast.DoLoop)
    assert loop.term_label is None


def test_shared_terminator_nested_loops():
    unit = parse_main("""      DO 30 i = 1, n
        DO 30 j = 1, m
          x = i + j
30    CONTINUE
""")
    outer = unit.body[0]
    assert isinstance(outer, ast.DoLoop)
    inner = outer.body[0]
    assert isinstance(inner, ast.DoLoop)
    assert inner.term_label == 30
    assert outer.term_label == 30


def test_do_with_step():
    unit = parse_main("""      DO 40 i = 10, 2, -2
        x = i
40    CONTINUE
""")
    assert unit.body[0].step is not None


def test_block_if_elseif_else():
    unit = parse_main("""      IF (x .GT. 1.0) THEN
        y = 1.0
      ELSE IF (x .GT. 0.0) THEN
        y = 2.0
      ELSE
        y = 3.0
      ENDIF
""")
    node = unit.body[0]
    assert isinstance(node, ast.IfBlock)
    assert len(node.arms) == 2
    assert node.else_body is not None


def test_logical_if():
    unit = parse_main("      IF (k .EQ. 0) GO TO 10\n10    CONTINUE\n")
    node = unit.body[0]
    assert isinstance(node, ast.LogicalIf)
    assert isinstance(node.stmt, ast.Goto)


def test_declarations():
    unit = parse_main("      x = 1.0\n", decls="""      DIMENSION a(10, 0:5), b(*)
      INTEGER n, idx(100)
      COMMON /blk/ c(20), d
      PARAMETER (m = 4 + 1)
""")
    kinds = [d.kind for d in unit.decls]
    assert kinds == ["dimension", "type", "common", "parameter"]
    dim = unit.decls[0]
    assert dim.entries[0].name == "a"
    assert len(dim.entries[0].dims) == 2
    assert dim.entries[1].dims == [(None, None)]     # assumed size
    assert unit.decls[2].common_name == "blk"
    assert unit.decls[3].params[0][0] == "m"


def test_call_with_and_without_args():
    unit = parse_main("      CALL foo(a, n+1)\n      CALL bar\n")
    assert isinstance(unit.body[0], ast.CallStmt)
    assert len(unit.body[0].args) == 2
    assert unit.body[1].args == []


def test_operator_precedence():
    unit = parse_main("      x = 1 + 2 * 3\n")
    value = unit.body[0].value
    assert isinstance(value, ast.BinOp) and value.op == "+"
    assert isinstance(value.right, ast.BinOp) and value.right.op == "*"


def test_power_binds_tighter_than_unary_minus():
    unit = parse_main("      x = -y ** 2\n")
    value = unit.body[0].value
    assert isinstance(value, ast.UnOp) and value.op == "-"
    assert isinstance(value.operand, ast.BinOp)
    assert value.operand.op == "**"


def test_print_and_read():
    unit = parse_main("      PRINT *, x, y\n      READ *, n\n")
    assert unit.body[0].kind == "print"
    assert len(unit.body[0].items) == 2
    assert unit.body[1].kind == "read"


def test_missing_do_terminator_raises():
    with pytest.raises(ParseError):
        parse_main("      DO 10 i = 1, n\n        x = i\n")


def test_unexpected_token_raises():
    with pytest.raises(ParseError):
        parse_main("      = 5\n")


def test_empty_source_raises():
    with pytest.raises(ParseError):
        parse_source("")


def test_reparse_after_an_edit_reuses_the_units_it_did_not_touch():
    """A unit whose text is unchanged comes back as the memoized tree
    with the line delta of its move; the built program carries the
    lines of the edited text."""
    from repro.ir import build_program
    from repro.lang.parser import parse_units
    src = ("      PROGRAM main\n      CALL foo(1.0)\n      END\n"
           "      SUBROUTINE foo(a)\n      b = a\n      END\n")
    edited = "C note\n" + src
    (_, _), (foo, delta) = parse_units(src, "t")
    units = parse_units(edited, "t")
    assert units[1] == (foo, delta + 1) and units[0][1] == 0
    assert parse_source(edited, "t").units[1].body[0].loc.line == 6
    prog = build_program(edited, "t")
    assert prog.procedures["foo"].source_lines.start == 5
    assert prog.procedures["foo"].body.statements[0].line == 6
