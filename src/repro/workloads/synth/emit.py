"""The AST-emission core shared by the corpus factory and the fuzzer.

Every grammar rule here is written against a tiny :class:`Chooser`
protocol instead of a concrete randomness source, so the same emission
code serves two masters that must never drift apart:

* the **seeded corpus generator** (:mod:`repro.workloads.synth.generator`)
  drives it with :class:`RandomChooser` — a plain ``random.Random`` —
  giving bit-deterministic, spawn-safe program synthesis keyed by seed,
* the **Hypothesis fuzzer** (``tests/test_fuzz_soundness.py``) drives it
  with a draw-backed chooser, keeping shrinking: Hypothesis minimizes the
  underlying draw sequence, which replays through these same rules.

No Hypothesis import appears here (or anywhere under ``synth/``): the
runtime package must stay importable without the fuzzing toolchain.
"""

from __future__ import annotations

import random
from typing import List, Sequence


class Chooser:
    """Minimal decision interface the grammar rules draw from."""

    def choice(self, seq: Sequence):
        raise NotImplementedError

    def randint(self, lo: int, hi: int) -> int:
        """Inclusive on both ends, like ``random.Random.randint``."""
        raise NotImplementedError

    def boolean(self) -> bool:
        raise NotImplementedError


class RandomChooser(Chooser):
    """Seeded chooser: ``random.Random`` methods only, which are
    documented-stable across processes and platforms — the foundation of
    the generator's determinism contract."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def choice(self, seq: Sequence):
        return seq[self.rng.randrange(len(seq))]

    def randint(self, lo: int, hi: int) -> int:
        return self.rng.randint(lo, hi)

    def boolean(self) -> bool:
        return self.rng.random() < 0.5


# -- the fuzzer grammar -------------------------------------------------------
# The exact program family the soundness fuzzer has always generated:
# one outer i-loop over COMMON scalars and two 40-element arrays, with
# simple/IF/inner-j-loop body shapes.  (Kept byte-compatible with the
# old inline Hypothesis strategies so shrunk counterexamples stay
# meaningful.)

IDX = ["i", "i+1", "i-1", "2*i", "j", "j+1", "3", "7"]
SCALARS = ["s", "t"]
ARRAYS = ["a", "b"]


def expr(ch: Chooser) -> str:
    kind = ch.choice(["const", "scalar", "array", "index", "binop"])
    if kind == "const":
        return f"{ch.randint(1, 9)}.0"
    if kind == "scalar":
        return ch.choice(SCALARS)
    if kind == "index":
        return ch.choice(["i * 1.0", "j * 1.0"])
    if kind == "array":
        return f"{ch.choice(ARRAYS)}({ch.choice(IDX)})"
    op = ch.choice(["+", "-", "*"])
    left = ch.choice(SCALARS + ["i * 1.0", "2.0"])
    right = f"{ch.choice(ARRAYS)}({ch.choice(IDX)})"
    return f"{left} {op} {right}"


def simple_stmt(ch: Chooser, indent: int) -> str:
    pad = " " * indent
    kind = ch.choice(["assign_array", "assign_scalar",
                      "reduce_scalar", "reduce_array"])
    if kind == "assign_array":
        tgt = f"{ch.choice(ARRAYS)}({ch.choice(IDX)})"
        return f"{pad}{tgt} = {expr(ch)}"
    if kind == "assign_scalar":
        return f"{pad}{ch.choice(SCALARS)} = {expr(ch)}"
    if kind == "reduce_scalar":
        s = ch.choice(SCALARS)
        return f"{pad}{s} = {s} + {expr(ch)}"
    arr = ch.choice(ARRAYS)
    idx = ch.choice(IDX)
    return f"{pad}{arr}({idx}) = {arr}({idx}) + {expr(ch)}"


def body_stmts(ch: Chooser, labels: List[int]) -> List[str]:
    out = []
    n = ch.randint(1, 3)
    for _ in range(n):
        shape = ch.choice(["simple", "if", "jloop"])
        if shape == "simple":
            out.append(simple_stmt(ch, 8))
        elif shape == "if":
            cond = (f"{ch.choice(ARRAYS)}({ch.choice(IDX)}) .GT. "
                    f"{ch.randint(0, 5)}.0")
            out.append(f"        IF ({cond}) THEN")
            out.append(simple_stmt(ch, 10))
            out.append("        ENDIF")
        else:
            label = labels.pop()
            out.append(f"        DO {label} j = 2, 8")
            out.append(simple_stmt(ch, 10))
            out.append(f"{label}      CONTINUE")
    return out


def fuzz_program(ch: Chooser) -> str:
    """The soundness fuzzer's program family (see module docstring)."""
    labels = [20, 30, 40]
    body = body_stmts(ch, labels)
    lines = [
        "      PROGRAM fz",
        "      COMMON /sc/ s, t",
        "      DIMENSION a(40), b(40)",
        "      DO 5 i = 1, 40",
        "        a(i) = i * 0.5",
        "        b(i) = 21.0 - i * 0.25",
        "5     CONTINUE",
        "      s = 1.0",
        "      t = 2.0",
        "      DO 100 i = 2, 12",
    ] + body + [
        "100   CONTINUE",
        "      PRINT *, a(3), b(5), s, t",
        "      END",
    ]
    return "\n".join(lines)


def reduction_merge_program(ch: Chooser) -> str:
    """Parallel loops dominated by reduction chains — shapes whose
    result depends on the combination order to the last bit: ``+ - *``
    and ``min``/``max`` spines over scalars, mixed with plain parallel
    array writes (the plan oracle's reduction fuzz input)."""
    lines = []
    n_red = ch.randint(1, 3)
    operands = ["a(i)", "b(i)", "a(i) * b(i)", "0.5", "1.25",
                "b(i) - a(i)"]
    for _ in range(n_red):
        target = ch.choice(["s", "t"])
        kind = ch.choice(["chain", "minmax"])
        if kind == "minmax":
            fn = ch.choice(["MIN", "MAX"])
            arg = ch.choice(operands)
            lines.append(f"        {target} = {fn}({target}, {arg})")
        else:
            e = target
            for _ in range(ch.randint(1, 3)):
                op = ch.choice(["+", "-", "*"])
                e = f"({e} {op} {ch.choice(operands)})"
            lines.append(f"        {target} = {e}")
    if ch.boolean():
        lines.append(f"        c(i) = {ch.choice(operands)}")
    return "\n".join([
        "      PROGRAM fzr",
        "      COMMON /sc/ s, t",
        "      DIMENSION a(40), b(40), c(40)",
        "      DO 5 i = 1, 40",
        "        a(i) = i * 0.5",
        "        b(i) = 21.0 - i * 0.25",
        "5     CONTINUE",
        "      s = 1.0",
        "      t = 2.0",
        "      DO 100 i = 2, 33",
    ] + lines + [
        "100   CONTINUE",
        "      PRINT *, s, t, c(3)",
        "      END",
    ])
