"""Systems of linear constraints (integer polyhedra).

A :class:`System` is a conjunction of affine constraints ``expr >= 0`` and
``expr == 0`` over named integer variables.  Array sections in the paper
(sections 5.2.1, 6.2.1) are sets of such systems: "the denoted index tuples
can also be viewed as a set of integral points within a convex polyhedron".

Emptiness and projection are delegated to Fourier-Motzkin elimination
(:mod:`repro.poly.fourier_motzkin`); containment is decided via emptiness of
``A and not(c)`` per constraint ``c``.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .linexpr import LinExpr


class Constraint:
    """A single affine constraint: ``expr >= 0`` or ``expr == 0``."""

    __slots__ = ("expr", "is_equality", "_key_memo", "_negation")

    GE = ">="
    EQ = "=="

    def __init__(self, expr: LinExpr, is_equality: bool = False):
        self.expr = expr
        self.is_equality = is_equality
        self._key_memo = None
        self._negation = None

    # Convenience builders --------------------------------------------------
    @staticmethod
    def ge(lhs: LinExpr, rhs: LinExpr | int = 0) -> "Constraint":
        """lhs >= rhs"""
        return Constraint(lhs - rhs, False)

    @staticmethod
    def le(lhs: LinExpr, rhs: LinExpr | int = 0) -> "Constraint":
        """lhs <= rhs"""
        return Constraint((rhs - lhs) if isinstance(rhs, LinExpr)
                          else (LinExpr.constant(rhs) - lhs), False)

    @staticmethod
    def eq(lhs: LinExpr, rhs: LinExpr | int = 0) -> "Constraint":
        """lhs == rhs"""
        return Constraint(lhs - rhs, True)

    @staticmethod
    def lt(lhs: LinExpr, rhs: LinExpr | int = 0) -> "Constraint":
        """lhs < rhs, i.e. lhs <= rhs - 1 over the integers."""
        rhs_e = rhs if isinstance(rhs, LinExpr) else LinExpr.constant(rhs)
        return Constraint(rhs_e - lhs - 1, False)

    def negate(self) -> Tuple["Constraint", ...]:
        """Integer negation.  ``not(e >= 0)`` is ``-e - 1 >= 0``;
        ``not(e == 0)`` is the *disjunction* ``e >= 1 or -e >= 1`` and is
        returned as two constraints the caller must treat as alternatives.
        Built once per constraint: containment and subtraction negate the
        same constraints over and over, and every system they then form
        shares these objects' key tuples."""
        if self._negation is None:
            if self.is_equality:
                self._negation = (Constraint(self.expr - 1),
                                  Constraint(-self.expr - 1))
            else:
                self._negation = (Constraint(-self.expr - 1),)
        return self._negation

    def variables(self) -> Tuple[str, ...]:
        return self.expr.variables()

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint(self.expr.rename(mapping), self.is_equality)

    def substitute(self, var: str, repl: LinExpr) -> "Constraint":
        return Constraint(self.expr.substitute(var, repl), self.is_equality)

    def is_trivially_true(self) -> bool:
        if not self.expr.is_constant():
            return False
        if self.is_equality:
            return self.expr.const == 0
        return self.expr.const >= 0

    def is_trivially_false(self) -> bool:
        if not self.expr.is_constant():
            return False
        if self.is_equality:
            return self.expr.const != 0
        return self.expr.const < 0

    def key(self) -> Tuple:
        if self._key_memo is None:
            self._key_memo = (self.expr.key(), self.is_equality)
        return self._key_memo

    def __eq__(self, other) -> bool:
        return isinstance(other, Constraint) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        op = "==" if self.is_equality else ">="
        return f"{self.expr!r} {op} 0"


class System:
    """A conjunction of constraints — one convex integer polyhedron."""

    __slots__ = ("constraints", "_key_memo")

    def __init__(self, constraints: Iterable[Constraint] = ()):
        # Drop trivially-true constraints; dedupe while preserving order.
        seen = set()
        kept: List[Constraint] = []
        for c in constraints:
            if c.is_trivially_true():
                continue
            k = c.key()
            if k not in seen:
                seen.add(k)
                kept.append(c)
        self.constraints: Tuple[Constraint, ...] = tuple(kept)
        self._key_memo = None

    @staticmethod
    def universe() -> "System":
        return System()

    def variables(self) -> Tuple[str, ...]:
        names = set()
        for c in self.constraints:
            names.update(c.variables())
        return tuple(sorted(names))

    def and_also(self, *constraints: Constraint) -> "System":
        return System(self.constraints + tuple(constraints))

    def intersect(self, other: "System") -> "System":
        return System(self.constraints + other.constraints)

    def rename(self, mapping: Mapping[str, str]) -> "System":
        return System(c.rename(mapping) for c in self.constraints)

    def substitute(self, var: str, repl: LinExpr) -> "System":
        return System(c.substitute(var, repl) for c in self.constraints)

    # -- decision procedures -----------------------------------------------
    def is_empty(self) -> bool:
        """True if the system has no rational solutions (conservative for
        integer emptiness: a rationally-empty system is integrally empty;
        the converse may not hold, which errs on the safe side for
        dependence testing).  Decided once per distinct system per job."""
        return _fm.is_empty(self)

    def project_away(self, variables: Sequence[str]) -> "System":
        """Eliminate the named variables (existential projection)."""
        return _fm.project(self, variables)

    def contains(self, other: "System") -> bool:
        """True if every point of ``other`` satisfies ``self``.

        Decided by checking that ``other AND not(c)`` is empty for each
        constraint ``c`` of self (sound and complete over the rationals,
        conservative over the integers)."""
        # cheap sufficient check: a superset of constraints is contained
        mine = set(c.key() for c in self.constraints)
        theirs = set(c.key() for c in other.constraints)
        if mine <= theirs:
            return True
        for c in self.constraints:
            if c.key() in theirs:
                continue
            for neg in c.negate():
                if not other.and_also(neg).is_empty():
                    return False
        return True

    def sample_point(self, bound: int = 12) -> Optional[Mapping[str, int]]:
        """Search a small integer box for a satisfying assignment.  Used by
        tests as an independent oracle, not by the analyses."""
        names = self.variables()
        if not names:
            return {} if not self.is_empty() else None
        if len(names) > 4:
            return None  # too expensive; oracle only used on small systems

        rng = range(-bound, bound + 1)

        def satisfied(assign: Mapping[str, int]) -> bool:
            for c in self.constraints:
                val = c.expr.const
                for v, coef in c.expr.coeffs.items():
                    val += coef * assign[v]
                if c.is_equality:
                    if val != 0:
                        return False
                elif val < 0:
                    return False
            return True

        def rec(i: int, assign: dict) -> Optional[Mapping[str, int]]:
            if i == len(names):
                return dict(assign) if satisfied(assign) else None
            for val in rng:
                assign[names[i]] = val
                got = rec(i + 1, assign)
                if got is not None:
                    return got
            return None

        return rec(0, {})

    def key(self) -> Tuple:
        if self._key_memo is None:
            self._key_memo = tuple(sorted(c.key()
                                          for c in self.constraints))
        return self._key_memo

    def __eq__(self, other) -> bool:
        return isinstance(other, System) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if not self.constraints:
            return "System(TRUE)"
        return "System{" + ", ".join(map(repr, self.constraints)) + "}"


def bounds_system(var: str, low: LinExpr | int, high: LinExpr | int) -> System:
    """The system ``low <= var <= high``."""
    v = LinExpr.var(var)
    lo = low if isinstance(low, LinExpr) else LinExpr.constant(low)
    hi = high if isinstance(high, LinExpr) else LinExpr.constant(high)
    return System([Constraint.ge(v, lo), Constraint.le(v, hi)])


# Imported last: fourier_motzkin builds on the classes above.
from . import fourier_motzkin as _fm  # noqa: E402
