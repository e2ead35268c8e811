"""Linear expressions over named integer variables.

The array-section machinery of the SUIF parallelizer (paper section 2.4,
5.2.1) represents array accesses as sets of systems of *linear inequalities*
over loop index variables and symbolic constants.  This module provides the
base affine-expression type those systems are built from.

A :class:`LinExpr` is ``sum(coeff_i * var_i) + const`` with exact rational
coefficients (:class:`fractions.Fraction`), so Fourier-Motzkin elimination
never loses precision to floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Number = Union[int, Fraction]


def _as_fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value)!r}")


class LinExpr:
    """An affine expression ``c0 + c1*x1 + ... + cn*xn``.

    Immutable.  Variables are plain strings; zero-coefficient terms are
    dropped eagerly so two equal expressions always compare equal.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[str, Number] | None = None,
                 const: Number = 0):
        clean: Dict[str, Fraction] = {}
        if coeffs:
            for var, c in coeffs.items():
                f = _as_fraction(c)
                if f != 0:
                    clean[var] = f
        self.coeffs: Dict[str, Fraction] = clean
        self.const: Fraction = _as_fraction(const)

    # -- constructors -----------------------------------------------------
    @staticmethod
    def var(name: str, coeff: Number = 1) -> "LinExpr":
        """The expression ``coeff * name``."""
        return LinExpr({name: coeff})

    @staticmethod
    def constant(value: Number) -> "LinExpr":
        return LinExpr({}, value)

    # -- queries -----------------------------------------------------------
    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    def coeff(self, var: str) -> Fraction:
        return self.coeffs.get(var, Fraction(0))

    def is_constant(self) -> bool:
        return not self.coeffs

    def references(self, var: str) -> bool:
        return var in self.coeffs

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "LinExpr | Number") -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return LinExpr(self.coeffs, self.const + _as_fraction(other))
        merged = dict(self.coeffs)
        for var, c in other.coeffs.items():
            merged[var] = merged.get(var, Fraction(0)) + c
        return LinExpr(merged, self.const + other.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "LinExpr | Number") -> "LinExpr":
        if isinstance(other, (int, Fraction)):
            return self + (-_as_fraction(other))
        return self + (-other)

    def __rsub__(self, other: Number) -> "LinExpr":
        return (-self) + _as_fraction(other)

    def __mul__(self, scalar: Number) -> "LinExpr":
        s = _as_fraction(scalar)
        return LinExpr({v: c * s for v, c in self.coeffs.items()},
                       self.const * s)

    __rmul__ = __mul__

    def substitute(self, var: str, replacement: "LinExpr") -> "LinExpr":
        """Replace ``var`` by an affine expression."""
        c = self.coeffs.get(var)
        if c is None:
            return self
        rest = LinExpr({v: k for v, k in self.coeffs.items() if v != var},
                       self.const)
        return rest + replacement * c

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables; unmapped names pass through unchanged."""
        return LinExpr({mapping.get(v, v): c for v, c in self.coeffs.items()},
                       self.const)

    def scale_to_integer(self) -> "LinExpr":
        """Multiply by the LCM of denominators so all coefficients are ints."""
        denoms = [self.const.denominator]
        denoms.extend(c.denominator for c in self.coeffs.values())
        lcm = 1
        for d in denoms:
            g = _gcd(lcm, d)
            lcm = lcm // g * d
        return self * lcm

    # -- plumbing -----------------------------------------------------------
    def key(self) -> Tuple:
        # (numerator, denominator) int pairs: hashing plain ints is far
        # cheaper than Fraction.__hash__ (which computes modular inverses).
        # fourier_motzkin.system_is_empty builds its integer rows from
        # this layout.
        return (tuple(sorted((v, c.numerator, c.denominator)
                             for v, c in self.coeffs.items())),
                self.const.numerator, self.const.denominator)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinExpr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        parts = []
        for var in sorted(self.coeffs):
            c = self.coeffs[var]
            if c == 1:
                parts.append(f"+{var}")
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{'+' if c > 0 else ''}{c}*{var}")
        if self.const != 0 or not parts:
            parts.append(f"{'+' if self.const > 0 else ''}{self.const}")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def linexpr_sum(exprs: Iterable[LinExpr]) -> LinExpr:
    total = LinExpr()
    for e in exprs:
        total = total + e
    return total
