"""Fourier-Motzkin elimination: emptiness on integer rows, projection
over the rationals.

This is the "potentially exponential" engine the paper leans on for all
array-section operations (section 5.2.3: "operations on array summaries use
the potentially exponential Fourier-Motzkin method").  Sizes here are tiny
(a handful of loop indices and symbolic constants), so the classical
algorithm with redundancy pruning is plenty — but it is asked the same
question many times over, so each polyhedron's emptiness is decided once
per job (:func:`is_empty`) and decided in plain ``int`` arithmetic
(:func:`system_is_empty`).

Equalities are removed first by Gaussian substitution, which both speeds up
elimination and keeps it exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .linexpr import LinExpr
from .system import Constraint, System

# Safety valve: beyond this many inequalities we conservatively keep the
# variable unconstrained (the projection becomes an over-approximation,
# which is sound for may-information and handled by callers for must-).
MAX_CONSTRAINTS = 600


# -- emptiness: one integer kernel behind one job-scoped memo ----------------

#: ``System.key()`` -> empty?  Content-keyed, so an entry is true of every
#: equal system whoever built it; emptied at the root of each static
#: analysis (``SymbolicAnalysis.__init__``), so it holds one job's distinct
#: systems and a cold job starts cold.
_memo: Dict[Tuple, bool] = {}

# Plain monotonic counters; spans report their deltas (fm_counters).
_queries = 0    # emptiness questions asked
_hits = 0       # ... answered from the memo
_steps = 0      # variables eliminated (substitution or Fourier-Motzkin)


def reset_emptiness_memo() -> None:
    _memo.clear()


def fm_counters(since: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """The emptiness counters as span tags — their growth since an earlier
    reading when one is given."""
    now = {"fm_queries": _queries, "fm_hits": _hits, "fm_steps": _steps}
    if since is not None:
        return {name: now[name] - since[name] for name in now}
    return now


def is_empty(system: System) -> bool:
    """``system_is_empty`` asked once per distinct system per job."""
    global _queries, _hits
    _queries += 1
    key = system.key()
    answer = _memo.get(key)
    if answer is None:
        answer = _memo[key] = system_is_empty(system)
    else:
        _hits += 1
    return answer


def _cancel(row: List[int], j: int, eq: List[int]) -> List[int]:
    """``row`` with column ``j`` cancelled against the equality ``eq``
    (``eq[j] > 0``, so an inequality keeps its direction)."""
    b = row[j]
    if not b:
        return row
    a = eq[j]
    row = [a * x - b * y for x, y in zip(row, eq)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def system_is_empty(system: System) -> bool:
    """Decide rational emptiness by eliminating every variable.

    Exact integer arithmetic throughout: each constraint of the canonical
    key is scaled by the lcm of its denominators to a row of ints over
    the sorted variable index (constant last), equalities are substituted
    away fraction-free, and one Fourier-Motzkin step combines a lower and
    an upper bound as ``b*lo + a*hi`` — always by positive multipliers,
    so every row stays equivalent to its rational original; dividing a
    row by its gcd only keeps the numbers small."""
    global _steps
    key = system.key()
    index = {v: j for j, v in enumerate(sorted(
        {term[0] for (terms, _, _), _ in key for term in terms}))}
    n = len(index)
    eqs: List[List[int]] = []
    ineqs: List[List[int]] = []
    for (terms, cnum, cden), is_equality in key:
        scale = lcm(cden, *[den for _, _, den in terms])
        row = [0] * (n + 1)
        for var, num, den in terms:
            row[index[var]] = num * (scale // den)
        row[n] = cnum * (scale // cden)
        (eqs if is_equality else ineqs).append(row)
    while eqs:
        eq = eqs.pop()
        j = next((j for j in range(n) if eq[j]), None)
        if j is None:
            if eq[n]:
                return True             # const == 0 with const != 0
            continue
        if eq[j] < 0:
            eq = [-x for x in eq]
        _steps += 1
        eqs = [_cancel(row, j, eq) for row in eqs]
        ineqs = [_cancel(row, j, eq) for row in ineqs]
    # From here on ``rows`` maps each linear part to its tightest
    # constant: ``lin + c1 >= 0`` is dominated by ``lin + c2 >= 0``, c2<c1.
    zero = (0,) * n
    rows: Dict[Tuple[int, ...], int] = {}
    for row in ineqs:
        const = row.pop()
        lin = tuple(row)
        if rows.get(lin, const) >= const:
            rows[lin] = const
    if rows.pop(zero, 0) < 0:
        return True                     # const >= 0 with const < 0
    for j in range(n):
        lower, upper, kept = [], [], {}
        for lin, const in rows.items():
            a = lin[j]
            if a > 0:
                lower.append((a, lin, const))
            elif a < 0:
                upper.append((-a, lin, const))
            else:
                kept[lin] = const
        if not lower and not upper:
            continue
        _steps += 1
        for a, lo, lo_const in lower:
            for b, hi, hi_const in upper:
                # lo: a*x >= -(..), hi: b*x <= (..)  =>  b*lo + a*hi >= 0
                row = [b * x + a * y for x, y in zip(lo, hi)]
                const = b * lo_const + a * hi_const
                g = gcd(const, *row)
                if g > 1:
                    row = [x // g for x in row]
                    const //= g
                lin = tuple(row)
                if kept.get(lin, const) >= const:
                    kept[lin] = const
        contradiction = kept.pop(zero, 0) < 0
        if len(kept) + contradiction > MAX_CONSTRAINTS:
            # Over-approximate (treat as non-empty): sound for dependence
            # testing where non-empty means "assume a dependence".
            return False
        if contradiction:
            return True
        rows = kept
    return False


# -- projection: rational, because its output's scaling is stored ------------

def _solve_equalities(system: System, protect: Sequence[str] = ()
                      ) -> System | None:
    """Use equalities to substitute variables away (Gaussian elimination).

    Returns an equivalent system whose equalities involve only variables in
    ``protect`` (or constants), or ``None`` if a contradiction was found.
    Variables in ``protect`` are never chosen as substitution targets.
    """
    protected = set(protect)
    current = system
    changed = True
    while changed:
        changed = False
        eqs = [c for c in current.constraints if c.is_equality]
        for eq in eqs:
            # pick a variable to solve for
            pivot = None
            for var in eq.expr.coeffs:
                if var not in protected:
                    pivot = var
                    break
            if pivot is None:
                if eq.expr.is_constant() and eq.expr.const != 0:
                    return None
                continue
            coef = eq.expr.coeffs[pivot]
            # pivot = -(rest)/coef
            rest = LinExpr({v: c for v, c in eq.expr.coeffs.items()
                            if v != pivot}, eq.expr.const)
            replacement = rest * Fraction(-1, 1) * (Fraction(1, 1) / coef)
            new_constraints = []
            for c in current.constraints:
                if c is eq:
                    continue
                new_constraints.append(c.substitute(pivot, replacement))
            current = System(new_constraints)
            changed = True
            break
        else:
            break
    # check remaining constant equalities
    for c in current.constraints:
        if c.is_trivially_false():
            return None
    return current


def eliminate_variable(ineqs: List[Constraint], var: str) -> List[Constraint]:
    """One Fourier-Motzkin step: eliminate ``var`` from inequalities."""
    lower: List[LinExpr] = []   # var >= expr  (normalized)
    upper: List[LinExpr] = []   # var <= expr
    free: List[Constraint] = []
    for c in ineqs:
        coef = c.expr.coeff(var)
        if coef == 0:
            free.append(c)
            continue
        # c.expr = coef*var + rest >= 0
        rest = LinExpr({v: k for v, k in c.expr.coeffs.items() if v != var},
                       c.expr.const)
        if coef > 0:
            # var >= -rest/coef
            lower.append(rest * (Fraction(-1) / coef))
        else:
            # var <= rest/(-coef)
            upper.append(rest * (Fraction(1) / (-coef)))
    result = list(free)
    for lo in lower:
        for hi in upper:
            # lo <= var <= hi  =>  hi - lo >= 0
            result.append(Constraint(hi - lo))
    return _prune(result)


def _prune(ineqs: List[Constraint]) -> List[Constraint]:
    """Drop trivially-true inequalities and all but the tightest of those
    sharing a linear part (``expr+c1 >= 0`` is dominated by
    ``expr+c2 >= 0``, c2<c1).  Inequalities only: two equalities with one
    linear part and different constants are a contradiction, not a
    redundancy."""
    best: dict = {}
    for c in ineqs:
        assert not c.is_equality, c
        if c.is_trivially_true():
            continue
        lin = tuple(sorted(c.expr.coeffs.items()))
        prev = best.get(lin)
        if prev is None or c.expr.const < prev.expr.const:
            best[lin] = c
    return list(best.values())


def project(system: System, variables: Sequence[str]) -> System:
    """Existentially project away ``variables``."""
    # Equality substitution may only eliminate the variables being
    # projected — every other variable must survive into the result.
    keep = [v for v in system.variables() if v not in set(variables)]
    solved = _solve_equalities(system, protect=keep)
    if solved is None:
        # Contradictory system: projection of the empty set is empty.
        return System([Constraint(LinExpr.constant(-1))])
    # Every surviving equality mentions protected variables only, so the
    # projected ones are bounded by inequalities alone.
    constraints = list(solved.constraints)
    remaining = {v for v in variables
                 if any(c.expr.references(v) for c in constraints)}
    for var in sorted(remaining):
        ineqs, eqs = [], []
        for c in constraints:
            (eqs if c.is_equality else ineqs).append(c)
        new_ineqs = eliminate_variable(ineqs, var)
        if len(new_ineqs) > MAX_CONSTRAINTS:
            # over-approximate: drop every constraint that mentions var
            new_ineqs = [c for c in ineqs if not c.expr.references(var)]
        constraints = eqs + new_ineqs
    return System(constraints)
