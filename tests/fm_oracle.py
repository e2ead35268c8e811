"""Reference emptiness decision: the ``Fraction``/``LinExpr`` routine that
``poly.fourier_motzkin.system_is_empty`` ran before it moved to integer
rows.  Kept here, unmemoised, as the oracle the integer kernel is
compared against; it shares only the rational projection helpers."""

import pytest

from repro.poly import System
from repro.poly.fourier_motzkin import (MAX_CONSTRAINTS, _prune,
                                        _solve_equalities,
                                        eliminate_variable)


def fraction_is_empty(system: System) -> bool:
    if any(c.is_trivially_false() for c in system.constraints):
        return True
    solved = _solve_equalities(system)
    if solved is None:
        return True
    # No variable was protected, so any surviving equality is constant
    # and _solve_equalities has checked it.
    ineqs = _prune([c for c in solved.constraints if not c.is_equality])
    for var in sorted({v for c in ineqs for v in c.variables()}):
        ineqs = eliminate_variable(ineqs, var)
        if len(ineqs) > MAX_CONSTRAINTS:
            return False
        if any(c.is_trivially_false() for c in ineqs):
            return True
    return any(c.is_trivially_false() for c in ineqs)


def harvest(run):
    """Every (system, answer) the kernel decides while ``run()`` executes
    — one per distinct system, since repeats are served by the memo."""
    from repro.poly import fourier_motzkin as fm
    kernel = fm.system_is_empty
    seen = []

    def recording(system):
        answer = kernel(system)
        seen.append((system, answer))
        return answer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fm, "system_is_empty", recording)
        run()
    return seen
