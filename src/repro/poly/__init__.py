"""Polyhedral machinery: linear expressions, inequality systems, sections.

This package implements the array-access representation of the SUIF
parallelizer — "array regions are represented as sets of systems of linear
inequalities, and general mathematical algorithms are used to precisely
capture the data accesses in a program" (paper section 2.4).
"""

from .linexpr import LinExpr, linexpr_sum
from .system import Constraint, System, bounds_system
from .sections import Section, dim, is_dim, range_section
from .fourier_motzkin import fm_counters, reset_emptiness_memo

__all__ = [
    "LinExpr", "linexpr_sum",
    "Constraint", "System", "bounds_system",
    "Section", "dim", "is_dim", "range_section",
    "fm_counters", "reset_emptiness_memo",
]
