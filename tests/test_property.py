"""Property-based tests (hypothesis) on the core data structures.

The polyhedral layer is the foundation of every analysis: these properties
check its algebra against a brute-force integer-enumeration oracle on
small boxes, and check the interpreter against a Python oracle.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fm_oracle import fraction_is_empty
from repro.poly import Constraint, LinExpr, Section, System, range_section
from repro.poly.fourier_motzkin import system_is_empty
from repro.analysis.summaries import VarSummary, close_over_loop, meet, \
    transfer


# ---------------------------------------------------------------------------
# LinExpr is a commutative module over Q
# ---------------------------------------------------------------------------

names = st.sampled_from(["x", "y", "z"])
coeffs = st.integers(min_value=-7, max_value=7)


@st.composite
def linexprs(draw):
    terms = draw(st.dictionaries(names, coeffs, max_size=3))
    const = draw(coeffs)
    return LinExpr(terms, const)


@given(linexprs(), linexprs())
def test_linexpr_addition_commutes(a, b):
    assert a + b == b + a


@given(linexprs(), linexprs(), linexprs())
def test_linexpr_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(linexprs())
def test_linexpr_additive_inverse(a):
    assert (a + (-a)).is_constant()
    assert (a - a).const == 0


@given(linexprs(), st.integers(min_value=-5, max_value=5))
def test_linexpr_scalar_distributes(a, k):
    assert a * k == LinExpr({v: c * k for v, c in a.coeffs.items()},
                            a.const * k)


@given(linexprs())
def test_substitute_self_is_identity(a):
    assert a.substitute("x", LinExpr.var("x")) == a


# ---------------------------------------------------------------------------
# The integer emptiness kernel on random small systems
# ---------------------------------------------------------------------------

@st.composite
def small_systems(draw, equalities=st.booleans()):
    return [Constraint(draw(linexprs()), draw(equalities))
            for _ in range(draw(st.integers(min_value=0, max_value=6)))]


positive_scales = st.fractions(min_value=Fraction(1, 6), max_value=6)


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_kernel_agrees_with_fraction_oracle(constraints):
    system = System(constraints)
    assert system_is_empty(system) == fraction_is_empty(system)


@settings(max_examples=150, deadline=None)
@given(small_systems(), st.randoms(use_true_random=False),
       st.lists(positive_scales, min_size=6, max_size=6))
def test_kernel_invariant_under_permutation_and_row_rescaling(
        constraints, rng, scales):
    expected = system_is_empty(System(constraints))
    shuffled = list(constraints)
    rng.shuffle(shuffled)
    assert system_is_empty(System(shuffled)) == expected
    rescaled = [Constraint(c.expr * k, c.is_equality)
                for c, k in zip(constraints, scales)]
    assert system_is_empty(System(rescaled)) == expected


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_kernel_never_calls_a_sampled_point_empty(constraints):
    system = System(constraints)
    if system.sample_point(bound=4) is not None:
        assert not system_is_empty(system)


@settings(max_examples=100, deadline=None)
@given(small_systems(equalities=st.just(True)), linexprs(),
       coeffs.filter(bool))
def test_kernel_detects_equality_only_contradictions(equalities, e, k):
    # e == 0 and e + k == 0 (k != 0) contradict whatever else holds
    system = System(equalities + [Constraint(e, True),
                                  Constraint(e + k, True)])
    assert system_is_empty(system)


# ---------------------------------------------------------------------------
# 1-D interval sections against an explicit set oracle
# ---------------------------------------------------------------------------

bounds = st.integers(min_value=0, max_value=12)


@st.composite
def intervals(draw):
    lo = draw(bounds)
    hi = draw(bounds)
    if lo > hi:
        lo, hi = hi, lo
    return (lo, hi)


def as_set(iv):
    return set(range(iv[0], iv[1] + 1))


def section_points(sec: Section, limit: int = 13):
    """Enumerate integer points 0..limit of a 1-D section."""
    out = set()
    for v in range(limit + 1):
        probe = Section.point([LinExpr.constant(v)])
        if sec.intersects(probe):
            out.add(v)
    return out


@settings(max_examples=40, deadline=None)
@given(intervals(), intervals())
def test_union_matches_set_oracle(a, b):
    sec = range_section(*a).union(range_section(*b))
    assert section_points(sec) == as_set(a) | as_set(b)


@settings(max_examples=40, deadline=None)
@given(intervals(), intervals())
def test_intersection_matches_set_oracle(a, b):
    sec = range_section(*a).intersect(range_section(*b))
    assert section_points(sec) == as_set(a) & as_set(b)


@settings(max_examples=40, deadline=None)
@given(intervals(), intervals())
def test_subtract_overapproximates_difference(a, b):
    """subtract may over-approximate but must contain the true difference
    and never exceed the minuend."""
    sec = range_section(*a).subtract(range_section(*b))
    pts = section_points(sec)
    assert as_set(a) - as_set(b) <= pts <= as_set(a)


@settings(max_examples=40, deadline=None)
@given(intervals(), intervals())
def test_exact_difference_for_intervals(a, b):
    # for single intervals the difference is exact
    sec = range_section(*a).subtract(range_section(*b))
    assert section_points(sec) == as_set(a) - as_set(b)


@settings(max_examples=40, deadline=None)
@given(intervals(), intervals())
def test_containment_consistent_with_oracle(a, b):
    A, B = range_section(*a), range_section(*b)
    if A.contains(B):
        assert as_set(b) <= as_set(a)


@settings(max_examples=30, deadline=None)
@given(intervals())
def test_self_algebra(a):
    A = range_section(*a)
    assert A.contains(A)
    assert A.subtract(A).is_empty()
    assert A.intersect(A).contains(A)
    assert not A.is_empty()


# ---------------------------------------------------------------------------
# Summary operator laws
# ---------------------------------------------------------------------------

@st.composite
def summaries(draw):
    r = draw(intervals())
    w = draw(intervals())
    must = draw(st.booleans())
    return transfer(VarSummary.for_read(range_section(*r)),
                    VarSummary.for_write(range_section(*w), must=must))


@settings(max_examples=30, deadline=None)
@given(summaries(), summaries(), summaries())
def test_transfer_associative_on_may_sets(a, b, c):
    left = transfer(transfer(a, b), c)
    right = transfer(a, transfer(b, c))
    assert section_points(left.read) == section_points(right.read)
    assert section_points(left.may_write) == section_points(right.may_write)
    assert section_points(left.must_write) == \
        section_points(right.must_write)
    assert section_points(left.exposed) == section_points(right.exposed)


@settings(max_examples=30, deadline=None)
@given(summaries(), summaries())
def test_meet_commutative(a, b):
    ab, ba = meet(a, b), meet(b, a)
    assert section_points(ab.read) == section_points(ba.read)
    assert section_points(ab.must_write) == section_points(ba.must_write)


@settings(max_examples=30, deadline=None)
@given(summaries())
def test_meet_idempotent(a):
    aa = meet(a, a)
    assert section_points(aa.read) == section_points(a.read)
    assert section_points(aa.exposed) == section_points(a.exposed)
    assert section_points(aa.must_write) == section_points(a.must_write)


@settings(max_examples=30, deadline=None)
@given(summaries(), summaries())
def test_exposed_subset_of_read(a, b):
    out = transfer(a, b)
    assert section_points(out.exposed) <= section_points(out.read)
    assert section_points(out.must_write) <= section_points(out.may_write)


# ---------------------------------------------------------------------------
# Interpreter against a Python oracle
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=5))
def test_interpreter_sum_oracle(n, step):
    from repro.ir import build_program
    from repro.runtime import run_program
    src = f"""
      PROGRAM t
      s = 0.0
      DO 10 i = 1, {n}, {step}
        s = s + i
10    CONTINUE
      PRINT *, s
      END
"""
    out = run_program(build_program(src)).outputs
    assert out == [float(sum(range(1, n + 1, step)))]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1,
                max_size=12))
def test_interpreter_minmax_oracle(values):
    from repro.ir import build_program
    from repro.runtime import run_program
    n = len(values)
    src_vals = "\n".join(
        f"      a({k+1}) = {v}.0" for k, v in enumerate(values))
    src = f"""
      PROGRAM t
      DIMENSION a({n})
{src_vals}
      lo = a(1)
      hi = a(1)
      DO 10 i = 1, {n}
        IF (a(i) .LT. lo) lo = a(i)
        IF (a(i) .GT. hi) hi = a(i)
10    CONTINUE
      PRINT *, lo, hi
      END
"""
    out = run_program(build_program(src)).outputs
    assert out == [float(min(values)), float(max(values))]
