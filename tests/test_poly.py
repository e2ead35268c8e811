"""Polyhedral core: LinExpr algebra, systems, Fourier-Motzkin, sections."""

from fractions import Fraction

import pytest

from fm_oracle import fraction_is_empty, harvest
from repro.poly import (Constraint, LinExpr, Section, System, bounds_system,
                        dim, fm_counters, range_section)


# -- LinExpr -----------------------------------------------------------------

def test_linexpr_arithmetic():
    x = LinExpr.var("x")
    y = LinExpr.var("y")
    e = 2 * x + y - 3
    assert e.coeff("x") == 2
    assert e.coeff("y") == 1
    assert e.const == -3
    assert (e - e).is_constant()


def test_linexpr_substitute():
    x = LinExpr.var("x")
    e = 3 * x + 1
    out = e.substitute("x", LinExpr.var("y") + 2)
    assert out.coeff("y") == 3
    assert out.const == 7


def test_linexpr_rename_and_equality():
    e1 = LinExpr.var("a") + 5
    e2 = e1.rename({"a": "b"})
    assert e2 == LinExpr.var("b") + 5
    assert e1 != e2


def test_linexpr_zero_coeffs_dropped():
    x = LinExpr.var("x")
    e = x - x
    assert e.variables() == ()


# -- System emptiness / containment ---------------------------------------------

def test_empty_system_detected():
    x = LinExpr.var("x")
    sys_ = System([Constraint.ge(x, 5), Constraint.le(x, 3)])
    assert sys_.is_empty()


def test_satisfiable_system():
    x = LinExpr.var("x")
    sys_ = System([Constraint.ge(x, 1), Constraint.le(x, 10)])
    assert not sys_.is_empty()


def test_equality_contradiction():
    x = LinExpr.var("x")
    sys_ = System([Constraint.eq(x, 3), Constraint.eq(x, 4)])
    assert sys_.is_empty()


def test_multivar_emptiness():
    x, y = LinExpr.var("x"), LinExpr.var("y")
    # x >= y + 1 and y >= x  -> empty
    sys_ = System([Constraint.ge(x, y + 1), Constraint.ge(y, x)])
    assert sys_.is_empty()


def test_containment():
    small = bounds_system("x", 2, 5)
    big = bounds_system("x", 1, 10)
    assert big.contains(small)
    assert not small.contains(big)


def test_projection_keeps_relations():
    # {d = i + 1, 1 <= i <= 9} project i -> {2 <= d <= 10}
    d, i = LinExpr.var("d"), LinExpr.var("i")
    sys_ = System([Constraint.eq(d, i + 1),
                   Constraint.ge(i, 1), Constraint.le(i, 9)])
    proj = sys_.project_away(["i"])
    assert not proj.and_also(Constraint.eq(d, 2)).is_empty()
    assert not proj.and_also(Constraint.eq(d, 10)).is_empty()
    assert proj.and_also(Constraint.eq(d, 1)).is_empty()
    assert proj.and_also(Constraint.eq(d, 11)).is_empty()


def test_projection_never_eliminates_kept_vars():
    # regression: Gaussian substitution must not erase the kept dimension
    d, k, i = LinExpr.var("_d0"), LinExpr.var("k"), LinExpr.var("i")
    sys_ = System([Constraint.eq(d - k - 34 * i, 0),
                   Constraint.ge(k, 11), Constraint.le(k, 14)])
    proj = sys_.project_away(["k"])
    assert "_d0" in proj.variables()
    # d = k + 34 i with k in [11, 14]: for i = 1, d in [45, 48]
    probe = proj.and_also(Constraint.eq(i, 1), Constraint.eq(d, 45))
    assert not probe.is_empty()
    probe2 = proj.and_also(Constraint.eq(i, 1), Constraint.eq(d, 49))
    assert probe2.is_empty()


def test_sample_point_oracle_agrees():
    x, y = LinExpr.var("x"), LinExpr.var("y")
    sys_ = System([Constraint.ge(x + y, 3), Constraint.le(x, 2),
                   Constraint.le(y, 2)])
    assert (sys_.sample_point() is not None) == (not sys_.is_empty())


# -- Sections ------------------------------------------------------------------

def test_section_union_intersect():
    a = range_section(1, 10)
    b = range_section(5, 20)
    u = a.union(b)
    i = a.intersect(b)
    assert i.contains(range_section(5, 10))
    assert u.contains(a) and u.contains(b)


def test_section_subtract_exact():
    a = range_section(1, 10)
    b = range_section(4, 6)
    d = a.subtract(b)
    assert d.contains(range_section(1, 3))
    assert d.contains(range_section(7, 10))
    assert not d.intersects(range_section(5, 5))


def test_section_subtract_everything():
    a = range_section(1, 10)
    assert a.subtract(Section.universe()).is_empty()
    assert a.subtract(a).is_empty()


def test_point_section():
    p = Section.point([LinExpr.constant(7)])
    assert p.intersects(range_section(1, 10))
    assert not p.intersects(range_section(8, 10))


def test_symbolic_range_subtraction():
    n = LinExpr.var("n")
    written = range_section(2, n)
    read = range_section(1, n)
    exposed = read.subtract(written)
    # only element 1 remains exposed
    assert exposed.intersects(range_section(1, 1))
    probe = exposed.intersect(range_section(2, 2))
    # element 2 is only exposed if n < 2; with n >= 2 constraint it's gone
    constrained = probe.constrain(Constraint.ge(n, 2))
    assert constrained.is_empty()


def test_two_dim_section():
    from repro.poly import dim as d
    sec = Section([System([
        Constraint.ge(LinExpr.var(d(0)), 1), Constraint.le(LinExpr.var(d(0)), 4),
        Constraint.ge(LinExpr.var(d(1)), 1), Constraint.le(LinExpr.var(d(1)), 4)])])
    row = Section([System([Constraint.eq(LinExpr.var(d(0)), 2),
                           Constraint.ge(LinExpr.var(d(1)), 1),
                           Constraint.le(LinExpr.var(d(1)), 4)])])
    assert sec.contains(row)
    assert not row.contains(sec)


def test_section_project_away_closure():
    i = LinExpr.var("i")
    sec = Section.point([i]).constrain(
        Constraint.ge(i, 1), Constraint.le(i, 8))
    closed = sec.project_away(["i"])
    assert closed.contains(range_section(1, 8))
    assert not closed.intersects(range_section(9, 9))


def test_free_variables_excludes_dims():
    i = LinExpr.var("i")
    sec = Section.point([i + 1])
    assert sec.free_variables() == ("i",)


# -- the integer emptiness kernel against its Fraction oracle -----------------

def _plan(program):
    from repro.parallelize.parallelizer import Parallelizer
    Parallelizer(program).plan()


def _assert_kernel_matches_oracle(decided):
    assert decided
    wrong = [(s, got) for s, got in decided if fraction_is_empty(s) != got]
    assert not wrong, wrong[:3]


@pytest.mark.parametrize("name", ["mdg", "wave5", "hydro2d", "arc3d", "hydro"])
def test_kernel_matches_fraction_oracle_on_corpus_systems(name):
    from repro.workloads import get
    decided = harvest(lambda: _plan(get(name).build()))
    _assert_kernel_matches_oracle(decided)
    assert {got for _, got in decided} == {True, False}


def test_kernel_matches_fraction_oracle_on_synth_systems():
    from repro.workloads.synth import from_name, pinned_slice

    def plan_all():
        for name in pinned_slice(200):
            _plan(from_name(name).build())

    _assert_kernel_matches_oracle(harvest(plan_all))


def _fan(width):
    """``width`` lower and ``width`` upper bounds on ``a``, each against
    its own variable, plus a contradiction on ``y00``: eliminating ``a``
    (first in sorted order) yields ``width**2`` incomparable rows."""
    a = LinExpr.var("a")
    ys = [LinExpr.var(f"y{k:02d}") for k in range(width)]
    zs = [LinExpr.var(f"z{k:02d}") for k in range(width)]
    falsum = [Constraint.ge(ys[0], 1), Constraint.le(ys[0], 0)]
    return System([Constraint.ge(a, y) for y in ys]
                  + [Constraint.le(a, z) for z in zs] + falsum), falsum


def test_max_constraints_valve():
    from repro.poly.fourier_motzkin import MAX_CONSTRAINTS, system_is_empty
    under, _ = _fan(24)
    assert 24 * 24 + 2 <= MAX_CONSTRAINTS
    assert system_is_empty(under) and fraction_is_empty(under)
    over, falsum = _fan(25)
    assert 25 * 25 > MAX_CONSTRAINTS
    # past the valve the answer is the conservative "not empty" ...
    assert not system_is_empty(over) and not fraction_is_empty(over)
    # ... and projection drops the variable's constraints, keeping the rest
    assert over.project_away(["a"]) == System(falsum)
    assert len(under.project_away(["a"]).constraints) == 24 * 24 + 2


def test_equal_linear_parts_with_different_constants():
    """Pruning by linear part is for inequalities only: two such
    equalities are a contradiction that must survive projection."""
    from repro.poly.fourier_motzkin import _prune
    x, y = LinExpr.var("x"), LinExpr.var("y")
    clash = System([Constraint.eq(x - y, 0), Constraint.eq(x - y, 1)])
    assert clash.is_empty()
    for away in ([], ["x"], ["y"], ["x", "y"], ["z"]):
        assert clash.project_away(away).is_empty()
    with pytest.raises(AssertionError):
        _prune(list(clash.constraints))
    slack = [Constraint.ge(x - y, -3), Constraint.ge(x - y, 2)]
    assert _prune(slack) == [slack[1]]


# -- the emptiness memo lives exactly one job ---------------------------------

def _fm_growth(run):
    before = fm_counters()
    result = run()
    return fm_counters(before), result


def _job(name):
    from repro.service.jobs import AnalysisRequest, execute_request
    return execute_request(AnalysisRequest(name))


def _staged(program):
    """The benchmark harness's staged pipeline."""
    from repro.analysis.region_analysis import ArrayDataFlow
    from repro.analysis.symbolic import SymbolicAnalysis
    from repro.parallelize.parallelizer import Parallelizer
    dataflow = ArrayDataFlow(program, SymbolicAnalysis(program))
    Parallelizer(program, dataflow=dataflow).plan()


def test_second_cold_job_repeats_the_first_jobs_eliminations():
    first, _ = _fm_growth(lambda: _job("wave5"))
    second, _ = _fm_growth(lambda: _job("wave5"))
    assert first == second
    assert 0 < first["fm_hits"] < first["fm_queries"] and first["fm_steps"]


def test_staged_pipeline_starts_from_an_empty_memo_after_a_job():
    from repro.workloads import get
    program = get("wave5").build()
    alone, _ = _fm_growth(lambda: _staged(program))
    _job("wave5")
    after_job, _ = _fm_growth(lambda: _staged(program))
    assert alone == after_job and alone["fm_hits"]


def test_memo_entries_of_another_program_cannot_change_an_artifact(
        monkeypatch):
    from repro.analysis import symbolic
    from repro.poly import fourier_motzkin as fm
    from repro.service.artifacts import canonical_json
    clean_growth, clean = _fm_growth(lambda: _job("wave5"))
    _job("mdg")
    inherited = len(fm._memo)
    assert inherited
    monkeypatch.setattr(symbolic, "reset_emptiness_memo", lambda: None)
    growth, poisoned = _fm_growth(lambda: _job("wave5"))
    assert len(fm._memo) > inherited        # mdg's entries were still there
    assert growth["fm_queries"] == clean_growth["fm_queries"]
    assert canonical_json(poisoned) == canonical_json(clean)
