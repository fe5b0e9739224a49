from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pslocal.linprog
from pslocal.errors import CertificateInvalid, Infeasible, Unbounded
from pslocal.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPResult,
    _guided_farkas,
    _guided_point,
    certify,
    coprime_integers,
    maximize_over_hrep,
    solve_equality_form,
    solve_exact_system,
    solve_lp,
)

F = Fraction


def test_simple_optimum():
    # min -x1 - x2  s.t.  x1 + x2 + s = 1  ->  optimum -1 on the segment.
    res = solve_equality_form([[1, 1, 1]], [1], [-1, -1, 0])
    assert res.status == OPTIMAL
    assert res.objective == F(-1)
    assert sum(res.x[:2]) == F(1)
    assert all(v >= 0 for v in res.x)


def test_degenerate_vertex_terminates():
    # Multiple constraints active at the optimum; Bland's rule must not cycle.
    A = [
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [1, 1, 0, 0, 1],
    ]
    res = solve_equality_form(A, [1, 1, 2], [-1, -1, 0, 0, 0])
    assert res.status == OPTIMAL
    assert res.objective == F(-2)


def test_infeasible_gives_farkas_certificate():
    # x1 = 1 and x1 = 2 cannot hold together; the Farkas vector y must
    # satisfy y.A <= 0 columnwise with y.b > 0.
    A = [[1, 0], [1, 0]]
    b = [F(1), F(2)]
    res = solve_equality_form(A, b, [0, 0])
    assert res.status == INFEASIBLE
    y = res.farkas
    for j in range(2):
        assert sum(y[i] * A[i][j] for i in range(2)) <= 0
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0


def test_unbounded_detected():
    # min -x1 with x1 - x2 = 0: push both variables to infinity.
    res = solve_equality_form([[1, -1]], [0], [-1, 0])
    assert res.status == UNBOUNDED


def test_dual_certifies_optimum():
    A = [[2, 1, 1, 0], [1, 3, 0, 1]]
    b = [F(4), F(6)]
    c = [F(-3), F(-5), F(0), F(0)]
    res = solve_equality_form(A, b, c)
    assert res.status == OPTIMAL
    # Strong duality: y.b equals the optimum and A^T y <= c.
    assert sum(yi * bi for yi, bi in zip(res.dual, b)) == res.objective
    for j in range(4):
        assert sum(res.dual[i] * A[i][j] for i in range(2)) <= c[j]


def test_phase_one_status_is_checked(monkeypatch):
    # Phase 1 is bounded below by zero; a non-optimal status must raise,
    # also under python -O.
    monkeypatch.setattr(pslocal.linprog, "_run_simplex", lambda *args: UNBOUNDED)
    with pytest.raises(CertificateInvalid):
        solve_equality_form([[1, 1]], [1], [0, 0])


def test_maximize_over_square():
    rows = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    rhs = [1, 1, 1, 1]
    assert maximize_over_hrep(rows, rhs, [1, 1]) == F(2)
    assert maximize_over_hrep(rows, rhs, [F(1, 3), F(-2, 5)]) == F(11, 15)


def test_maximize_reports_empty_and_unbounded():
    with pytest.raises(Infeasible):
        maximize_over_hrep([[1], [-1]], [F(-1), F(-1)], [1])
    with pytest.raises(Unbounded):
        maximize_over_hrep([[1, 0]], [1], [0, 1])


def test_exact_system_skips_dependent_rows():
    # The second row repeats the first; x3 has no pivot and is set to zero.
    rows = [[1, 1, 0], [2, 2, 0], [0, 1, 1]]
    assert solve_exact_system(rows, [F(1, 3), F(2, 3), F(1, 2)], 3) == [
        F(-1, 6), F(1, 2), F(0)
    ]
    assert solve_exact_system([[1, 2], [3, 4]], [F(5), F(6)], 2) == [F(-4), F(9, 2)]


def test_coprime_integers():
    assert coprime_integers([F(1, 2), F(-3, 4), 0]) == (2, -3, 0)
    assert coprime_integers((6, -9, 12)) == (2, -3, 4)
    assert coprime_integers([0, 0]) == (0, 0)
    assert all(type(v) is int for v in coprime_integers([F(4), 2]))


def test_guided_point_is_exact():
    A = [[1, 1, 1], [1, 0, 2]]
    b = [F(1), F(1, 3)]
    x = _guided_point(A, b, [0, 0, 0]).x
    assert all(isinstance(v, Fraction) and v >= 0 for v in x)
    for row, bi in zip(A, b):
        assert sum(a * v for a, v in zip(row, x)) == bi


def test_guided_farkas_is_exact():
    A = [[1, 0], [1, 0]]
    b = [F(1), F(2)]
    y = _guided_farkas(A, b, [0, 0]).farkas
    for j in range(2):
        assert sum(y[i] * A[i][j] for i in range(2)) <= 0
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0


@st.composite
def lp_systems(draw):
    """A small exact LP (A, b, c) built to have the drawn status: b = A.x0
    for a drawn x0 >= 0 with a row bounding sum(x) (optimal), then two
    rows that contradict each other (infeasible) or a zero column of
    negative cost (unbounded)."""
    status = draw(st.sampled_from([OPTIMAL, INFEASIBLE, UNBOUNDED]))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    x0 = draw(st.lists(st.fractions(0, 3, max_denominator=4), min_size=n, max_size=n))
    c = draw(st.lists(entry, min_size=n, max_size=n))
    A = A + [[1] * n]
    b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    if status == INFEASIBLE:
        A = A + [A[0]]
        b = b + [b[0] + draw(st.sampled_from([F(-1, 2), F(1)]))]
    elif status == UNBOUNDED:
        A = [row + [0] for row in A]
        c = c + [-1]
    return status, A, b, c


@settings(max_examples=150, deadline=None)
@given(lp_systems())
def test_solve_lp_matches_exact_simplex(system):
    status, A, b, c = system
    res = solve_lp(A, b, c)
    ref = solve_equality_form(A, b, c)
    assert res.status == ref.status == status
    assert res.objective == ref.objective
    certify(A, b, c, res)
    certify(A, b, c, ref)


@pytest.mark.parametrize("tamper", [
    lambda r: LPResult(r.status, x=r.x, objective=r.objective + 1, dual=r.dual),
    lambda r: LPResult(r.status, x=[-v for v in r.x], objective=r.objective, dual=r.dual),
    lambda r: LPResult(r.status, x=r.x, objective=r.objective),
    lambda r: LPResult(INFEASIBLE, farkas=r.dual),
    lambda r: LPResult(UNBOUNDED, x=r.x),
])
def test_certify_rejects_tampered_results(tamper):
    A = [[2, 1, 1, 0], [1, 3, 0, 1]]
    b = [F(4), F(6)]
    c = [F(-3), F(-5), F(0), F(0)]
    res = solve_lp(A, b, c)
    certify(A, b, c, res)
    with pytest.raises(CertificateInvalid):
        certify(A, b, c, tamper(res))


def test_unbounded_ray_certifies():
    res = solve_equality_form([[1, -1]], [0], [-1, 0])
    certify([[1, -1]], [0], [-1, 0], res)
    assert res.ray == [F(1), F(1)]


def test_hrep_with_wrong_guides_falls_back(wrong_guides):
    rows = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    rhs = [1, 1, 1, 1]
    assert maximize_over_hrep(rows, rhs, [1, 1]) == F(2)
    assert maximize_over_hrep(rows, rhs, [F(1, 3), F(-2, 5)]) == F(11, 15)
    assert len(wrong_guides) == 2
    with pytest.raises(Infeasible):
        maximize_over_hrep([[1], [-1]], [F(-1), F(-1)], [1])
    with pytest.raises(Unbounded):
        maximize_over_hrep([[1, 0]], [1], [0, 1])
