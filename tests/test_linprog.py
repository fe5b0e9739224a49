from fractions import Fraction

import pytest

import pslocal.linprog
from pslocal.errors import CertificateInvalid, Infeasible, Unbounded
from pslocal.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    coprime_integers,
    guided_farkas,
    guided_point,
    maximize_over_hrep,
    solve_equality_form,
    solve_exact_system,
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
    x = guided_point(A, b)
    assert all(isinstance(v, Fraction) and v >= 0 for v in x)
    for row, bi in zip(A, b):
        assert sum(a * v for a, v in zip(row, x)) == bi


def test_guided_farkas_is_exact():
    A = [[1, 0], [1, 0]]
    b = [F(1), F(2)]
    y = guided_farkas(A, b)
    for j in range(2):
        assert sum(y[i] * A[i][j] for i in range(2)) <= 0
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0
