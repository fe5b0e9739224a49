import os
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pslocal.linprog
from pslocal.core import CHSH, CGVector, Efficiencies, lift, named_correlation, to_cg
from pslocal.errors import CertificateInvalid, Infeasible, Unbounded
from pslocal.inequalities import inequality_from_key
from pslocal.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPResult,
    Numerators,
    _guided_nnls,
    _guided_point,
    certify,
    common_denominator,
    coprime_integers,
    exact_matrix,
    int_matmul,
    maximize_over_hrep,
    row_reduce,
    slacks,
    solve_equality_form,
    solve_exact_system,
    solve_lp,
)
from pslocal.polytope import local_polytope

from conftest import record_dtypes

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
    """The exact least-squares residual is the Farkas vector; b given as
    rationals or as integer numerators over one denominator gives the same."""
    A = [[1, 0], [1, 0]]
    b = [F(1), F(2)]
    res = _guided_nnls(A, b, [0, 0])
    assert res.status == INFEASIBLE
    assert _guided_nnls(A, Numerators([3, 6], 3), [0, 0]) == res
    y = res.farkas
    assert y == [-1, 1]
    for j in range(2):
        assert sum(y[i] * A[i][j] for i in range(2)) <= 0
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0


def test_guided_nnls_point_is_exact():
    """A zero exact residual makes lam / det on the passive set the point:
    Fractions only where it is non-zero, the int 0 elsewhere."""
    A = [[1, 1, 1], [F(1, 2), 1, 0]]
    b = Numerators([6, 5], 6)  # (1, 5/6)
    res = _guided_nnls(A, b, [0, 0, 0])
    assert res.status == OPTIMAL and res.objective == 0 and res.dual == [0, 0]
    assert sum(res.x) == 1 and F(1, 2) * res.x[0] + res.x[1] == F(5, 6)
    assert all(type(v) is (Fraction if v else int) and v >= 0 for v in res.x)
    certify(A, b, [0, 0, 0], res)
    assert _guided_nnls(A, b, [0, 0, 1]) is None  # a point is no optimum when c != 0


@st.composite
def lp_systems(draw):
    """A small exact LP (A, b, c) built to have the drawn status: b = A.x0
    for a drawn x0 >= 0 with a row bounding sum(x) (optimal), then two
    rows that contradict each other (infeasible) or a zero column of
    negative cost (unbounded).  A third of the optimal and infeasible
    systems have c = 0, the feasibility LPs that NNLS alone guides."""
    status = draw(st.sampled_from([OPTIMAL, INFEASIBLE, UNBOUNDED]))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    # Rational entries, so that the per-row integer scaling is exercised.
    a_entry = st.fractions(-3, 3, max_denominator=4)
    A = draw(st.lists(st.lists(a_entry, min_size=n, max_size=n), min_size=m, max_size=m))
    x0 = draw(st.lists(st.fractions(0, 3, max_denominator=4), min_size=n, max_size=n))
    c = draw(st.lists(entry, min_size=n, max_size=n))
    if status != UNBOUNDED and draw(st.integers(0, 2)) == 0:
        c = [0] * n
    A = A + [[1] * n]
    b = [sum((a * v for a, v in zip(row, x0)), F(0)) for row in A]
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


TAMPERS = [
    lambda r: LPResult(r.status, x=r.x, objective=r.objective + 1, dual=r.dual),
    lambda r: LPResult(r.status, x=[-v for v in r.x], objective=r.objective, dual=r.dual),
    lambda r: LPResult(r.status, x=r.x, objective=r.objective),
    lambda r: LPResult(INFEASIBLE, farkas=r.dual),
    lambda r: LPResult(UNBOUNDED, x=r.x),
    lambda r: LPResult(r.status, x=r.x, objective=r.objective, dual=[v + 1 for v in r.dual]),
    lambda r: LPResult(UNBOUNDED, x=r.x, ray=r.x),
]


@pytest.mark.parametrize("tamper", TAMPERS)
def test_certify_rejects_tampered_results(tamper):
    A = [[2, 1, 1, 0], [1, 3, 0, 1]]
    b = [F(4), F(6)]
    c = [F(-3), F(-5), F(0), F(0)]
    res = solve_lp(A, b, c)
    certify(A, b, c, res)
    with pytest.raises(CertificateInvalid):
        certify(A, b, c, tamper(res))


@pytest.mark.parametrize("tamper", TAMPERS)
def test_certify_rejects_tampered_results_past_int64(monkeypatch, tamper):
    """The same LP with A times K, b and c times K**2: x and y scale by
    K, and rows, x and y all pass 2**62.  certify's products run in
    Python ints, accept the optimum and reject every tampered copy."""
    K = 2 ** 62 + 1
    A = [[2, 1, 1, 0], [1, 3, 0, 1]]
    b, c = [F(4), F(6)], [F(-3), F(-5), F(0), F(0)]
    res = solve_lp(A, b, c)
    A = [[K * v for v in row] for row in A]
    b, c = [K * K * v for v in b], [K * K * v for v in c]
    res = LPResult(
        OPTIMAL, x=[K * v for v in res.x], objective=K ** 3 * res.objective,
        dual=[K * v for v in res.dual],
    )
    M = exact_matrix(A)
    assert M.ints.dtype == object
    seen = record_dtypes(monkeypatch, pslocal.linprog)
    certify(M, b, c, res)
    assert seen and set(seen) == {object}
    with pytest.raises(CertificateInvalid):
        certify(M, b, c, tamper(res))


@pytest.mark.parametrize("K", [1, 2 ** 62 + 1], ids=["int64", "object"])
def test_nnls_farkas_in_int64_and_past_it(monkeypatch, K):
    """Rows 1 + 2 equal row 3 but their right-hand sides do not: NNLS
    leaves a residual, whose normal equations run in Python ints past
    2**62, and its Farkas vector certifies without the exact simplex."""
    A = [[K, 2 * K, 0], [0, K, K], [K, 3 * K, K]]
    b, c = [K, K, 3 * K], [0, 0, 0]
    seen = record_dtypes(monkeypatch, pslocal.linprog)
    monkeypatch.setattr(pslocal.linprog, "solve_equality_form", None)  # never reached
    res = solve_lp(A, b, c)
    assert res.status == INFEASIBLE
    certify(A, b, c, res)
    assert (object in seen) == (K > 1)


def _membership_lp(eta):
    """The membership LP of the PR box lifted at (eta, eta), with b as
    integer numerators over one denominator, as `is_ps_local` gives it."""
    q = to_cg(lift(named_correlation("PR"), Efficiencies.of(eta, eta)))
    A = local_polytope(q.scenario).lp_matrix
    nums, den = common_denominator(q.coords)
    return A, Numerators(nums + [den], den), [0] * len(A.cols)


@pytest.mark.parametrize("eta", [F(2, 3), F(3, 4)])
def test_wrong_adjugate_falls_back_to_row_reduce(monkeypatch, eta):
    """The adjugate that the float Cholesky inversion proposes, forced wrong
    by one in one entry: the exact check adj G = det I rejects it, and
    `row_reduce` re-solves the normal equations to the same certificate,
    which verifies and matches the exact simplex's verdict."""
    A, b, c = _membership_lp(eta)
    fast = solve_lp(A, b, c)
    real_dposv, reduced = pslocal.linprog.dposv, []

    def off_by_one(G, eye):
        chol, inv, info = real_dposv(G, eye)
        inv[0, 0] += 1 / round(np.linalg.det(G))
        return chol, inv, info

    real_reduce = pslocal.linprog.row_reduce
    monkeypatch.setattr(pslocal.linprog, "dposv", off_by_one)
    monkeypatch.setattr(
        pslocal.linprog, "row_reduce", lambda *a: reduced.append(a) or real_reduce(*a)
    )
    res = solve_lp(A, b, c)
    assert len(reduced) == 1
    assert res == fast
    certify(A, b, c, res)
    rows = [[F(v, s) for v in row] for row, s in zip(A.rows, A.scale)]
    assert res.status == solve_equality_form(rows, [F(v, b.den) for v in b.nums], c).status
    assert res.status == (OPTIMAL if eta == F(2, 3) else INFEASIBLE)


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


def _fraction_elimination(rows, n):
    """Textbook Gaussian elimination in Fractions: the indices of the rows
    kept (independent of those before, at most n) and the solution of the
    kept rows for the last column, unknowns without a pivot set to zero."""
    kept, pivots = [], []
    for idx, row in enumerate(rows):
        vec = [F(v) for v in row]
        for col, prow in pivots:
            factor = vec[col]
            vec = [a - factor * p for a, p in zip(vec, prow)]
        col = next((j for j in range(n) if vec[j]), None)
        if col is None:
            continue
        vec = [v / vec[col] for v in vec]
        kept.append(idx)
        pivots.append((col, vec))
        if len(pivots) == n:
            break
    x = [F(0)] * n
    for col, prow in reversed(pivots):
        x[col] = prow[n] - sum(prow[j] * x[j] for j in range(n) if j != col)
    return kept, x


@st.composite
def exact_systems(draw):
    """Rows [A | b] with rational entries, some of them combinations of
    earlier rows, so that dependent rows are met and skipped."""
    n = draw(st.integers(1, 5))
    value = st.fractions(-4, 4, max_denominator=4)
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        if rows and draw(st.booleans()):
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, c = draw(value), draw(value)
            rows.append([a * u + c * v for u, v in zip(rows[i], rows[j])])
        else:
            rows.append(draw(st.lists(value, min_size=n + 1, max_size=n + 1)))
    return rows, n


@settings(max_examples=200, deadline=None)
@given(exact_systems())
def test_integer_elimination_matches_fractions(system):
    rows, n = system
    kept, x = _fraction_elimination(rows, n)
    got, pivots = row_reduce(rows, n)
    assert got == kept
    assert solve_exact_system([r[:n] for r in rows], [r[n] for r in rows], n) == x
    for k, (col, nz, prow) in enumerate(pivots):
        assert all(type(v) is int for v in prow)
        assert prow[col] > 0 and coprime_integers(prow) == tuple(prow)
        assert nz == [j for j, v in enumerate(prow) if v]
        assert all(prow[c] == 0 for c, _, _ in pivots[:k])


def test_exact_matrix_scales_rows_to_integers():
    A = [[F(1, 2), F(-1, 3), 0], [1, 2, 3]]
    M = exact_matrix(A)
    assert M.rows == ((3, -2, 0), (1, 2, 3))
    assert M.scale == (6, 1)
    assert M.cols == ((3, 1), (-2, 2), (0, 3))
    assert M.dense.tolist() == [[0.5, -1 / 3, 0.0], [1.0, 2.0, 3.0]]
    assert exact_matrix(M) is M


def test_certify_raises_under_python_O():
    """The certificate checks are real checks: a python -O run, which
    strips asserts, still rejects a tampered membership certificate and
    forged certificates of an LP whose b is integer numerators over one
    denominator (A has a row scaled by 2): a point with one negative
    weight that meets A.x = b, a non-negative point that misses b in one
    row, and a Farkas vector with y.b > 0 but y.A_j > 0 in one column."""
    code = """
import sys
from fractions import Fraction
from pslocal.core import Efficiencies, lift, named_correlation, to_cg
from pslocal.errors import CertificateInvalid
from pslocal.linprog import INFEASIBLE, OPTIMAL, LPResult, Numerators, certify, solve_lp
from pslocal.polytope import local_polytope

if __debug__:
    sys.exit("asserts are on")
for eta in (Fraction(2, 3), Fraction(3, 4)):
    q = to_cg(lift(named_correlation("PR"), Efficiencies.of(eta, eta)))
    A = local_polytope(q.scenario).lp_matrix
    b, c = list(q.coords) + [1], [0] * len(A.cols)
    res = solve_lp(A, b, c)
    certify(A, b, c, res)
    if res.x is not None:  # inside: move one vertex's weight to another
        x = list(res.x)
        j = next(j for j, v in enumerate(x) if v)
        x[j - 1], x[j] = x[j - 1] + x[j], Fraction(0)
        tampered = LPResult(res.status, x=x, objective=res.objective, dual=res.dual)
    else:  # outside: flip the separator
        tampered = LPResult(res.status, farkas=[-v for v in res.farkas])
    try:
        certify(A, b, c, tampered)
    except CertificateInvalid:
        print(res.status, "rejected")
A, c, half = [[1, 1, 1], [Fraction(1, 2), 1, Fraction(3, 2)]], [0, 0, 0], Fraction(1, 2)
b = Numerators([2, 2], 2)  # (1, 1): x = (0, 1, 0) is a point
certify(A, b, c, LPResult(OPTIMAL, x=[0, 1, 0], objective=0, dual=[0, 0]))
forged = [
    ("negative weight", b, LPResult(OPTIMAL, x=[3 * half / 2, -half, 3 * half / 2], objective=0, dual=[0, 0])),
    ("missed row", b, LPResult(OPTIMAL, x=[1, 0, 0], objective=0, dual=[0, 0])),
    ("positive column", Numerators([4, 5], 4), LPResult(INFEASIBLE, farkas=[-2, 2])),
]
for name, rhs, result in forged:
    try:
        certify(A, rhs, c, result)
    except CertificateInvalid:
        print(name, "rejected")
"""
    # Each forged certificate fails exactly one of certify's checks.
    A, x = [[1, 1, 1], [F(1, 2), 1, F(3, 2)]], [F(3, 4), F(-1, 2), F(3, 4)]
    assert [sum(a * v for a, v in zip(row, x)) for row in A] == [1, 1]
    assert [sum(a * v for a, v in zip(row, [1, 0, 0])) for row in A] == [1, F(1, 2)]
    assert [-2 * u + 2 * v for u, v in zip(*A)] == [-1, 0, 1] and -2 + 2 * F(5, 4) > 0
    src = os.path.dirname(os.path.dirname(pslocal.linprog.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:-1] == [
        "optimal rejected", "infeasible rejected",
        "negative weight rejected", "missed row rejected", "positive column rejected",
    ]


def _python_product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@pytest.mark.parametrize(
    "A, B",
    [
        ([[2 ** 53 - 1]], [[1]]),  # float64 BLAS, at its last exact integer
        ([[2 ** 53 + 1]], [[1]]),  # past it: int64
        ([[-(2 ** 53 + 1)]], [[-1]]),
        ([[2 ** 52 + 1, 2 ** 52]], [[1], [1]]),  # the sum passes 2**53
        ([[2 ** 52 + 1, -(2 ** 52)], [3, -5]], [[-1, 2], [1, 3]]),
        ([[2 ** 62 + 1, 1]], [[1], [-1]]),  # Python ints
    ],
)
def test_int_matmul_is_exact_around_2_53(A, B):
    bound = max(abs(v) for row in A for v in row) * max(abs(v) for row in B for v in row) * len(B)
    got = int_matmul(A, B, bound)
    assert got.tolist() == _python_product(A, B)
    assert got.dtype == (object if bound >= 2 ** 62 else np.int64)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_int_matmul_matches_python_ints(data):
    """Entries near the largest M with M * M * k below 2**53, and near
    2**31, so that the bound falls just below or just above 2**53."""
    k = data.draw(st.integers(1, 5))
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    top = data.draw(st.sampled_from([isqrt(2 ** 53 // k) + d for d in (-2, -1, 0, 1, 2)]))
    entry = st.one_of(st.sampled_from([top, -top, top - 1, -(top - 1)]), st.integers(-top, top))
    A = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    B = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    bound = max(abs(v) for row in A for v in row) * max(abs(v) for row in B for v in row) * k
    assert int_matmul(A, B, bound).tolist() == _python_product(A, B)
    assert int_matmul(np.array(A), np.array(B), bound).tolist() == _python_product(A, B)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_slacks_match_fraction_slack(data):
    """S[i, j] is den_j times `Inequality.slack` of key i at point j, for
    entries near the float64 limit of the product, past 2**53, past 2**62
    and past float range (as rows and as their `exact_matrix`)."""
    tops = [7, isqrt(2 ** 53 // 9), 2 ** 27, 2 ** 53 + 1, 2 ** 62 + 1, 2 ** 1100]
    top = data.draw(st.sampled_from(tops))
    entry = st.one_of(st.sampled_from([top, -top, top - 1, 0, 1]), st.integers(-top, top))
    key = st.lists(entry, min_size=9, max_size=9).map(tuple)
    row = st.tuples(st.integers(1, top), *[entry] * 8)
    keys = data.draw(st.lists(key, min_size=1, max_size=4))
    rows = data.draw(st.lists(row, min_size=1, max_size=4))
    want = [
        [den * inequality_from_key(CHSH, k).slack(CGVector(CHSH, [F(v, den) for v in nums]))
         for den, *nums in rows]
        for k in keys
    ]
    assert slacks(keys, rows).tolist() == want
    assert slacks(keys, exact_matrix(rows)).tolist() == want


def test_objective_lp_past_float_range():
    """b beyond float range leaves HiGHS no guide, as it leaves NNLS none;
    the exact simplex decides and its answer is certified."""
    big = F(10 ** 400)
    assert _guided_point([[1, 1]], [big], [1, 0]) is None
    result = solve_lp([[1, 1]], [big], [1, 0])
    assert result.status == OPTIMAL and result.objective == 0
    assert result.x == [0, big]


@pytest.mark.parametrize("A, c", [([[2 ** 1100, 1]], [0, 0]), ([[F(1, 2 ** 1100), 1]], [1, 0])])
def test_matrix_past_float_range(A, c):
    """A past float range has no float copy, so neither guide runs; the
    exact simplex decides and its answer is certified."""
    assert exact_matrix(A).dense is None
    assert _guided_point(A, [1], c) is None and _guided_nnls(A, [1], c) is None
    result = solve_lp(A, [1], c)
    certify(A, [1], c, result)
    assert result.status == solve_equality_form(A, [1], c).status == OPTIMAL
