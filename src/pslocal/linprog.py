"""The exact core: rational row reduction, coprime scaling and linear
programming with certificates.

`row_reduce` is the package's one Gaussian elimination: affine ranks, the
base and initial cone of the double description method and the exact
re-solves of the float guides all go through it.  `coprime_integers` is
its one normalizer of rational vectors to coprime integers (DD rays and
canonical inequality keys).

`solve_lp` is the one exact LP entry point: min c.x s.t. Ax = b, x >= 0.
Floating point guides it ("float guides, rationals certify"; Applegate,
Cook, Dash & Espinoza, Oper. Res. Lett. 35 (2007)).  HiGHS picks the
support of an optimal x and the columns of zero reduced cost, or the
active set of a separating vector; an exact re-solve of that choice gives
a rational candidate, and `certify` checks it: x and the dual y, a Farkas
vector, or an unbounded ray.  The float answer decides nothing.  When no
candidate passes, `solve_equality_form` decides: a dense two-phase tableau
simplex over `fractions.Fraction` whose answers carry the same exact
certificates.  Bland's rule guarantees termination; problems here are
small (at most a few hundred columns).  `maximize_over_hrep` solves
max c.x over {x : Rx <= r} as its dual, min r.y s.t. R^T y = c, y >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog as highs

from .errors import CertificateInvalid, Infeasible, Unbounded

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Float thresholds of the guides.  They only choose which columns or
# constraints the exact re-solve uses; no verdict rests on them.
SUPPORT_TOL = 1e-9
ACTIVE_TOL = 1e-6


@dataclass
class LPResult:
    """Outcome of an equality-form LP: min c.x s.t. Ax = b, x >= 0.

    ``dual`` satisfies dual.b = objective and c - dual.A >= 0 on optimality;
    ``farkas`` satisfies farkas.A <= 0 and farkas.b > 0 on infeasibility;
    on unboundedness ``x`` is feasible and ``ray`` satisfies ray >= 0,
    A.ray = 0 and c.ray < 0.  `certify` checks all of these.
    """

    status: str
    x: Optional[list] = None
    objective: Optional[Fraction] = None
    dual: Optional[list] = None
    farkas: Optional[list] = None
    ray: Optional[list] = None


def _pivot(tableau: List[list], basis: List[int], row: int, col: int) -> None:
    prow = tableau[row]
    pivot = prow[col]
    if pivot != 1:
        inv = ONE / pivot
        tableau[row] = prow = [v * inv for v in prow]
    for i, r in enumerate(tableau):
        if i == row:
            continue
        factor = r[col]
        if factor:
            tableau[i] = [a - factor * p for a, p in zip(r, prow)]
    basis[row] = col


def _run_simplex(tableau: List[list], basis: List[int], n_enterable: int) -> str:
    """Bland's rule: smallest-index entering column among the first
    ``n_enterable``, smallest ratio then smallest basis index leaving."""
    while True:
        cost = tableau[-1]
        col = -1
        for j in range(n_enterable):
            if cost[j] < 0:
                col = j
                break
        if col < 0:
            return OPTIMAL
        row = -1
        best = None
        for i in range(len(tableau) - 1):
            aij = tableau[i][col]
            if aij > 0:
                ratio = tableau[i][-1] / aij
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[row]
                ):
                    best = ratio
                    row = i
        if row < 0:
            return UNBOUNDED
        _pivot(tableau, basis, row, col)


def solve_equality_form(
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> LPResult:
    """min c.x subject to Ax = b, x >= 0, everything exact."""
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    flipped = [False] * m
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
            flipped[i] = True

    # Tableau columns: n structural, m artificial, RHS.
    tableau = []
    for i in range(m):
        row = A[i] + [ZERO] * m + [b[i]]
        row[n + i] = ONE
        tableau.append(row)
    basis = list(range(n, n + m))

    # Phase 1: minimize the artificial sum.  The initial reduced-cost row
    # for cost (0,...,0 | 1,...,1) with the artificial basis is -sum(rows)
    # on the structural part and zero on the artificial part.
    cost = [ZERO] * (n + m + 1)
    for i in range(m):
        for j in range(n):
            cost[j] -= tableau[i][j]
        cost[-1] -= tableau[i][-1]
    tableau.append(cost)
    status = _run_simplex(tableau, basis, n)
    if status != OPTIMAL:  # bounded below by zero, so never unbounded
        raise CertificateInvalid(f"phase 1 reported {status}")
    if tableau[-1][-1] < 0:
        # Phase-1 optimum positive: infeasible.  Dual of phase 1 from the
        # artificial columns' reduced costs (artificial cost was 1 there).
        y = [ONE - tableau[-1][n + j] for j in range(m)]
        farkas = [-v if flipped[j] else v for j, v in enumerate(y)]
        return LPResult(status=INFEASIBLE, farkas=farkas)

    # Drive basic artificials out where possible; rows that cannot be
    # pivoted are redundant (all-zero structural part) and stay inert.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    _pivot(tableau, basis, i, j)
                    break

    # Phase 2 cost row for the real objective (artificial cost zero).
    cost = [Fraction(v) for v in c] + [ZERO] * (m + 1)
    for i, bi in enumerate(basis):
        if bi < n and cost[bi]:
            factor = cost[bi]
            cost = [cv - factor * av for cv, av in zip(cost, tableau[i])]
    tableau[-1] = cost
    status = _run_simplex(tableau, basis, n)
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tableau[i][-1]
    if status == UNBOUNDED:
        # Bland stopped at its entering column, which has no positive
        # entry: raising it while the basic variables follow is a ray.
        col = next(j for j in range(n) if tableau[-1][j] < 0)
        ray = [ZERO] * n
        ray[col] = ONE
        for i, bi in enumerate(basis):
            if bi < n:
                ray[bi] = -tableau[i][col]
        return LPResult(status=UNBOUNDED, x=x, ray=ray)
    objective = sum(ci * xi for ci, xi in zip(c, x))
    y = [-tableau[-1][n + j] for j in range(m)]
    dual = [-v if flipped[j] else v for j, v in enumerate(y)]
    return LPResult(status=OPTIMAL, x=x, objective=objective, dual=dual)


def maximize_over_hrep(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> Fraction:
    """Exact max of objective.x over {x : rows.x <= rhs} (x free).

    Solved as the dual, min rhs.y s.t. rows^T y = objective, y >= 0, whose
    optimum is the maximum.  A dual that is unbounded proves the
    polyhedron empty; a dual that is infeasible leaves it unbounded in the
    objective direction or empty, which a feasibility LP settles.  Raises
    Unbounded or Infeasible accordingly.
    """
    m, d = len(rows), len(objective)
    dual = solve_lp([[row[k] for row in rows] for k in range(d)], list(objective), list(rhs))
    if dual.status == OPTIMAL:
        return dual.objective
    if dual.status == INFEASIBLE:
        # rows.(u - v) + s = rhs with u, v, s >= 0.
        split = [
            list(row) + [-v for v in row] + _unit(i, m) for i, row in enumerate(rows)
        ]
        if solve_lp(split, list(rhs), [ZERO] * (2 * d + m)).status == OPTIMAL:
            raise Unbounded("objective unbounded over the H-polyhedron")
    raise Infeasible("empty H-polyhedron")


def coprime_integers(values: Sequence) -> Tuple[int, ...]:
    """Scale a rational vector (ints or Fractions) by a positive factor to
    coprime integers.  The zero vector stays zero."""
    denom = 1
    for v in values:
        if v.denominator != 1:
            denom = lcm(denom, v.denominator)
    if denom == 1:
        ints = [v.numerator for v in values]
    else:
        ints = [v.numerator * (denom // v.denominator) for v in values]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def row_reduce(rows: Sequence[Sequence], n: int) -> Tuple[List[int], List[tuple]]:
    """Forward elimination over the rationals.

    Each row has n coefficient columns, optionally followed by right-hand
    side columns that are carried along but never pivoted on.  Rows are
    taken in order and kept when independent of the rows kept before, up
    to n of them.  Returns the indices of the kept rows and, for each, its
    pivot as (pivot column, non-zero columns, row scaled to 1 at the
    pivot column).  Each pivot row is zero in the pivot columns of the
    rows kept before it, and elimination only touches non-zero columns.
    """
    kept: List[int] = []
    pivots: List[tuple] = []
    for idx, row in enumerate(rows):
        vec = [Fraction(v) for v in row]
        for col, nz, prow in pivots:
            factor = vec[col]
            if factor:
                for j in nz:
                    vec[j] -= factor * prow[j]
        col = next((j for j in range(n) if vec[j]), -1)
        if col < 0:
            continue
        inv = ONE / vec[col]
        prow = [v * inv for v in vec]
        kept.append(idx)
        pivots.append((col, [j for j, v in enumerate(prow) if v], prow))
        if len(pivots) == n:
            break
    return kept, pivots


def back_substitute(pivots: Sequence[tuple], n: int, rhs: int) -> List[Fraction]:
    """Solution of the kept rows of `row_reduce` for right-hand side
    column ``rhs``; unknowns without a pivot are set to zero.  Runs from
    the last pivot to the first (see the pivot order of `row_reduce`)."""
    x = [ZERO] * n
    for col, nz, prow in reversed(pivots):
        x[col] = prow[rhs] - sum(prow[j] * x[j] for j in nz if j != col and j < n)
    return x


def solve_exact_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], n: int
) -> List[Fraction]:
    """An exact solution of rows.x = rhs in n unknowns.

    Rows are taken in order and kept only when independent of the rows
    kept before, up to n of them; unknowns without a pivot are set to
    zero.  The result satisfies the kept rows, not necessarily the others:
    the caller verifies it.
    """
    _, pivots = row_reduce([list(row) + [r] for row, r in zip(rows, rhs)], n)
    return back_substitute(pivots, n, n)


def _float_optimum(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> Optional[tuple]:
    """HiGHS dual simplex on min c.x s.t. Ax = b, x >= 0: its basic
    solution x and dual y, or None when it reports no optimum."""
    res = highs(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        return None
    return res.x, res.eqlin.marginals


def _float_farkas(A: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """HiGHS dual simplex on the boxed separation LP
    max y.b s.t. y.A_j <= 0 for every column j, -1 <= y_i <= 1:
    its optimal vertex y, or None when it finds none."""
    res = highs(
        -b, A_ub=A.T, b_ub=np.zeros(A.shape[1]), bounds=(-1, 1), method="highs-ds"
    )
    if res.status != 0:
        return None
    return res.x


def _unit(i: int, m: int) -> list:
    return [ONE if k == i else ZERO for k in range(m)]


def _solve_active(active: list, m: int) -> List[Fraction]:
    """Exact y in m unknowns from (float slack, row, rhs) constraints
    row.y = rhs: those with slack within ACTIVE_TOL, tightest first."""
    active = sorted((a for a in active if a[0] <= ACTIVE_TOL), key=lambda a: a[0])
    return solve_exact_system([a[1] for a in active], [a[2] for a in active], m)


def _guided_point(A, b, c) -> Optional[LPResult]:
    """Exact candidate optimum, or None.

    HiGHS chooses the support of x and the active dual constraints.  x is
    re-solved exactly on the support, every other entry zero; y from
    y.A_j = c_j on columns of zero reduced cost and y_i = 0 where the float
    dual vanishes (rows whose logical is basic, e.g. redundant rows).
    """
    Af = np.array(A, dtype=float)
    cf = np.array(c, dtype=float)
    guide = _float_optimum(Af, np.array(b, dtype=float), cf)
    if guide is None:
        return None
    xf, yf = guide
    m, n = Af.shape
    support = [j for j, v in enumerate(xf) if v > SUPPORT_TOL]
    sol = solve_exact_system([[row[j] for j in support] for row in A], b, len(support))
    x = [ZERO] * n
    for j, v in zip(support, sol):
        x[j] = v
    y = [ZERO] * m
    if cf.any():
        y = _solve_active(
            [(s, [row[j] for row in A], c[j]) for j, s in enumerate(np.abs(cf - yf @ Af))]
            + [(abs(yi), _unit(i, m), ZERO) for i, yi in enumerate(yf)],
            m,
        )
    objective = sum((ci * xi for ci, xi in zip(c, x) if xi), ZERO)
    return LPResult(status=OPTIMAL, x=x, objective=objective, dual=y)


def _guided_farkas(A, b, c) -> Optional[LPResult]:
    """Exact candidate Farkas vector y (y.A <= 0 < y.b), or None.

    HiGHS solves the boxed separation LP (see `_float_farkas`); y is then
    re-solved exactly from the constraints active at the float optimum:
    columns with y.A_j = 0 and bounds y_i = +-1.
    """
    Af = np.array(A, dtype=float)
    y = _float_farkas(Af, np.array(b, dtype=float))
    if y is None:
        return None
    m = len(A)
    farkas = _solve_active(
        [(abs(s), [row[j] for row in A], ZERO) for j, s in enumerate(y @ Af)]
        + [(1 - abs(yi), _unit(i, m), ONE if yi > 0 else -ONE) for i, yi in enumerate(y)],
        m,
    )
    return LPResult(status=INFEASIBLE, farkas=farkas)


def certify(A, b, c, result: LPResult) -> None:
    """Raise CertificateInvalid unless result proves its status exactly.

    An optimum needs x >= 0, Ax = b, c - yA >= 0 and c.x = y.b (the
    objective); infeasibility y.A <= 0 < y.b; unboundedness a feasible x
    and a ray d >= 0 with Ad = 0 and c.d < 0.
    """
    m, n = len(A), len(c)

    def feasible(x, rhs) -> bool:
        if x is None or len(x) != n or any(v < 0 for v in x):
            return False
        used = [(j, v) for j, v in enumerate(x) if v]
        return all(sum(row[j] * v for j, v in used) == r for row, r in zip(A, rhs))

    def times_A(y) -> list:
        used = [(yi, row) for yi, row in zip(y, A) if yi]
        return [sum(yi * row[j] for yi, row in used if row[j]) for j in range(n)]

    def dot(u, v):
        return sum(p * q for p, q in zip(u, v) if p)

    status = result.status
    if status == OPTIMAL:
        y = result.dual
        ok = (
            feasible(result.x, b)
            and y is not None
            and len(y) == m
            and all(cj >= v for cj, v in zip(c, times_A(y)))
            and result.objective == dot(c, result.x) == dot(y, b)
        )
    elif status == INFEASIBLE:
        y = result.farkas
        ok = y is not None and len(y) == m and all(v <= 0 for v in times_A(y)) and dot(y, b) > 0
    else:
        ok = (
            status == UNBOUNDED
            and feasible(result.x, b)
            and feasible(result.ray, [ZERO] * m)
            and dot(c, result.ray) < 0
        )
    if not ok:
        raise CertificateInvalid(f"LP certificate for {status!r} does not verify")


def solve_lp(A, b, c) -> LPResult:
    """min c.x s.t. Ax = b, x >= 0, exactly, with a checked certificate.

    Floating point guides: `_guided_point`, then `_guided_farkas`, propose
    an exact answer; the first that passes `certify` is returned.  When
    neither does, `solve_equality_form` decides.  Every returned result
    has passed `certify`, which raises CertificateInvalid (also under
    ``python -O``).
    """
    for guide in (_guided_point, _guided_farkas):
        result = guide(A, b, c)
        if result is None:
            continue
        try:
            certify(A, b, c, result)
        except CertificateInvalid:
            continue
        return result
    result = solve_equality_form(A, b, c)
    certify(A, b, c, result)
    return result
