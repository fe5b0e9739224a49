"""The exact core: rational row reduction, coprime scaling and linear
programming with certificates.

`row_reduce` is the package's one Gaussian elimination: affine ranks, the
base and initial cone of the double description method and the exact
re-solves of the float guides all go through it.  `coprime_integers` is
its one normalizer of rational vectors to coprime integers (DD rays and
canonical inequality keys).

Linear programs are solved by a dense two-phase tableau simplex over
`fractions.Fraction`.  Bland's rule guarantees termination; all
certificates (primal solutions, dual vectors, Farkas infeasibility
vectors) are exact.  Problems here are small (at most a few hundred
columns), so a dense tableau is the simplest reliable choice.

Feasibility problems (Ax = b, x >= 0) can also be guided by floating point
("float guides, rationals certify"; Applegate, Cook, Dash & Espinoza,
Oper. Res. Lett. 35 (2007)).  HiGHS picks the support of a basic solution,
or the active set of a separating vector; `guided_point` and
`guided_farkas` re-solve that choice exactly and return a rational
candidate.  The float answer decides nothing: a candidate is only a
guess until the caller has verified it in rationals, and when it fails the
caller falls back to `solve_equality_form`.
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
    ``farkas`` satisfies farkas.A <= 0 and farkas.b > 0 on infeasibility.
    """

    status: str
    x: Optional[list] = None
    objective: Optional[Fraction] = None
    dual: Optional[list] = None
    farkas: Optional[list] = None


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
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)

    x = [ZERO] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tableau[i][-1]
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

    Raises Unbounded when the polyhedron is unbounded in the objective
    direction and Infeasible when it is empty.
    """
    m = len(rows)
    d = len(objective)
    # Split free variables and add slacks: rows.(u - v) + s = rhs.
    A = []
    for i, row in enumerate(rows):
        base = [Fraction(v) for v in row]
        arow = base + [-v for v in base] + [ZERO] * m
        arow[2 * d + i] = ONE
        A.append(arow)
    c = (
        [-Fraction(v) for v in objective]
        + [Fraction(v) for v in objective]
        + [ZERO] * m
    )
    result = solve_equality_form(A, list(rhs), c)
    if result.status == UNBOUNDED:
        raise Unbounded("objective unbounded over the H-polyhedron")
    if result.status == INFEASIBLE:
        raise Infeasible("empty H-polyhedron")
    return -result.objective


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


def _float_support(A: np.ndarray, b: np.ndarray) -> Optional[List[int]]:
    """HiGHS dual simplex on Ax = b, x >= 0: the support of its basic
    solution, or None when it finds none."""
    res = highs(
        np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds"
    )
    if res.status != 0:
        return None
    return [j for j, v in enumerate(res.x) if v > SUPPORT_TOL]


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


def guided_point(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Exact candidate x for Ax = b, x >= 0, or None.

    HiGHS chooses the support; the equations are re-solved exactly on the
    support columns with every other entry zero.  Unverified: the caller
    must check x >= 0 and Ax = b.
    """
    support = _float_support(np.array(A, dtype=float), np.array(b, dtype=float))
    if support is None:
        return None
    sol = solve_exact_system([[row[j] for j in support] for row in A], b, len(support))
    x = [ZERO] * len(A[0])
    for j, v in zip(support, sol):
        x[j] = v
    return x


def guided_farkas(
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Exact candidate Farkas vector y (y.A <= 0 < y.b), or None.

    HiGHS solves the boxed separation LP (see `_float_farkas`); y is then
    re-solved exactly from the constraints active at the float optimum,
    tightest first: columns with y.A_j = 0 and bounds y_i = +-1.
    Unverified: the caller must check both inequalities.
    """
    Af = np.array(A, dtype=float)
    y = _float_farkas(Af, np.array(b, dtype=float))
    if y is None:
        return None
    m = len(A)
    active = [
        (abs(s), [row[j] for row in A], ZERO) for j, s in enumerate(y @ Af)
    ] + [
        (1 - abs(yi), [ONE if k == i else ZERO for k in range(m)], ONE if yi > 0 else -ONE)
        for i, yi in enumerate(y)
    ]
    active = sorted((c for c in active if c[0] <= ACTIVE_TOL), key=lambda c: c[0])
    return solve_exact_system([c[1] for c in active], [c[2] for c in active], m)
