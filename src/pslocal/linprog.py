"""The exact core: integer row reduction, coprime scaling and linear
programming with certificates.

The core computes over integers; only its inputs and the certificates it
returns are rational (`fractions.Fraction`).  `row_reduce` is the
package's one Gaussian elimination, fraction-free: affine ranks, the base
and initial cone of the double description method and the exact
re-solves of the float guides all go through it.  `coprime_integers` is
the one normalizer of rational vectors to coprime integers (DD rays and
canonical inequality keys); `coprime_rows` is its array form, for the
integer matrices of the double description and the orbit search.

`solve_lp` is the one exact LP entry point: min c.x s.t. Ax = b, x >= 0,
over a matrix scaled to integers row by row once (`exact_matrix`), kept
also as an integer array that `certify` and the NNLS guide multiply with
(`int_matmul`: float64 BLAS below 2**53, int64 below the `int_dtype`
bound, else Python ints).  `slacks` is the one check of inequalities at
points: coprime keys (c, r) of c.x <= r against points as homogeneous
integer rows (d, n), all slacks r.d - c.n in one `int_matmul` whose bound
comes from its operands.  Floats guide the LPs ("float guides, integers
certify"; Applegate, Cook, Dash & Espinoza, Oper. Res. Lett. 35 (2007)).
NNLS alone guides a feasibility LP (c = 0, e.g. membership, whose b may
be integers over one denominator); in one exact least-squares step on
its passive set (Lawson & Hanson 1974, ch. 23) a zero residual makes a
point, a non-zero one a Farkas vector.  Other LPs try HiGHS first, for
the support of an optimal x and the columns of zero reduced cost.
`certify` checks each exact candidate (x and y, a Farkas vector, or an
unbounded ray) in integers; when none passes, `solve_equality_form`
decides: a dense two-phase tableau simplex over `fractions.Fraction`
(Bland's rule; at most a few hundred columns here) whose answers carry
the same certificates.  `maximize_over_hrep` solves max c.x over
{x : Rx <= r} as its dual, min r.y, R^T y = c, y >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.optimize import linprog as highs
from scipy.optimize import nnls

from .errors import CertificateInvalid, Infeasible, Unbounded

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Float thresholds of the guides.  They only choose which columns or
# constraints the exact re-solve uses; no verdict rests on them.  NNLS
# leaves noise of 1e-34..1e-17 in passive weights whose exact value is
# zero, beside true weights as small as 4e-10 (PASSIVE_TOL).
SUPPORT_TOL = 1e-9
ACTIVE_TOL = 1e-6
PASSIVE_TOL = 1e-12


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
    """min c.x subject to Ax = b, x >= 0, everything exact (b may be `Numerators`)."""
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v, b.den) for v in b.nums] if isinstance(b, Numerators) else [*map(Fraction, b)]
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


def common_denominator(values: Sequence) -> Tuple[List[int], int]:
    """Integer numerators over one positive common denominator D of a
    rational vector (ints or Fractions): values[i] == ints[i] / D."""
    denom = 1
    for v in values:
        if v.denominator != 1:
            denom = lcm(denom, v.denominator)
    if denom == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (denom // v.denominator) for v in values], denom


class Numerators(NamedTuple):
    """A rational vector as integers nums[i] / den, den > 0."""

    nums: list
    den: int


def coprime_integers(values: Sequence) -> Tuple[int, ...]:
    """Scale a rational vector (ints or Fractions) by a positive factor to
    coprime integers.  The zero vector stays zero."""
    ints, _ = common_denominator(values)
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def int_dtype(bound: int):
    """dtype of an exact integer matrix product whose partial sums are at
    most ``bound`` in absolute value: np.int64 below 2**62, else object
    (Python ints), so that the same code runs exactly either way."""
    return np.int64 if bound < 2 ** 62 else object


def coprime_rows(M: np.ndarray) -> np.ndarray:
    """The array form of `coprime_integers` for integer rows: each row of
    M divided by the gcd of its entries (a zero row stays zero)."""
    return M // np.maximum(np.gcd.reduce(M, axis=1, initial=0), 1)[:, None]


def row_reduce(rows: Sequence[Sequence], n: int) -> Tuple[List[int], List[tuple]]:
    """Forward elimination over the integers (gcd-reduced, fraction-free).

    Each row has n coefficient columns, optionally followed by right-hand
    side columns that are carried along but never pivoted on.  Rows are
    taken in order and kept when independent of the rows kept before, up
    to n of them.  Returns the indices of the kept rows and, for each, its
    pivot as (pivot column, non-zero columns, coprime integer row positive
    at the pivot column).  Each pivot row is zero in the pivot columns of
    the rows kept before it.
    """
    kept: List[int] = []
    pivots: List[tuple] = []
    for idx, row in enumerate(rows):
        vec = list(coprime_integers(row))
        for col, nz, prow in pivots:
            f = vec[col]
            if f:
                p = prow[col]
                if p != 1:
                    g = gcd(p, f)
                    p, f = p // g, f // g
                    if p != 1:
                        vec = [p * v for v in vec]
                for j in nz:
                    vec[j] -= f * prow[j]
        col = next((j for j in range(n) if vec[j]), -1)
        if col < 0:
            continue
        g = gcd(*vec) if vec[col] > 0 else -gcd(*vec)
        if g != 1:
            vec = [v // g for v in vec]
        kept.append(idx)
        pivots.append((col, [j for j, v in enumerate(vec) if v], vec))
        if len(pivots) == n:
            break
    return kept, pivots


def solution(pivots: Sequence[tuple], n: int, rhs: int) -> Tuple[List[int], int]:
    """Solution of the kept rows of `row_reduce` for right-hand side column
    ``rhs`` (unknowns without a pivot set to zero), by integer back
    substitution: numerators over one positive common denominator."""
    x = [0] * n
    denom = 1
    for col, nz, prow in reversed(pivots):
        num = prow[rhs] * denom - sum(prow[j] * x[j] for j in nz if j != col and j < n)
        g = gcd(num, prow[col])
        p = prow[col] // g
        if p != 1:
            x = [v * p for v in x]
            denom *= p
        x[col] = num // g
    return x, denom


def solve_exact_system(rows: Sequence[Sequence], rhs: Sequence, n: int) -> List[Fraction]:
    """An exact solution of rows.x = rhs in n unknowns.

    Rows are taken in order and kept only when independent of the rows
    kept before, up to n of them; unknowns without a pivot are set to
    zero.  The result satisfies the kept rows, not necessarily the others:
    the caller verifies it.
    """
    _, pivots = row_reduce([list(row) + [r] for row, r in zip(rows, rhs)], n)
    x, denom = solution(pivots, n, n)
    return [Fraction(v, denom) for v in x]


class ExactMatrix(NamedTuple):
    """An LP matrix A, built once: ``rows[i]`` is row i of A times the
    positive integer ``scale[i]``, ``cols`` the columns of ``rows``,
    ``dense`` A in floating point (None past float range), ``ints``
    ``rows`` as an integer array (int64, or object past the `int_dtype`
    bound) and ``bound`` the largest |entry| of ``rows`` (1 if all are
    zero).  A dual y of A is y / scale on rows."""

    rows: tuple
    scale: tuple
    cols: tuple
    dense: np.ndarray
    ints: np.ndarray
    bound: int


def exact_matrix(A) -> ExactMatrix:
    """`ExactMatrix` of a matrix of ints and Fractions (or A itself)."""
    if isinstance(A, ExactMatrix):
        return A
    rows, scale = [], []
    for row in A:
        ints, denom = common_denominator(row)
        rows.append(tuple(ints))
        scale.append(denom)
    try:
        dense = np.array(rows, dtype=float) / np.array(scale, dtype=float)[:, None]
    except OverflowError:  # past float range: no float guide (dense is None)
        dense = None
    bound = max((abs(v) for row in rows for v in row), default=0) or 1
    ints = np.array(rows, dtype=int_dtype(bound))
    return ExactMatrix(tuple(rows), tuple(scale), tuple(zip(*rows)), dense, ints, bound)


def with_rows(M: ExactMatrix, A) -> ExactMatrix:
    """`ExactMatrix` of M's rows followed by those of A, scaling only A's."""
    extra = exact_matrix(A)
    rows = M.rows + extra.rows
    return ExactMatrix(
        rows, M.scale + extra.scale, tuple(zip(*rows)),
        None if M.dense is None or extra.dense is None else np.vstack([M.dense, extra.dense]),
        np.vstack([M.ints, extra.ints]), max(M.bound, extra.bound),
    )


def int_matmul(A, B, bound: int) -> np.ndarray:
    """A @ B for integer arrays or lists whose products' partial sums are
    at most ``bound`` in absolute value, exactly: on float64 BLAS below
    2**53, where every such sum is a double, in any order; else in int64
    below the `int_dtype` bound, else in Python ints.  Returns an int64 or
    object array."""
    dtype = np.float64 if bound < 2 ** 53 else int_dtype(bound)
    product = np.asarray(A, dtype=dtype) @ np.asarray(B, dtype=dtype)
    return product.astype(np.int64) if dtype is np.float64 else product


def slacks(keys, rows) -> np.ndarray:
    """S[i, j] = r.d - c.n for keys (c..., r) of c.x <= r and points as homogeneous
    integer rows (d, n...), d > 0, or their `exact_matrix` (built once where they are
    reused): d times the slack of key i at the point n / d, >= 0 exactly when it
    satisfies the key.  One `int_matmul`, bounded by the operands' largest entries."""
    W = [(k[-1], *(-v for v in k[:-1])) for k in keys]
    built = isinstance(rows, ExactMatrix)
    top = rows.bound if built else max(abs(v) for row in rows for v in row)
    bound = max(abs(v) for w in W for v in w) * top * len(W[0])
    if built:
        rows = rows.dense if bound < 2 ** 53 else rows.ints
    return int_matmul(rows, list(zip(*W)), bound).T


def _scaled(M: ExactMatrix, b: Sequence) -> list:
    """b times the row scales: rows.x = that iff A.x = b (see ExactMatrix)."""
    return [v if s == 1 else s * v for s, v in zip(M.scale, b)]


def _float_optimum(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> Optional[tuple]:
    """HiGHS dual simplex on min c.x s.t. Ax = b, x >= 0: its basic
    solution x and dual y, or None when it reports no optimum."""
    res = highs(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        return None
    return res.x, res.eqlin.marginals


def _unit(i: int, m: int) -> list:
    return [1 if k == i else 0 for k in range(m)]


def _resolve_on(M: ExactMatrix, rhs: list, support: list) -> list:
    """x with rows.x = rhs re-solved exactly on the support columns and
    zero elsewhere (`certify` checks x >= 0 and the rows not kept)."""
    x = [ZERO] * len(M.cols)
    sol = solve_exact_system([[row[j] for j in support] for row in M.rows], rhs, len(support))
    for j, v in zip(support, sol):
        x[j] = v
    return x


def _guided_point(A, b, c) -> Optional[LPResult]:
    """Exact candidate optimum, or None.

    HiGHS chooses the support of x and the active dual constraints.  x is
    re-solved exactly on the support, every other entry zero; y from
    y.A_j = c_j on columns of zero reduced cost and y_i = 0 where the float
    dual vanishes (rows whose logical is basic, e.g. redundant rows).
    """
    M = exact_matrix(A)
    try:
        cf, bf = np.array(c, dtype=float), np.array(b, dtype=float)
    except OverflowError:  # b or c past float range
        return None
    guide = None if M.dense is None else _float_optimum(M.dense, bf, cf)  # None: A past float range
    if guide is None:
        return None
    xf, yf = guide
    m = len(M.rows)
    x = _resolve_on(M, _scaled(M, b), [j for j, v in enumerate(xf) if v > SUPPORT_TOL])
    # Constraints (float slack, row, rhs) of y / scale on the integer rows
    # (see ExactMatrix): those within ACTIVE_TOL, tightest first.
    active = sorted(
        (a for a in [(s, M.cols[j], c[j]) for j, s in enumerate(np.abs(cf - yf @ M.dense))]
         + [(abs(yi), _unit(i, m), 0) for i, yi in enumerate(yf)] if a[0] <= ACTIVE_TOL),
        key=lambda a: a[0],
    )
    y = solve_exact_system([a[1] for a in active], [a[2] for a in active], m)
    objective = sum((ci * xi for ci, xi in zip(c, x) if xi), ZERO)
    return LPResult(status=OPTIMAL, x=x, objective=objective, dual=_scaled(M, y))


def _least_squares(R: np.ndarray, B: list, bound: int) -> Tuple[list, int]:
    """Integers lam, det > 0 with G lam = det h, G = R^T R, h = R^T B (R integer,
    entries <= ``bound``): float Cholesky proposes det and adj = det G^-1, an exact
    adj G = det I confirms them, lam = adj h.  Else `row_reduce` solves it."""
    m, p = R.shape
    G = int_matmul(R.T, R, bound * bound * m)
    h = int_matmul(R.T, B, bound * max(map(abs, B), default=0) * m).tolist()
    if p and bound * bound * m < 2 ** 53:  # G exact in floats
        chol, inv, info = dposv(G.astype(float), np.eye(p))
        root = prod(chol.diagonal().tolist())  # sqrt(det G) if info == 0
        det = round(root * root) if info == 0 and 0.5 <= root * root < 2 ** 53 else 0
        if det:
            adj = np.rint(inv * det)
            top = np.abs(adj).max()
            if top < 2 ** 53:
                adj = adj.astype(np.int64)
                check = int_matmul(adj, G, int(top) * bound * bound * m * p)
                if (check == det * np.eye(p, dtype=np.int64)).all():
                    return int_matmul(adj, h, int(top) * max(map(abs, h)) * p).tolist(), det
    _, pivots = row_reduce([row + [v] for row, v in zip(G.tolist(), h)], p)
    return solution(pivots, p, p)


def _guided_nnls(A, b, c) -> Optional[LPResult]:
    """Exact candidate from non-negative least squares, or None.

    Lawson-Hanson NNLS on min |Rx - b'|, x >= 0 over the integer rows R
    (b' = B / D, b times the row scales) picks a passive set P.  One exact
    least-squares step: R_P^T R_P lam = det R_P^T B (`_least_squares`)
    and the residual r = det B - R_P lam.  r = 0 makes lam / (det D) on P
    a point (Fractions where non-zero, else 0), optimal with y = 0 if c = 0.
    Otherwise r.R_P = 0 < r.B, and r on A's rows is the Farkas candidate
    (`certify` checks r.R <= 0).  An A or b' beyond float range leaves no guide.
    """
    M = exact_matrix(A)
    if M.dense is None:  # A past float range
        return None
    B, D = b if isinstance(b, Numerators) else common_denominator(b)
    B = _scaled(M, B)
    try:
        bf = np.array([v / D for v in B])  # int / int rounds as float(Fraction)
        xf, _ = nnls(M.dense * np.array(M.scale, float)[:, None], bf)
    except (OverflowError, RuntimeError):  # b' past float range; iteration limit
        return None
    P = np.flatnonzero(xf > PASSIVE_TOL)
    R = M.ints[:, P]  # the passive columns
    lam, det = _least_squares(R, B, M.bound)
    fit = int_matmul(R, lam, M.bound * max(map(abs, lam), default=0) * len(P)).tolist()
    r = [v * det - f for v, f in zip(B, fit)]
    if any(r):
        farkas = coprime_integers([s * v for s, v in zip(M.scale, r)])
        return LPResult(status=INFEASIBLE, farkas=list(farkas))
    if any(c):
        return None
    x = [0] * len(M.cols)
    for j, v in zip(P, lam):
        x[j] = Fraction(v, det * D) if v else 0
    return LPResult(OPTIMAL, x, ZERO, [0] * len(M.rows))


def certify(A, b, c, result: LPResult) -> None:
    """Raise CertificateInvalid unless result proves its status exactly.

    An optimum needs x >= 0, Ax = b, c - yA >= 0 and c.x = y.b (the
    objective); infeasibility y.A <= 0 < y.b; unboundedness a feasible x
    and a ray d >= 0 with Ad = 0 and c.d < 0.  Every check runs in
    integers: each vector over one common denominator, A as `exact_matrix`.
    """
    M = exact_matrix(A)
    m, n = len(M.rows), len(c)
    B, b_den = b if isinstance(b, Numerators) else common_denominator(b)
    B = _scaled(M, B)
    C, c_den = common_denominator(c)

    def point(x, rhs) -> Optional[tuple]:
        """(numerators, denominator) of x if x >= 0 and rows.x = rhs / b_den."""
        if x is None or len(x) != n:
            return None
        X, den = common_denominator(x)
        if any(v < 0 for v in X):
            return None
        nz = [j for j, v in enumerate(X) if v]
        RX = int_matmul(M.ints[:, nz], [X[j] for j in nz], M.bound * max(X, default=0) * n).tolist()
        return (X, den) if all(v * b_den == r * den for v, r in zip(RX, rhs)) else None

    def dual(y) -> Optional[tuple]:
        """(numerators of y.A, of y.b, denominator), from y' = y / scale."""
        if y is None or len(y) != m:
            return None
        y = [v if s == 1 else Fraction(v) / s for v, s in zip(y, M.scale)]
        Y, den = common_denominator(y)
        if not any(Y):  # y.A = 0 without a product
            return [0] * n, 0, den
        YA = int_matmul(Y, M.ints, M.bound * max(map(abs, Y), default=0) * m)
        return YA.tolist(), dot(Y, B), den

    def dot(u, v) -> int:
        return sum(p * q for p, q in zip(u, v) if p)

    status = result.status
    if status == INFEASIBLE:
        y = dual(result.farkas)
        ok = y is not None and all(v <= 0 for v in y[0]) and y[1] > 0
    elif status == OPTIMAL:
        x, y = point(result.x, B), dual(result.dual)
        ok = (
            x is not None
            and y is not None
            and all(cj * y[2] >= v * c_den for cj, v in zip(C, y[0]))
            and result.objective
            == Fraction(dot(C, x[0]), c_den * x[1])
            == Fraction(y[1], y[2] * b_den)
        )
    else:
        x, ray = point(result.x, B), point(result.ray, [0] * m)
        ok = status == UNBOUNDED and x is not None and ray is not None and dot(C, ray[0]) < 0
    if not ok:
        raise CertificateInvalid(f"LP certificate for {status!r} does not verify")


def solve_lp(A, b, c) -> LPResult:
    """min c.x s.t. Ax = b, x >= 0, exactly, with a checked certificate.

    b is rational, or `Numerators` when c = 0.  Floats guide: `_guided_nnls`
    alone when c = 0 (feasibility), else `_guided_point` and then
    `_guided_nnls`; the first exact answer that passes `certify` is
    returned.  When none does, `solve_equality_form` decides.  Every returned
    result has passed `certify`, which raises CertificateInvalid (also
    under ``python -O``).
    """
    M = exact_matrix(A)
    for guide in (_guided_point, _guided_nnls) if any(c) else (_guided_nnls,):
        result = guide(M, b, c)
        if result is None:
            continue
        try:
            certify(M, b, c, result)
        except CertificateInvalid:
            continue
        return result
    rational_rows = [[Fraction(v, s) for v in row] for row, s in zip(M.rows, M.scale)]
    result = solve_equality_form(rational_rows, b, c)
    certify(M, b, c, result)
    return result
