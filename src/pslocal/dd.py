"""Double description method over exact integer arithmetic.

Computes the extreme rays of a pointed polyhedral cone given by homogeneous
inequalities ``h . z >= 0``.  Facet enumeration of a full-dimensional
polytope conv(V) reduces to this: homogenize each vertex v into the row
(1, v); the extreme rays (r0, r) of the dual-side cone are exactly the
facets ``(-r) . x <= r0``.

Implementation notes:
* the rays are one integer matrix R, one coprime row per ray; the base,
  the initial cone and the scaling come from the exact core in `linprog`
  (`row_reduce`, `solution`, `coprime_integers`, `coprime_rows`).  A
  step's values R @ h and its new rays vp * rn - vn * rp run in int64
  while the bounds max|h| * max|R| * dim and 2 * max|v| * max|R| stay
  below 2**62, and in Python ints (dtype object) otherwise (`int_dtype`);
* active sets are a float32 0/1 matrix, rays x inserted rows, so that a
  matrix product counts shared rows exactly.  A (positive, negative) pair
  that shares at least dim - 2 active rows (prefilter, A[pos] @ A[neg].T)
  is adjacent iff no third ray is active on all rows they share: for
  their common set C, only the pair's own entries of C @ A.T reach |C|
  (Fukuda & Prodon, *Double description method revisited*, 1996).  The
  rays are tried likeliest blockers first (zero on the inserted row,
  then most active rows), 32 at first and then in blocks as wide as the
  surviving pairs allow; a pair is dropped at its first blocker and kept
  once every ray is tried, so the test stays exact;
* every product runs in blocks of at most CHUNK_CELLS cells, which bounds
  the temporaries of a step whatever the ray count;
* constraints are inserted in lexicographic order of their normalized rows,
  which makes the output independent of the input ordering.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceeded
from .linprog import coprime_integers, coprime_rows, int_dtype, row_reduce, solution

# Cells of the largest float32 block a step multiplies (0.5 MB): the
# prefilter's rows, the common sets of a candidate chunk and their counts
# against one block of rays.
CHUNK_CELLS = 2 ** 17


def _adjacent_pairs(act: np.ndarray, pos: np.ndarray, neg: np.ndarray, dim: int):
    """Index arrays (ip, ineg) of the adjacent (positive, negative) pairs,
    in row-major pair order; ``act`` is the active matrix of all rays, its
    last column the inserted row (active only on the rays zero there)."""
    act_neg = act[neg]
    block = max(1, CHUNK_CELLS // max(len(neg), act.shape[1]))
    cand_p, cand_n = [pos[:0]], [neg[:0]]
    for i in range(0, len(pos), block):
        p, n = np.nonzero(act[pos[i:i + block]] @ act_neg.T >= dim - 2)
        cand_p.append(pos[i + p])
        cand_n.append(neg[n])
    cand_p, cand_n = np.concatenate(cand_p), np.concatenate(cand_n)
    # A block of rays drops a pair when more of them are active on all of
    # C than the pair's own rays among them.
    order = np.lexsort((-act.sum(axis=1), -act[:, -1]))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    adjacent = np.zeros(len(cand_p), dtype=bool)
    block = max(1, CHUNK_CELLS // max(act.shape[1], 32))
    for i in range(0, len(cand_p), block):
        live = np.arange(i, min(i + block, len(cand_p)))
        common = act[cand_p[live]] * act[cand_n[live]]
        size = common.sum(axis=1, keepdims=True)
        start, width = 0, 32
        while len(live) and start < len(order):
            stop = start + width
            reach = (common @ act[order[start:stop]].T >= size).sum(axis=1)
            own = sum((start <= rank[c[live]]) & (rank[c[live]] < stop)
                      for c in (cand_p, cand_n))
            free = reach == own
            live, common, size = live[free], common[free], size[free]
            start, width = stop, CHUNK_CELLS // max(1, len(live))
        adjacent[live] = True
    return cand_p[adjacent], cand_n[adjacent]


def extreme_rays(
    rows: Sequence[Sequence],
    deadline: Optional[float] = None,
) -> List[Tuple[int, ...]]:
    """Extreme rays of the pointed cone {z : row . z >= 0 for all rows}.

    The rows must positively span (i.e. the cone must be pointed) and
    contain ``dim`` linearly independent members.  Returns coprime integer
    ray vectors (tuples of Python ints) in sorted order.  ``deadline`` is
    an absolute time.monotonic() cap; exceeding it raises BudgetExceeded.
    """
    norm_rows = sorted(set(coprime_integers(r) for r in rows))
    dim = len(norm_rows[0]) if norm_rows else 0
    base_idx, _ = row_reduce(norm_rows, dim)
    if not norm_rows or len(base_idx) < dim:
        raise ValueError("constraint rows do not have full rank")

    # Initial simplicial cone from the base rows: ray i solves
    # base . ray_i = e_i (column i of the inverse), so base_j . ray_i >= 0.
    # One reduction of [base | identity] yields every column.
    _, pivots = row_reduce(
        [norm_rows[k] + (0,) * i + (1,) + (0,) * (dim - 1 - i)
         for i, k in enumerate(base_idx)],
        dim,
    )
    rays = np.array(
        [coprime_integers(solution(pivots, dim, dim + i)[0]) for i in range(dim)],
        dtype=object,
    )
    in_base = set(base_idx)
    order = base_idx + [i for i in range(len(norm_rows)) if i not in in_base]
    # active[k, j] = 1 iff ray k is tight on the j-th inserted row.
    active = np.zeros((dim, len(order)), dtype=np.float32)
    active[:, :dim] = 1 - np.eye(dim, dtype=np.float32)

    for step in range(dim, len(order)):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("double description ran over its time budget")
        h = norm_rows[order[step]]
        max_ray = int(np.abs(rays).max())
        rays = rays.astype(int_dtype(max(map(abs, h)) * max_ray * dim), copy=False)
        values = rays @ np.array(h, dtype=rays.dtype)
        pos = np.flatnonzero(values > 0)
        neg = np.flatnonzero(values < 0)
        zero = np.flatnonzero(values == 0)
        active[zero, step] = 1
        if not len(neg):
            continue

        ip, ineg = _adjacent_pairs(active[:, :step + 1], pos, neg, dim)
        dtype = int_dtype(2 * int(np.abs(values).max()) * max_ray)
        vp = values[ip, None].astype(dtype)
        vn = values[ineg, None].astype(dtype)
        new_rays = coprime_rows(vp * rays[ineg].astype(dtype) - vn * rays[ip])
        new_active = active[ip] * active[ineg]
        new_active[:, step] = 1
        keep = np.concatenate([pos, zero])
        rays = np.concatenate([rays[keep].astype(dtype), new_rays])
        active = np.concatenate([active[keep], new_active])

    return sorted(map(tuple, rays.tolist()))


def facets_of_polytope(
    vertices: Sequence[Sequence],
    deadline: Optional[float] = None,
) -> List[Tuple[Tuple[int, ...], int]]:
    """Facets (coeffs, rhs) with coeffs.x <= rhs of a full-dimensional
    polytope given by its vertices (exact rational coordinates)."""
    rows = [(1,) + tuple(v) for v in vertices]
    rays = extreme_rays(rows, deadline=deadline)
    facets = []
    for ray in rays:
        rhs, coeffs = ray[0], ray[1:]
        facets.append((tuple(-c for c in coeffs), rhs))
    return sorted(facets)
