"""Double description method over exact integer arithmetic.

Computes the extreme rays of a pointed polyhedral cone given by homogeneous
inequalities ``h . z >= 0``.  Facet enumeration of a full-dimensional
polytope conv(V) reduces to this: homogenize each vertex v into the row
(1, v); the extreme rays (r0, r) of the dual-side cone are exactly the
facets ``(-r) . x <= r0``.

Implementation notes:
* all ray vectors are kept as coprime integer tuples; the base, the
  initial cone and the scaling come from the exact core in `linprog`
  (`row_reduce`, `solution`, `coprime_integers`);
* active-constraint sets are bitmasks over the already-inserted rows; a
  (positive, negative) pair that shares at least dim - 2 of them (popcount
  prefilter) is adjacent iff no third ray is active on all rows they share
  (Fukuda & Prodon, *Double description method revisited*, 1996).  That
  test is evaluated on an inverted index built once per step, a bitmask
  over ray indices for each row: AND the masks of the shared rows and
  compare with the pair, at most one big-integer AND per shared row;
* constraints are inserted in lexicographic order of their normalized rows,
  which makes the output independent of the input ordering.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from .errors import BudgetExceeded
from .linprog import coprime_integers, row_reduce, solution


def extreme_rays(
    rows: Sequence[Sequence],
    deadline: Optional[float] = None,
) -> List[Tuple[int, ...]]:
    """Extreme rays of the pointed cone {z : row . z >= 0 for all rows}.

    The rows must positively span (i.e. the cone must be pointed) and
    contain ``dim`` linearly independent members.  Returns coprime integer
    ray vectors in sorted order.  ``deadline`` is an absolute
    time.monotonic() cap; exceeding it raises BudgetExceeded.
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
    rays = [coprime_integers(solution(pivots, dim, dim + i)[0]) for i in range(dim)]
    full_base_mask = (1 << dim) - 1
    masks = [full_base_mask ^ (1 << i) for i in range(dim)]
    in_base = set(base_idx)
    order = base_idx + [i for i in range(len(norm_rows)) if i not in in_base]

    n_processed = dim
    for step in range(dim, len(order)):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("double description ran over its time budget")
        h = norm_rows[order[step]]
        values = [sum(hi * ri for hi, ri in zip(h, ray)) for ray in rays]
        pos = [i for i, v in enumerate(values) if v > 0]
        neg = [i for i, v in enumerate(values) if v < 0]
        zero = [i for i, v in enumerate(values) if v == 0]
        bit = 1 << n_processed
        if not neg:
            for i in zero:
                masks[i] |= bit
            n_processed += 1
            continue

        # Inverted index: rays_on[j] is the set of rays (bitmask over ray
        # indices) active on inserted row j.
        rays_on = [0] * n_processed
        for k, m in enumerate(masks):
            ray_bit = 1 << k
            while m:
                low = m & -m
                rays_on[low.bit_length() - 1] |= ray_bit
                m ^= low
        all_rays = (1 << len(rays)) - 1
        new_rays: List[Tuple[int, ...]] = []
        new_masks: List[int] = []
        min_common = dim - 2
        for ip in pos:
            mp = masks[ip]
            vp = values[ip]
            rp = rays[ip]
            for ineg in neg:
                common = mp & masks[ineg]
                if common.bit_count() < min_common:
                    continue
                # Combinatorial adjacency: no third ray's active set
                # contains the common active set, i.e. the rays active on
                # every row of it are exactly this pair.
                pair = (1 << ip) | (1 << ineg)
                shared = all_rays
                c = common
                while c and shared != pair:
                    low = c & -c
                    shared &= rays_on[low.bit_length() - 1]
                    c ^= low
                if shared != pair:
                    continue
                vn = values[ineg]
                rn = rays[ineg]
                vec = coprime_integers([vp * b - vn * a for a, b in zip(rp, rn)])
                new_rays.append(vec)
                new_masks.append((common | bit))

        keep_rays = [rays[i] for i in pos]
        keep_masks = [masks[i] for i in pos]
        for i in zero:
            keep_rays.append(rays[i])
            keep_masks.append(masks[i] | bit)
        rays = keep_rays + new_rays
        masks = keep_masks + new_masks
        n_processed += 1

    return sorted(rays)


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
