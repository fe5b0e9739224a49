import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pslocal.dd
from pslocal.dd import _adjacent_pairs, extreme_rays, facets_of_polytope
from pslocal.errors import BudgetExceeded
from pslocal.inequalities import THREE_INPUT_L0
from pslocal.polytope import local_polytope

F = Fraction


def test_orthant_rays():
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert extreme_rays(rows) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_rays_are_scaled_coprime():
    rows = [(2, 0), (3, 5)]
    for ray in extreme_rays(rows):
        assert all(isinstance(v, int) for v in ray)


def _check_facets(vertices, facets):
    """Every facet must be valid and tight on at least dim vertices, and
    every vertex must satisfy every facet."""
    dim = len(vertices[0])
    for coeffs, rhs in facets:
        values = [
            sum(c * F(v) for c, v in zip(coeffs, vert)) for vert in vertices
        ]
        assert max(values) == rhs
        assert sum(1 for v in values if v == rhs) >= dim


def test_square_facets():
    vertices = list(itertools.product([0, 1], repeat=2))
    facets = facets_of_polytope(vertices)
    assert len(facets) == 4
    _check_facets(vertices, facets)


def test_cube_facets():
    vertices = list(itertools.product([-1, 1], repeat=3))
    facets = facets_of_polytope(vertices)
    assert len(facets) == 6
    _check_facets(vertices, facets)
    assert sorted(facets) == sorted(
        ((tuple(s if i == j else 0 for i in range(3)), 1))
        for j in range(3)
        for s in (-1, 1)
    )


def test_cross_polytope_facets():
    vertices = [
        tuple(s if i == j else 0 for i in range(4))
        for j in range(4)
        for s in (-1, 1)
    ]
    facets = facets_of_polytope(vertices)
    # The 4-dimensional cross-polytope is facet-described by all sign
    # patterns of +-x1 +- x2 +- x3 +- x4 <= 1.
    assert len(facets) == 16
    _check_facets(vertices, facets)


def test_simplex_with_interior_point():
    # Redundant input points (non-vertices) must not create facets.
    vertices = [(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))]
    facets = facets_of_polytope(vertices)
    assert len(facets) == 3
    _check_facets(vertices[:3], facets)


def test_budget_is_enforced():
    vertices = list(itertools.product([0, 1], repeat=10))
    with pytest.raises(BudgetExceeded):
        facets_of_polytope(vertices, deadline=time.monotonic() - 1)


def test_memory_stays_bounded():
    # numpy reports its buffers to tracemalloc; the blocked products keep
    # a step's temporaries to a few MB on the 72-vertex polytope (1260
    # facets, up to about 2300 intermediate rays).
    rows = [(1,) + tuple(v.coords) for v in local_polytope(THREE_INPUT_L0).vertices]
    tracemalloc.start()
    try:
        rays = extreme_rays(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rays) == 1260
    assert peak < 8 * 2 ** 20


def test_rank_deficiency_rejected():
    with pytest.raises(ValueError):
        extreme_rays([(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        extreme_rays([])
    with pytest.raises(ValueError):
        facets_of_polytope([])


def _det(m):
    """Integer determinant by the Leibniz formula (tiny matrices only)."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _brute_force_facets(points):
    """Facets (coeffs, rhs) of conv(points), coprime and sorted: every
    hyperplane through d affinely independent points that all points lie
    on one side of.  The hyperplane is the kernel of the rows (p, 1),
    given by the signed maximal minors (generalized cross product)."""
    d = len(points[0])
    facets = set()
    for subset in itertools.combinations(points, d):
        rows = [tuple(p) + (1,) for p in subset]
        normal = [
            (-1) ** k * _det([r[:k] + r[k + 1:] for r in rows])
            for k in range(d + 1)
        ]
        coeffs, rhs = normal[:d], -normal[d]
        if not any(coeffs):
            continue  # affinely dependent subset
        values = [sum(c * x for c, x in zip(coeffs, p)) for p in points]
        if all(v <= rhs for v in values):
            key = coeffs + [rhs]
        elif all(v >= rhs for v in values):
            key = [-c for c in coeffs] + [-rhs]
        else:
            continue
        g = math.gcd(*key)
        facets.add((tuple(c // g for c in key[:d]), key[d] // g))
    return sorted(facets)


def _full_dimensional(points):
    d = len(points[0])
    return any(
        _det([tuple(p) + (1,) for p in subset])
        for subset in itertools.combinations(points, d + 1)
    )


@st.composite
def point_sets(draw, scales=st.just(1)):
    """At most 10 integer points spanning a full-dimensional polytope in
    dimension 1 to 4; dimension 1 gives a cone of dimension 2, whose
    adjacent rays share no active row.  Every coordinate is multiplied by
    a scale drawn from ``scales``: around 2**30 the double description
    switches between int64 and Python ints from step to step, and at
    2**40 and above it runs in Python ints throughout."""
    d = draw(st.integers(1, 4))
    # A small coordinate range puts many points on common faces.
    size = draw(st.integers(1, 3))
    scale = draw(scales)
    point = st.tuples(*[st.integers(-size, size).map(lambda c: c * scale)] * d)
    return draw(st.lists(point, min_size=d + 1, max_size=10).filter(_full_dimensional))


_DEGENERATE = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1),
               (0, 1, 0, -1), (-1, 0, 0, -1), (-1, 0, 1, -1), (-1, 0, -1, -1)]


@settings(max_examples=150, deadline=None)
@given(point_sets(scales=st.sampled_from([1, 2 ** 30 + 3, 2 ** 40 + 1])))
# Degenerate: a pair of rays passes the prefilter without being
# adjacent, so dropping the adjacency test adds a redundant facet.
@example(_DEGENERATE)
@example([tuple(c * (2 ** 61 + 1) for c in p) for p in _DEGENERATE])
@example([(0, 0), (2 ** 41, 1), (3, 2 ** 40 + 7), (-(2 ** 45), 5 ** 20)])
def test_facets_match_brute_force(points):
    facets = facets_of_polytope(points)
    assert facets == _brute_force_facets(points)
    # Python ints, not numpy scalars: JSON output and digests rely on it.
    assert all(type(v) is int for coeffs, rhs in facets for v in coeffs + (rhs,))


def _all_rays_pairs(act, pos, neg, dim):
    """The adjacency test against every ray at once: of the pairs sharing
    at least dim - 2 active rows, those whose common set C no third ray
    is active on (its row of C @ act.T, own entries set to -1, stays
    below |C|)."""
    p, n = np.nonzero(act[pos] @ act[neg].T >= dim - 2)
    cp, cn = pos[p], neg[n]
    common = act[cp] * act[cn]
    shared = common @ act.T
    rows = np.arange(len(cp))
    shared[rows, cp] = shared[rows, cn] = -1
    keep = shared.max(axis=1) < common.sum(axis=1)
    return cp[keep], cn[keep]


@st.composite
def ray_splits(draw):
    """A random 0/1 active matrix over a few rows and up to 70 rays, each
    ray positive, negative or zero on the inserted row, which is the last
    column (active exactly on the zero rays), and a cone dimension."""
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(2, 70))
    signs = draw(st.lists(st.sampled_from("+-0"), min_size=n, max_size=n))
    masks = draw(st.lists(st.integers(0, 2 ** rows - 1), min_size=n, max_size=n))
    act = np.array(
        [[m >> j & 1 for j in range(rows)] + [s == "0"] for m, s in zip(masks, signs)],
        dtype=np.float32,
    )
    signs = np.array(signs)
    pos, neg = np.flatnonzero(signs == "+"), np.flatnonzero(signs == "-")
    return act, pos, neg, draw(st.integers(2, rows + 3))


def _late_blockers():
    """33 zero rays active on the inserted row alone, then positive rays
    a = {0, 1} and c = {0} and negative ray b = {0}: the pairs (a, b) and
    (c, b) pass the first 32 rays and are blocked only later, by c and a."""
    act = np.zeros((36, 3), dtype=np.float32)
    act[:33, 2] = 1
    act[33, :2] = act[34, 0] = act[35, 0] = 1
    return act, np.array([33, 35]), np.array([34]), 3


@settings(max_examples=200, deadline=None)
# CHUNK_CELLS = 32 tests one candidate per chunk against blocks of 32 rays,
# so with more than 32 rays a pair's own rays can sit in different blocks.
@given(ray_splits(), st.sampled_from([32, 100, 2 ** 17]))
@example(_late_blockers(), 32)
def test_adjacency_matches_all_rays_test(split, chunk_cells):
    with mock.patch.object(pslocal.dd, "CHUNK_CELLS", chunk_cells):
        ip, ineg = _adjacent_pairs(*split)
    ref_p, ref_n = _all_rays_pairs(*split)
    assert ip.tolist() == ref_p.tolist() and ineg.tolist() == ref_n.tolist()
