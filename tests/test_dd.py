import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pslocal.dd import extreme_rays, facets_of_polytope
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
