import itertools
import time
from fractions import Fraction

import pytest

from pslocal.dd import extreme_rays, facets_of_polytope
from pslocal.errors import BudgetExceeded

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


def test_rank_deficiency_rejected():
    with pytest.raises(ValueError):
        extreme_rays([(1, 0), (2, 0)])
