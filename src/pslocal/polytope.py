"""Local-polytope machinery: vertex enumeration, exact membership with
certificates, facet enumeration, and the post-selected membership oracle.

Vertices of a local polytope are deterministic strategy pairs; membership
is decided over the vertex list, returning either an explicit convex
combination or a separating inequality (Farkas dual).  That LP (guided
by NNLS alone) and the H-rep maximum `lp_max` (HiGHS first) go through
`linprog.solve_lp`: an exact integer re-solve and check certify, and the
exact simplex decides when the guides fail.  The membership matrix
(integer and float) is built once per polytope.  NS-triviality is not
an LP: the vertices of a scenario's non-signaling polytope are enumerated
once, by double description, and each check is one exact integer product
against them.  Facet enumeration goes through the double description
method; facet verification takes the vertices' slacks from `slacks`.
Ranks and LPs come from the integer exact core in `linprog`.
`is_ps_local` takes the lifted table's coordinates from the detection
map in integers (`core.lift_numerators`), as the LP takes them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    CGVector,
    Efficiencies,
    JointTable,
    Scenario,
    _layout,
    flat_index,
    flat_size,
    lift_numerators,
    to_cg,
    unflatten,
)
from .dd import extreme_rays, facets_of_polytope
from .errors import CertificateInvalid, DimensionMismatch, SizeLimit
from .inequalities import Inequality, inequality_from_key
from .linprog import (
    OPTIMAL,
    ExactMatrix,
    Numerators,
    common_denominator,
    coprime_rows,
    exact_matrix,
    maximize_over_hrep,
    row_reduce,
    slacks,
    solve_lp,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class Vertex:
    """A deterministic local strategy pair: one outcome per input per side."""

    scenario: Scenario
    strategy_A: tuple
    strategy_B: tuple

    def cells(self) -> tuple:
        """Flat indices (see `core.flat_index`) of the table's unit
        entries, one per input pair; every other entry is zero."""
        s = self.scenario
        return tuple(
            flat_index(s, x, y, a, b)
            for x, a in enumerate(self.strategy_A)
            for y, b in enumerate(self.strategy_B)
        )

    def table(self) -> JointTable:
        flat = [0] * flat_size(self.scenario)
        for i in self.cells():
            flat[i] = 1
        return unflatten(self.scenario, flat)

    def cg(self) -> CGVector:
        return to_cg(self.table())


def enumerate_vertices(s: Scenario, cap: int = 10 ** 6) -> List[Vertex]:
    """All deterministic strategy pairs, in deterministic order."""
    count = s.kA ** s.mA * s.kB ** s.mB
    if count > cap:
        raise SizeLimit(f"{count} vertices exceed the cap of {cap}")
    vertices = []
    for strat_A in itertools.product(range(s.kA), repeat=s.mA):
        for strat_B in itertools.product(range(s.kB), repeat=s.mB):
            vertices.append(Vertex(s, strat_A, strat_B))
    return vertices


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Exact affine rank (dimension of the affine hull) of a point set:
    the rank of the homogenised points (1, p), less one, by the integer
    `row_reduce`."""
    rows = [(1,) + tuple(p) for p in points]
    if not rows:
        return -1
    kept, _ = row_reduce(rows, len(rows[0]))
    return len(kept) - 1


@dataclass
class PolytopeRep:
    """A polytope with a V- and/or H-representation over one scenario."""

    scenario: Scenario
    vertices: Optional[List[CGVector]] = None
    facets: Optional[List[Inequality]] = None
    _dim: Optional[int] = None

    @property
    def dim(self) -> int:
        if self._dim is None:
            if self.vertices is None:
                raise ValueError("dimension unknown without vertices")
            self._dim = affine_rank([v.coords for v in self.vertices])
        return self._dim

    @cached_property
    def lp_matrix(self) -> ExactMatrix:
        """The matrix of the membership LP, built on first use and kept:
        one column per vertex, its coordinates over a 1.  Like ``dim``, it
        assumes the vertex list is not changed afterwards."""
        if self.vertices is None:
            raise ValueError("membership requires a V-representation")
        return exact_matrix(list(zip(*(tuple(v.coords) + (1,) for v in self.vertices))))

    def to_dict(self) -> dict:
        out = {"scenario": self.scenario.to_dict()}
        if self.vertices is not None:
            out["vertices"] = [[str(c) for c in v.coords] for v in self.vertices]
        if self.facets is not None:
            out["facets"] = [f.to_dict() for f in self.facets]
        return out


@lru_cache(maxsize=None)
def local_polytope(s: Scenario) -> PolytopeRep:
    """V-representation of the local polytope of a scenario."""
    return PolytopeRep(s, vertices=[v.cg() for v in enumerate_vertices(s)])


@dataclass(frozen=True)
class MembershipCertificate:
    """Result of an exact membership test, checked in rationals.

    Inside: ``weights`` is a convex combination over the polytope's
    vertices reconstructing the query exactly.  It is one valid
    combination, not a unique one: which vertices carry weight depends on
    the support the float guide chose.  Outside: ``separator`` evaluates
    <= its bound on every vertex and strictly above it on the query.
    """

    inside: bool
    weights: Optional[tuple] = None
    separator: Optional[Inequality] = None


def membership(q: CGVector | Numerators, poly: PolytopeRep) -> MembershipCertificate:
    """Exact test for q in conv(vertices of poly).

    q is a CGVector or its coordinates as `Numerators`.  The feasibility
    LP (weights >= 0 reconstructing q and summing to 1) over the cached
    `lp_matrix` goes through `solve_lp` (NNLS, one exact least-squares
    step), so its answer has passed the exact check there: weights, or a
    Farkas vector (the least-squares residual) that becomes the separator.
    """
    A = poly.lp_matrix
    if isinstance(q, CGVector) and q.scenario != poly.scenario:
        raise DimensionMismatch("query and polytope over different scenarios")
    nums, den = common_denominator(q.coords) if isinstance(q, CGVector) else q
    if len(nums) != poly.scenario.cg_dim:
        raise DimensionMismatch(f"expected {poly.scenario.cg_dim} coordinates, got {len(nums)}")
    result = solve_lp(A, Numerators(list(nums) + [den], den), [0] * len(A.cols))
    if result.status == OPTIMAL:
        return MembershipCertificate(inside=True, weights=tuple(result.x))
    # A Farkas vector (y, y0) over [vertices; 1]: y.v + y0 <= 0 < y.q + y0.
    y = result.farkas
    separator = Inequality(
        poly.scenario, tuple(y[:-1]), offset=y[-1], bound=ZERO, relation="<="
    )
    return MembershipCertificate(inside=False, separator=separator)


def is_ps_local(pps: JointTable, eff: Efficiencies) -> MembershipCertificate:
    """Can pps be explained by a local a-priori model with these
    efficiencies?  Tests membership of the lifted table in the local
    a-priori polytope, in its coordinates: `lift_numerators` gives them as
    integers over one denominator, which `membership` and `solve_lp` take."""
    q = lift_numerators(pps, eff, cg=True)  # rejects a bad pps before any LP
    return membership(q, local_polytope(pps.scenario.with_no_detection()))


def enumerate_facets(
    poly: PolytopeRep, budget_seconds: Optional[float] = None
) -> List[Inequality]:
    """Complete irredundant H-representation via double description.

    Output is canonically scaled (coprime integers, relation '<=') and
    deterministically ordered, independent of vertex input order.
    """
    if poly.vertices is None:
        raise ValueError("facet enumeration requires a V-representation")
    if poly.dim != poly.scenario.cg_dim:
        raise ValueError("facet enumeration requires a full-dimensional polytope")
    deadline = time.monotonic() + budget_seconds if budget_seconds else None
    raw = facets_of_polytope([v.coords for v in poly.vertices], deadline=deadline)
    return [
        inequality_from_key(poly.scenario, coeffs + (rhs,)) for coeffs, rhs in raw
    ]


@lru_cache(maxsize=None)
def local_facets(s: Scenario) -> tuple:
    """`enumerate_facets` of the scenario's local polytope, without a budget,
    run once per scenario and kept (`enumerate_facets` runs DD each call)."""
    return tuple(enumerate_facets(local_polytope(s)))


def verify_facet(ineq: Inequality, poly: PolytopeRep) -> dict:
    """Check validity and facet-ness of an inequality against a V-rep.

    Returns {"valid", "tight_rank", "is_facet"}: valid iff every vertex
    satisfies it, tight_rank counts affinely independent saturating
    vertices, and is_facet iff the inequality is valid and the saturating
    set spans an affine subspace of dimension poly.dim - 1 (that is,
    tight_rank == poly.dim).
    """
    if poly.vertices is None:
        raise ValueError("verify_facet requires a V-representation")
    rows = [(den, *ints) for ints, den in (common_denominator(v.coords) for v in poly.vertices)]
    S = slacks([ineq.key()], rows)[0].tolist()
    valid = min(S) >= 0
    tight = [v.coords for v, slack in zip(poly.vertices, S) if slack == 0]
    tight_count = affine_rank(tight) + 1  # affinely independent tight points
    is_facet = valid and tight_count == poly.dim
    return {"valid": valid, "tight_rank": tight_count, "is_facet": is_facet}


def ns_hrep(s: Scenario) -> PolytopeRep:
    """H-representation of the non-signaling polytope in CG coordinates:
    positivity of every reconstructed probability."""
    full = _layout(s).full
    # One coprime key per table entry; entries fixed to zero by the
    # scenario would repeat.
    keys = set(map(tuple, coprime_rows(np.column_stack([-full[:, 1:], full[:, 0]])).tolist()))
    facets = [inequality_from_key(s, k) for k in sorted(keys)]
    return PolytopeRep(s, facets=facets, _dim=s.cg_dim)


def lp_max(ineq: Inequality, hrep: PolytopeRep) -> Fraction:
    """Exact maximum of the inequality's left-hand side over an H-polytope."""
    if hrep.facets is None:
        raise ValueError("lp_max requires an H-representation")
    keys = [f.key() for f in hrep.facets]
    rows, rhs = [k[:-1] for k in keys], [k[-1] for k in keys]
    return ineq.offset + maximize_over_hrep(rows, rhs, ineq.coeffs)


class _NsVertices(NamedTuple):
    """The vertices of a scenario's NS polytope, as homogeneous rays."""

    rays: tuple  # coprime integer (r0, r...) with vertex r / r0, r0 > 0
    matrix: ExactMatrix  # the rays, one row per ray, for `slacks`
    rows: tuple  # the NS H-rep as (rhs, -coeffs...): row . ray >= 0


@lru_cache(maxsize=None)
def _ns_vertices(s: Scenario) -> _NsVertices:
    """Vertices of the non-signaling polytope, by double description on
    the homogenised `ns_hrep`: (t, x) with t * rhs - coeffs . x >= 0 and
    t >= 0.  The polytope is bounded, so every extreme ray has t > 0."""
    keys = [f.key() for f in ns_hrep(s).facets]
    rows = tuple((k[-1],) + tuple(-c for c in k[:-1]) for k in keys)
    rays = tuple(extreme_rays(rows + ((1,) + (0,) * s.cg_dim,)))
    return _NsVertices(rays, exact_matrix(rays), rows)


def is_trivial_for_ns(ineq: Inequality) -> bool:
    """True when the inequality cannot be violated by any non-signaling
    correlation: its LHS maximum over the NS polytope respects the bound.

    The maximum is taken over the NS polytope's vertices (`_ns_vertices`)
    by one exact integer product with the canonical key (`slacks`).

    A non-trivial verdict is certified: the violating vertex is checked
    exactly against every NS H-rep row, and `CertificateInvalid` is raised
    if it fails.  A trivial verdict rests on the vertex list being
    complete, which is the double description guarantee that the facet
    censuses rest on too.
    """
    ns = _ns_vertices(ineq.scenario)
    key = ineq.key()
    S = slacks([key], ns.matrix)[0]  # r0 * (rhs - coeffs . v) at the vertex v = r / r0
    best = int(np.argmin(S))
    if S[best] >= 0:
        return True
    ray = ns.rays[best]
    if not (  # in Python ints: r0 > 0, the key violated, every NS row satisfied
        ray[0] > 0
        and key[-1] * ray[0] < sum(a * b for a, b in zip(key, ray[1:]))
        and all(sum(a * b for a, b in zip(row, ray)) >= 0 for row in ns.rows)
    ):
        raise CertificateInvalid("NS witness vertex fails the exact check")
    return False
