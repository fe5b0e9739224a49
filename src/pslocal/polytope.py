"""Local-polytope machinery: vertex enumeration, exact membership with
certificates, facet enumeration, and the post-selected membership oracle.

Vertices of a local polytope are deterministic strategy pairs; membership
is decided over the vertex list, returning either an explicit convex
combination or a separating inequality (Farkas dual).  Both LPs here,
membership and the NS-triviality maximum (`lp_max`), go through
`linprog.solve_lp`: HiGHS guides, an exact re-solve and check certify,
and the exact simplex decides when the guide fails.  Facet enumeration
goes through the double description method; every facet of a list
memoized on disk must pass `verify_facet` before the list is trusted.
Ranks and LPs come from the exact core in `linprog`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence

from .core import (
    CGVector,
    Efficiencies,
    JointTable,
    Scenario,
    flat_index,
    flat_size,
    lift,
    to_cg,
    unflatten,
)
from .dd import facets_of_polytope
from .errors import DimensionMismatch, SizeLimit
from .inequalities import Inequality, _cg_basis_tables, inequality_from_key
from .linprog import OPTIMAL, maximize_over_hrep, row_reduce, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)


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
    """Exact affine rank (dimension of the affine hull) of a point set."""
    points = [tuple(p) for p in points]
    if not points:
        return -1
    origin = points[0]
    diffs = [[a - o for a, o in zip(p, origin)] for p in points[1:]]
    kept, _ = row_reduce(diffs, len(origin))
    return len(kept)


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


def membership(q: CGVector, poly: PolytopeRep) -> MembershipCertificate:
    """Exact test for q in conv(vertices of poly).

    The feasibility LP (weights >= 0 reconstructing q and summing to 1)
    goes through `solve_lp`, so its answer has passed the exact check
    there: weights, or a Farkas vector that becomes the separator.
    """
    if poly.vertices is None:
        raise ValueError("membership requires a V-representation")
    if q.scenario != poly.scenario:
        raise DimensionMismatch("query and polytope over different scenarios")
    verts = poly.vertices
    dim = len(q.coords)
    A = [[v.coords[i] for v in verts] for i in range(dim)]
    A.append([ONE] * len(verts))
    b = list(q.coords) + [ONE]
    result = solve_lp(A, b, [ZERO] * len(verts))
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
    a-priori polytope; the certificate lives in its coordinates."""
    p0 = lift(pps, eff)
    return membership(to_cg(p0), local_polytope(p0.scenario))


# Bumped whenever the cache file layout changes; part of the hashed key.
_CACHE_FORMAT = 1


def _facet_cache_path(poly: PolytopeRep) -> Optional[str]:
    cache_dir = os.environ.get("PSLOCAL_CACHE_DIR")
    if not cache_dir:
        return None
    payload = {
        "format": _CACHE_FORMAT,
        "vertices": [[str(c) for c in v.coords] for v in poly.vertices],
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return os.path.join(cache_dir, f"facets-{digest[:24]}.json")


def _read_facet_cache(path: str, poly: PolytopeRep) -> Optional[List[Inequality]]:
    """Facets stored at path, or None when the file is missing, does not
    parse, repeats a key, or holds a key that is not cg_dim + 1 integers
    or whose inequality is not a facet of poly (`verify_facet`)."""
    s = poly.scenario
    try:
        with open(path) as fh:
            keys = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(keys, list) or not all(
        isinstance(k, list)
        and len(k) == s.cg_dim + 1
        and all(type(c) is int for c in k)
        for k in keys
    ) or len({tuple(k) for k in keys}) != len(keys):
        return None
    facets = [inequality_from_key(s, tuple(k)) for k in keys]
    if not all(verify_facet(f, poly)["is_facet"] for f in facets):
        return None
    return facets


def _write_facet_cache(path: str, facets: Sequence[Inequality]) -> None:
    """Write through a temporary file in the cache directory, then rename,
    so a reader never sees a partial file."""
    cache_dir = os.path.dirname(path) or "."
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump([list(f.key()) for f in facets], fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def enumerate_facets(
    poly: PolytopeRep, budget_seconds: Optional[float] = None
) -> List[Inequality]:
    """Complete irredundant H-representation via double description.

    Output is canonically scaled (coprime integers, relation '<=') and
    deterministically ordered, independent of vertex input order.  Results
    are memoized in PSLOCAL_CACHE_DIR when that variable is set; a cache
    file that does not parse, or holds a key that is not a facet, is
    recomputed and overwritten.
    """
    if poly.vertices is None:
        raise ValueError("facet enumeration requires a V-representation")
    if poly.dim != poly.scenario.cg_dim:
        raise ValueError("facet enumeration requires a full-dimensional polytope")
    cache_path = _facet_cache_path(poly)
    if cache_path:
        cached = _read_facet_cache(cache_path, poly)
        if cached is not None:
            return cached
    deadline = time.monotonic() + budget_seconds if budget_seconds else None
    raw = facets_of_polytope([v.coords for v in poly.vertices], deadline=deadline)
    facets = [
        inequality_from_key(poly.scenario, coeffs + (rhs,)) for coeffs, rhs in raw
    ]
    if cache_path:
        _write_facet_cache(cache_path, facets)
    return facets


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
    valid = True
    tight = []
    for v in poly.vertices:
        slack = ineq.slack(v)
        if slack < 0:
            valid = False
        elif slack == 0:
            tight.append(v.coords)
    tight_count = affine_rank(tight) + 1  # affinely independent tight points
    is_facet = valid and tight_count == poly.dim
    return {"valid": valid, "tight_rank": tight_count, "is_facet": is_facet}


def ns_hrep(s: Scenario) -> PolytopeRep:
    """H-representation of the non-signaling polytope in CG coordinates:
    positivity of every reconstructed probability."""
    t0, basis = _cg_basis_tables(s)
    facets = []
    n = len(t0)
    for i in range(n):
        coeffs = tuple(Fraction(-bj[i]) for bj in basis)
        facets.append(
            Inequality(s, coeffs, offset=ZERO, bound=Fraction(t0[i]), relation="<=")
        )
    # Deduplicate (entries fixed to zero by the scenario would repeat).
    seen = {}
    for f in facets:
        seen.setdefault(f.key(), f)
    ordered = [seen[k] for k in sorted(seen)]
    return PolytopeRep(s, facets=ordered, _dim=s.cg_dim)


def lp_max(ineq: Inequality, hrep: PolytopeRep) -> Fraction:
    """Exact maximum of the inequality's left-hand side over an H-polytope."""
    if hrep.facets is None:
        raise ValueError("lp_max requires an H-representation")
    rows = []
    rhs = []
    for f in hrep.facets:
        key = f.key()
        rows.append([Fraction(c) for c in key[:-1]])
        rhs.append(Fraction(key[-1]))
    return ineq.offset + maximize_over_hrep(rows, rhs, ineq.coeffs)


def is_trivial_for_ns(ineq: Inequality) -> bool:
    """True when the inequality cannot be violated by any non-signaling
    correlation (its LHS maximum over the NS polytope respects the bound)."""
    canon = ineq.canonical_scaled()
    return lp_max(canon, ns_hrep(canon.scenario)) <= canon.bound
