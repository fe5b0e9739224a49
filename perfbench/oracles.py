"""Checks of pslocal's answers that do not rely on the code under test.

Every check here recomputes what it needs from first principles: the
post-selection lift, Collins-Gisin coordinates and the deterministic and
PR-box vertices are written out again below, and the
a-priori facets come from the reference file in ``data/`` rather than
from a fresh enumeration.  Each check returns a list of problems; an
empty list means the answer was confirmed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from fractions import Fraction
from typing import List, Sequence, Tuple


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
REFERENCE_FILE = os.path.join(DATA, "reference.json")

# Relabeling orbits of the two a-priori polytopes.  For CHSH with
# no-detection outcomes they make up the facet families below:
# positivity (36), CH (324 + 324) and CGLMP (432).
L0_ORBITS = [36, 324, 324, 432]
THREE_INPUT_ORBITS = [36, 216, 288, 288, 432]
# Facet families of the reference list, as stored in data/reference.json.
FAMILIES = ("positivity", "ch", "cglmp")

Shape = Tuple[int, int, int, int]  # (mA, mB, kA, kB)


# ---------------------------------------------------------------------------
# Tables and coordinates
# ---------------------------------------------------------------------------

def cg_coords(shape: Shape, p) -> tuple:
    """Collins-Gisin coordinates of a no-signaling table p[x][y][a][b]:
    Alice's marginals of all outcomes but the last (by input, then
    outcome), Bob's likewise, then the joint block with Alice's labels as
    rows and Bob's as columns."""
    mA, mB, kA, kB = shape
    coords = []
    for x in range(mA):
        for a in range(kA - 1):
            coords.append(sum(p[x][0][a]))
    for y in range(mB):
        for b in range(kB - 1):
            coords.append(sum(p[0][y][a][b] for a in range(kA)))
    for x in range(mA):
        for a in range(kA - 1):
            for y in range(mB):
                for b in range(kB - 1):
                    coords.append(p[x][y][a][b])
    return tuple(coords)


def lift_table(pps, etaA: Fraction, etaB: Fraction) -> list:
    """The a-priori table of a two-outcome, two-input post-selected table
    under independent detection: the no-detection outcome is index 2."""
    out = []
    for x in range(2):
        row = []
        for y in range(2):
            block = [[Fraction(0)] * 3 for _ in range(3)]
            for a in range(2):
                for b in range(2):
                    block[a][b] = etaA * etaB * pps[x][y][a][b]
            for a in range(2):
                block[a][2] = etaA * (1 - etaB) * sum(pps[x][y][a])
            for b in range(2):
                block[2][b] = (1 - etaA) * etaB * (pps[x][y][0][b] + pps[x][y][1][b])
            block[2][2] = (1 - etaA) * (1 - etaB)
            row.append(block)
        out.append(row)
    return out


def deterministic_points(shape: Shape) -> List[tuple]:
    """CG coordinates of every deterministic strategy pair, Alice's
    strategy outermost, both in lexicographic order."""
    mA, mB, kA, kB = shape
    points = []
    for sa in itertools.product(range(kA), repeat=mA):
        for sb in itertools.product(range(kB), repeat=mB):
            p = [
                [
                    [
                        [int(a == sa[x] and b == sb[y]) for b in range(kB)]
                        for a in range(kA)
                    ]
                    for y in range(mB)
                ]
                for x in range(mA)
            ]
            points.append(cg_coords(shape, p))
    return points


def chsh_ns_vertices() -> List[tuple]:
    """The 24 vertices of the CHSH no-signaling polytope: 16 deterministic
    points and the 8 PR boxes a xor b = xy xor ax xor by xor c."""
    shape = (2, 2, 2, 2)
    half = Fraction(1, 2)
    points = deterministic_points(shape)
    for alpha, beta, gamma in itertools.product(range(2), repeat=3):
        p = [
            [
                [
                    [
                        half if (a ^ b) == (x * y) ^ (alpha * x) ^ (beta * y) ^ gamma
                        else Fraction(0)
                        for b in range(2)
                    ]
                    for a in range(2)
                ]
                for y in range(2)
            ]
            for x in range(2)
        ]
        points.append(cg_coords(shape, p))
    return points


def lhs(coeffs: Sequence, offset, point: Sequence) -> Fraction:
    return offset + sum(c * v for c, v in zip(coeffs, point))


def respects(value, bound, relation: str) -> bool:
    return value <= bound if relation == "<=" else value >= bound


# ---------------------------------------------------------------------------
# Reference facets
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    """The a-priori facet list of CHSH with no-detection outcomes, by
    orbit, and the digest of the three-input facet list."""
    with open(REFERENCE_FILE) as fh:
        ref = json.load(fh)
    keys = [tuple(k) for family in FAMILIES for k in ref[family]]
    if key_digest(keys) != ref["l0_digest"]:
        raise ValueError("reference facet list does not match its digest")
    return ref


def key_digest(keys) -> str:
    """sha256 of a facet list given as canonical integer keys, order-free."""
    text = json.dumps(sorted(list(k) for k in keys), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

L0_SHAPE = (2, 2, 3, 3)


class MembershipOracle:
    """Decides post-selected locality from the reference facet list and
    re-verifies the certificate that pslocal returned with its verdict."""

    def __init__(self, ref: dict, vertex_coords: Sequence[tuple]):
        self.facets = [tuple(k) for family in FAMILIES for k in ref[family]]
        self.points = deterministic_points(L0_SHAPE)
        self.vertex_coords = [tuple(v) for v in vertex_coords]
        self.vertices_ok = sorted(self.vertex_coords) == sorted(self.points)

    def expected_inside(self, q: tuple) -> bool:
        # Scale q to integers once; the facet keys are integers already.
        den = math.lcm(*(v.denominator for v in q))
        qi = [int(v * den) for v in q]
        return all(
            sum(c * v for c, v in zip(k, qi) if c) <= k[-1] * den for k in self.facets
        )

    def check(self, pps, etaA, etaB, cert, is_pr: bool) -> List[str]:
        problems = []
        q = cg_coords(L0_SHAPE, lift_table(pps, etaA, etaB))
        expected = self.expected_inside(q)
        if cert.inside != expected:
            problems.append(f"verdict {cert.inside}, facets say {expected}")
        if is_pr and cert.inside != (etaA + etaB >= 3 * etaA * etaB):
            problems.append("PR-box verdict disagrees with a+b >= 3ab")
        if not self.vertices_ok:
            problems.append("polytope vertices are not the deterministic points")
        elif cert.inside:
            w = cert.weights
            if w is None or len(w) != len(self.vertex_coords):
                problems.append("inside without a full weight vector")
            elif any(v < 0 for v in w) or sum(w) != 1:
                problems.append("weights are not a convex combination")
            else:
                recon = tuple(
                    sum(wi * v[i] for wi, v in zip(w, self.vertex_coords) if wi)
                    for i in range(len(q))
                )
                if recon != q:
                    problems.append("weights do not reconstruct the lifted table")
        else:
            sep = cert.separator
            if sep is None:
                problems.append("outside without a separator")
            else:
                if any(
                    not respects(lhs(sep.coeffs, sep.offset, v), sep.bound, sep.relation)
                    for v in self.points
                ):
                    problems.append("separator is violated by a local vertex")
                if respects(lhs(sep.coeffs, sep.offset, q), sep.bound, sep.relation):
                    problems.append("separator does not cut off the query")
        return problems


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def check_enumeration(
    keys, orbits, expected_sizes, expected_digest, families=None
) -> List[str]:
    """Facet list equal to the reference and orbit sizes as expected.

    ``orbits`` are (representative key, size) pairs.  When reference
    families are given, every representative must be a facet of one, and
    the orbits of each family must add up to its size."""
    problems = []
    if len(set(keys)) != sum(expected_sizes):
        problems.append(f"{len(set(keys))} facets, expected {sum(expected_sizes)}")
    sizes = sorted(size for _, size in orbits)
    if sizes != sorted(expected_sizes):
        problems.append(f"orbit sizes {sizes}, expected {sorted(expected_sizes)}")
    if key_digest(keys) != expected_digest:
        problems.append("facet list differs from the reference")
    if families:
        family_sets = [{tuple(k) for k in fam} for fam in families]
        covered = [0] * len(family_sets)
        for rep, size in orbits:
            homes = [i for i, fam in enumerate(family_sets) if tuple(rep) in fam]
            if not homes:
                problems.append(f"orbit representative {rep} is in no reference family")
            for i in homes:
                covered[i] += size
        if covered != [len(fam) for fam in family_sets]:
            problems.append(
                f"orbits cover families {covered}, expected {[len(f) for f in family_sets]}"
            )
    return problems


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

class ClassifyOracle:
    """Checks derive's classification, NS-triviality and facet-ness."""

    def __init__(self, ref: dict):
        self.ns_vertices = chsh_ns_vertices()
        self.positivity = {tuple(k) for k in ref["positivity"]}

    def ns_trivial(self, ineq) -> bool:
        """True when no CHSH no-signaling vertex violates the inequality."""
        return all(
            respects(lhs(ineq.coeffs, ineq.offset, v), ineq.bound, ineq.relation)
            for v in self.ns_vertices
        )

    def check_derived(self, derived, n_facets: int) -> List[str]:
        problems = []
        if sum(d.multiplicity for d in derived) != n_facets:
            problems.append("multiplicities do not add up to the facet count")
        for d in derived:
            trivial = d.classification.value == "trivial"
            if trivial != self.ns_trivial(d.result):
                problems.append(
                    f"{d.result.key()} classified {d.classification.value}"
                )
        return problems

    def check_ns_trivial(self, key: tuple, verdict: bool) -> List[str]:
        expected = tuple(key) in self.positivity
        if verdict != expected:
            return [f"NS-triviality of {key}: {verdict}, expected {expected}"]
        return []

    @staticmethod
    def check_facet(report: dict, etaA: Fraction, etaB: Fraction) -> List[str]:
        expected = etaA + etaB < 3 * etaA * etaB
        if report.get("is_facet") != expected or (expected and not report.get("valid")):
            return [f"ps_facet_check {report}, expected is_facet={expected}"]
        return []
