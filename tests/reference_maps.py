"""The Collins-Gisin layout and the detection model written out cell by
cell in Fractions: independent references for the integer maps of
`pslocal.core` (`_layout`, `_lift_map`) and the functions built on them.
Also the slice maps, the quantum-circle samples and facet verification
evaluated one inequality at a time, for `linprog.slacks` and its callers."""

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List

from pslocal.core import (
    CHSH,
    CGVector,
    Efficiencies,
    JointTable,
    Scenario,
    flat_index,
    flat_size,
    slice_point,
)
from pslocal.errors import InvalidSetup, SignalingInput
from pslocal.inequalities import (
    Inequality,
    ch_eta,
    ch_eta_lower,
    inequality_from_key,
    symmetry_orbit,
    thresholds,
)
from pslocal.linprog import common_denominator
from pslocal.polytope import affine_rank, enumerate_facets, local_polytope, ns_hrep
from pslocal.psfacets import DerivedInequality, classify

ZERO = Fraction(0)


def cg_index_marginal_A(s: Scenario, x: int, a: int) -> int:
    return x * (s.kA - 1) + a


def cg_index_marginal_B(s: Scenario, y: int, b: int) -> int:
    return s.mA * (s.kA - 1) + y * (s.kB - 1) + b


def cg_index_joint(s: Scenario, x: int, a: int, y: int, b: int) -> int:
    alpha = s.mA * (s.kA - 1)
    beta = s.mB * (s.kB - 1)
    return alpha + beta + (x * (s.kA - 1) + a) * beta + (y * (s.kB - 1) + b)


def marginal_A(t: JointTable, x: int, a: int, y: int = 0) -> Fraction:
    return sum(t.p[x][y][a])


def marginal_B(t: JointTable, y: int, b: int, x: int = 0) -> Fraction:
    return sum(row[b] for row in t.p[x][y])


def is_nonsignaling(t: JointTable) -> bool:
    s = t.scenario
    for x in range(s.mA):
        for a in range(s.kA):
            ref = marginal_A(t, x, a, y=0)
            for y in range(1, s.mB):
                if marginal_A(t, x, a, y=y) != ref:
                    return False
    for y in range(s.mB):
        for b in range(s.kB):
            ref = marginal_B(t, y, b, x=0)
            for x in range(1, s.mA):
                if marginal_B(t, y, b, x=x) != ref:
                    return False
    return True


def to_cg(t: JointTable) -> CGVector:
    if not is_nonsignaling(t):
        raise SignalingInput("table is signaling; CG coordinates undefined")
    s = t.scenario
    coords = []
    for x in range(s.mA):
        for a in range(s.kA - 1):
            coords.append(marginal_A(t, x, a))
    for y in range(s.mB):
        for b in range(s.kB - 1):
            coords.append(marginal_B(t, y, b))
    for x in range(s.mA):
        for a in range(s.kA - 1):
            for y in range(s.mB):
                for b in range(s.kB - 1):
                    coords.append(t.p[x][y][a][b])
    return CGVector(s, tuple(coords))


def to_full(v: CGVector, allow_negative: bool = False) -> JointTable:
    s = v.scenario
    kA, kB = s.kA, s.kB
    entries = []
    for x in range(s.mA):
        row = []
        for y in range(s.mB):
            block = [[ZERO] * kB for _ in range(kA)]
            for a in range(kA - 1):
                for b in range(kB - 1):
                    block[a][b] = v.coords[cg_index_joint(s, x, a, y, b)]
            for a in range(kA - 1):
                block[a][kB - 1] = v.coords[cg_index_marginal_A(s, x, a)] - sum(block[a][:-1])
            for b in range(kB - 1):
                block[kA - 1][b] = v.coords[cg_index_marginal_B(s, y, b)] - sum(
                    block[a][b] for a in range(kA - 1)
                )
            block[kA - 1][kB - 1] = 1 - sum(block[a][b] for a in range(kA) for b in range(kB))
            row.append(block)
        entries.append(row)
    return JointTable(s, entries, allow_negative=allow_negative)


def functional_to_full(ineq: Inequality) -> tuple:
    s = ineq.scenario
    w = [ZERO] * flat_size(s)
    for x in range(s.mA):
        for a in range(s.kA - 1):
            c = ineq.coeffs[cg_index_marginal_A(s, x, a)]
            for b in range(s.kB):
                w[flat_index(s, x, 0, a, b)] += c
    for y in range(s.mB):
        for b in range(s.kB - 1):
            c = ineq.coeffs[cg_index_marginal_B(s, y, b)]
            for a in range(s.kA):
                w[flat_index(s, 0, y, a, b)] += c
    for x in range(s.mA):
        for a in range(s.kA - 1):
            for y in range(s.mB):
                for b in range(s.kB - 1):
                    w[flat_index(s, x, y, a, b)] += ineq.coeffs[cg_index_joint(s, x, a, y, b)]
    return tuple(w), ineq.offset


@lru_cache(maxsize=None)
def basis_tables(s: Scenario) -> tuple:
    """Flattened tables of to_full(0) and to_full(e_i) - to_full(0), by the
    reference `to_full`: the reconstruction is affine."""
    def flat(coords) -> tuple:
        table = to_full(CGVector(s, coords), allow_negative=True)
        return tuple(v for plane in table.p for block in plane for row in block for v in row)

    zero = (ZERO,) * s.cg_dim
    t0 = flat(zero)
    units = (flat(zero[:i] + (1,) + zero[i + 1:]) for i in range(s.cg_dim))
    return t0, tuple(tuple(u - t for u, t in zip(unit, t0)) for unit in units)


def functional_from_full(s: Scenario, w, const, bound, relation: str = "<=") -> Inequality:
    t0, basis = basis_tables(s)
    offset = Fraction(const) + sum(wi * ti for wi, ti in zip(w, t0) if ti)
    coeffs = tuple(sum(wi * ti for wi, ti in zip(w, bi) if ti) for bi in basis)
    return Inequality(s, coeffs, offset, bound, relation)


def lift_functional(facet: Inequality, eff: Efficiencies) -> Inequality:
    s0 = facet.scenario
    if not s0.no_detection_A and eff.etaA != 1:
        raise InvalidSetup("etaA < 1 requires a no-detection outcome on Alice's side")
    if not s0.no_detection_B and eff.etaB != 1:
        raise InvalidSetup("etaB < 1 requires a no-detection outcome on Bob's side")
    sps = s0.conclusive()
    a, b = eff.etaA, eff.etaB
    w0, const = functional_to_full(facet)
    w = []
    for x in range(sps.mA):
        for y in range(sps.mB):
            for aa in range(sps.kA):
                for bb in range(sps.kB):
                    v = a * b * w0[flat_index(s0, x, y, aa, bb)]
                    if s0.no_detection_B:
                        v += a * (1 - b) * w0[flat_index(s0, x, y, aa, s0.kB - 1)]
                    if s0.no_detection_A:
                        v += (1 - a) * b * w0[flat_index(s0, x, y, s0.kA - 1, bb)]
                    w.append(v)
            if s0.no_detection_A and s0.no_detection_B:
                const += (1 - a) * (1 - b) * w0[flat_index(s0, x, y, s0.kA - 1, s0.kB - 1)]
    return functional_from_full(sps, w, const, facet.bound, facet.relation)


def derive(eff: Efficiencies, l0_facets) -> List[DerivedInequality]:
    """Lift one facet at a time, then deduplicate by key in key order."""
    by_key: Dict[tuple, list] = {}
    for facet in l0_facets:
        by_key.setdefault(lift_functional(facet, eff).key(), []).append(facet)
    out = []
    for key in sorted(by_key):
        sources = by_key[key]
        result = inequality_from_key(sources[0].scenario.conclusive(), key)
        out.append(DerivedInequality(sources[0], result, classify(result, eff), len(sources)))
    return out


def lps_hrep(eff: Efficiencies) -> list:
    """Facet inequalities of L_ps(eff) in the 2-input scenario, from the
    region classification and the facet families."""
    t = thresholds(eff)
    ineqs = list(ns_hrep(CHSH).facets)
    if t.upper_nontrivial:
        ineqs += symmetry_orbit(ch_eta(eff), include_party_swap=False)
        if t.lower_facet:
            ineqs += symmetry_orbit(ch_eta_lower(eff), include_party_swap=False)
    return ineqs


def slice_rows(eff: Efficiencies, grid: int) -> list:
    """The rows of `pslocal slice` (and of figures 1 and 2): each grid point
    built by `slice_point` and checked with `Inequality.satisfied_by`."""
    lps = lps_hrep(eff)
    local_facets = enumerate_facets(local_polytope(CHSH))
    ns = ns_hrep(CHSH).facets
    rows = []
    for i in range(grid):
        x = Fraction(-grid + 1 + 2 * i, grid - 1) if grid > 1 else Fraction(0)
        for j in range(grid):
            y = Fraction(-grid + 1 + 2 * j, grid - 1) if grid > 1 else Fraction(0)
            v = slice_point(x, y)
            in_ns = all(f.satisfied_by(v) for f in ns)
            rows.append(
                {
                    "x": str(x),
                    "y": str(y),
                    "in_ns": in_ns,
                    "in_local": in_ns and all(f.satisfied_by(v) for f in local_facets),
                    "in_ps_local": in_ns and all(f.satisfied_by(v) for f in lps),
                }
            )
    return rows


def quantum_circle(eff: Efficiencies, samples: int = 64) -> list:
    """Figure 1's samples of the circle x^2 + y^2 = 1/2, each rounded to
    denominators of at most 10**9 and checked against L_ps(eff)."""
    lps = lps_hrep(eff)
    circle = []
    for k in range(samples):
        phi = 2 * math.pi * k / samples
        cx = math.cos(phi) / math.sqrt(2)
        cy = math.sin(phi) / math.sqrt(2)
        q = slice_point(
            Fraction(cx).limit_denominator(10 ** 9),
            Fraction(cy).limit_denominator(10 ** 9),
        )
        circle.append(
            {
                "x": f"{cx:.12f}",
                "y": f"{cy:.12f}",
                "on_quantum_circle": True,
                "in_ps_local": all(f.satisfied_by(q) for f in lps),
            }
        )
    return circle


def verify_facet(ineq: Inequality, poly) -> dict:
    """`polytope.verify_facet` with each vertex's slack summed from the
    coprime key, one vertex at a time."""
    key = ineq.key()
    valid = True
    tight = []
    for v in poly.vertices:
        # v = ints / den; the slack times den > 0, from the coprime key.
        ints, den = common_denominator(v.coords)
        slack = key[-1] * den - sum(k * x for k, x in zip(key, ints) if x)
        if slack < 0:
            valid = False
        elif slack == 0:
            tight.append(v.coords)
    tight_count = affine_rank(tight) + 1
    return {"valid": valid, "tight_rank": tight_count, "is_facet": valid and tight_count == poly.dim}
