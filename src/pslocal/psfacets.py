"""From a-priori facets to post-selected inequalities.

This module carries the derivation pipeline: every facet of the local
a-priori polytope, rewritten through the detection model, yields a valid
inequality for the post-selected local polytope L_ps(etaA, etaB).  The
resulting inequalities are sorted into families (trivial, the two bounds
of the efficiency-weighted CH expression, the implied CGLMP-derived form,
or genuinely new), and the algebraic identities behind the facet
classification are verified exactly: the decompositions that make each
bound trivial or implied in the corresponding efficiency regions, the
saturating correlations proving facet-ness of the upper bound, and the
witness correlation proving facet-ness of the lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    CGVector,
    CHSH,
    Efficiencies,
    JointTable,
    Scenario,
    flat_index,
    flat_size,
    to_cg,
    to_full,
    unflatten,
)
from .errors import (
    BudgetExceeded,
    CertificateInvalid,
    IdentityFailed,
    InvalidSetup,
    PreconditionFailed,
    ThresholdViolated,
)
from .inequalities import (
    THREE_INPUT_L0,
    THREE_INPUT_PS,
    Inequality,
    ch_eta,
    ch_eta_3in,
    ch_eta_lower,
    cglmp_eta,
    from_cg_table,
    functional_from_full,
    functional_to_full,
    i3223,
    i3223_1_eta,
    inequality_from_key,
    orbit_key_set,
    thresholds,
)
from .linprog import INFEASIBLE, OPTIMAL, solve_lp
from .polytope import (
    affine_rank,
    enumerate_facets,
    enumerate_vertices,
    is_ps_local,
    is_trivial_for_ns,
    local_polytope,
    ns_hrep,
    verify_facet,
)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class Classification(Enum):
    TRIVIAL = "trivial"
    CH_ETA_UPPER = "ch-eta-upper"
    CH_ETA_LOWER = "ch-eta-lower"
    IMPLIED_CGLMP = "implied-cglmp"
    OTHER = "other"


@dataclass(frozen=True)
class DerivedInequality:
    """One deduplicated inequality obtained from an a-priori facet.

    ``source`` is the first facet that produced it, ``multiplicity`` how
    many facets of the input list map onto the same canonical form.
    """

    source: Inequality
    result: Inequality
    classification: Classification
    multiplicity: int


def lift_functional(facet: Inequality, eff: Efficiencies) -> Inequality:
    """Rewrite an a-priori inequality in post-selected coordinates.

    Substitutes the detection model into the facet's functional: the
    conclusive block picks up a factor etaA*etaB, single-no-detection
    entries reduce to scaled marginals of the post-selected correlation,
    and the double-no-detection entries contribute constants.
    """
    s0 = facet.scenario
    if not s0.no_detection_A and eff.etaA != 1:
        raise InvalidSetup(
            "etaA < 1 requires a no-detection outcome on Alice's side"
        )
    if not s0.no_detection_B and eff.etaB != 1:
        raise InvalidSetup(
            "etaB < 1 requires a no-detection outcome on Bob's side"
        )
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
                const += (1 - a) * (1 - b) * w0[
                    flat_index(s0, x, y, s0.kA - 1, s0.kB - 1)
                ]
    return functional_from_full(sps, w, const, facet.bound, facet.relation)


def _family_key_sets(sps: Scenario, eff: Efficiencies) -> Dict[Classification, frozenset]:
    """Canonical-key orbits of the known non-trivial families.

    Party exchange is never applied here: with asymmetric efficiencies the
    swapped partner of a family member belongs to the same derived list
    only through its own input/outcome relabelings.
    """
    if sps == CHSH:
        return {
            Classification.CH_ETA_UPPER: orbit_key_set(
                ch_eta(eff), include_party_swap=False
            ),
            Classification.CH_ETA_LOWER: orbit_key_set(
                ch_eta_lower(eff), include_party_swap=False
            ),
            Classification.IMPLIED_CGLMP: orbit_key_set(
                cglmp_eta(eff), include_party_swap=False
            ),
        }
    if sps == THREE_INPUT_PS:
        return {
            Classification.CH_ETA_UPPER: orbit_key_set(ch_eta_3in(eff.etaB)),
        }
    return {}


def classify(ineq: Inequality, eff: Efficiencies) -> Classification:
    """Sort one post-selected inequality into its family."""
    if is_trivial_for_ns(ineq):
        return Classification.TRIVIAL
    key = ineq.key()
    for label, keys in _family_key_sets(ineq.scenario, eff).items():
        if key in keys:
            return label
    return Classification.OTHER


def derive(
    eff: Efficiencies, l0_facets: Sequence[Inequality]
) -> List[DerivedInequality]:
    """The full pipeline: lift every a-priori facet, deduplicate, classify.

    Returns deduplicated inequalities in canonical key order; duplicates
    are recorded through the multiplicity field.
    """
    by_key: Dict[tuple, list] = {}
    for facet in l0_facets:
        lifted = lift_functional(facet, eff)
        by_key.setdefault(lifted.key(), []).append(facet)
    out = []
    for key in sorted(by_key):
        sources = by_key[key]
        result = inequality_from_key(sources[0].scenario.conclusive(), key)
        out.append(
            DerivedInequality(
                source=sources[0],
                result=result,
                classification=classify(result, eff),
                multiplicity=len(sources),
            )
        )
    return out


def classification_census(derived: Sequence[DerivedInequality]) -> Dict[str, dict]:
    """Distinct-form and multiplicity counts per family."""
    census: Dict[str, dict] = {}
    for d in derived:
        entry = census.setdefault(
            d.classification.value, {"forms": 0, "multiplicity": 0}
        )
        entry["forms"] += 1
        entry["multiplicity"] += d.multiplicity
    return census


# ---------------------------------------------------------------------------
# Exact identity checks
# ---------------------------------------------------------------------------

def _term_functional(sps: Scenario, joints=(), marginals_A=(), marginals_B=(),
                     const=ZERO) -> tuple:
    """Full-table weight vector for a combination of probabilities.

    ``joints`` holds (a, b, x, y, coeff) in 1-based labels as usually
    printed; marginal terms are (outcome, input, coeff) and get expanded
    at the first input of the other party.
    """
    w = [ZERO] * flat_size(sps)
    for a, b, x, y, c in joints:
        w[flat_index(sps, x - 1, y - 1, a - 1, b - 1)] += c
    for a, x, c in marginals_A:
        for bb in range(sps.kB):
            w[flat_index(sps, x - 1, 0, a - 1, bb)] += c
    for b, y, c in marginals_B:
        for aa in range(sps.kA):
            w[flat_index(sps, 0, y - 1, aa, b - 1)] += c
    return w, const


def _reduce(sps: Scenario, w, const) -> tuple:
    ineq = functional_from_full(sps, w, const, ZERO)
    return ineq.coeffs, ineq.offset


def _expression(ineq: Inequality) -> tuple:
    return ineq.coeffs, ineq.offset


def verify_cglmp_implication(eff: Efficiencies) -> dict:
    """The CGLMP-derived inequality is implied by the upper CH bound.

    Checks the exact coefficient identity: CGLMP-derived LHS equals the
    CH expression plus etaB(1-etaA) PB(1|1) + etaA(1-etaB) PA(1|1).  Since
    both marginals are at most 1, the CH bound 0 pushes the CGLMP-derived
    LHS below etaA(1-etaB) + etaB(1-etaA), which is exactly its bound.
    """
    a, b = eff.etaA, eff.etaB
    lhs = cglmp_eta(eff)
    base = ch_eta(eff)
    w, const = _term_functional(
        CHSH,
        marginals_A=[(1, 1, a * (1 - b))],
        marginals_B=[(1, 1, b * (1 - a))],
    )
    extra_coeffs, extra_offset = _reduce(CHSH, w, const)
    got = tuple(u + v for u, v in zip(base.coeffs, extra_coeffs))
    want = lhs.coeffs
    if got != want or base.offset + extra_offset != lhs.offset:
        raise IdentityFailed("CGLMP-derived LHS does not match CH plus marginals")
    additive_bound = a * (1 - b) + b * (1 - a)
    if lhs.bound != additive_bound:
        raise IdentityFailed("CGLMP-derived bound differs from the marginal cap")
    return {
        "identity_holds": True,
        "additive_bound": additive_bound,
        "implied_by_upper_ch": True,
    }


def _hbar(t) -> Fraction:
    """(1-etaA)(1-etaB) h, expanded so it is polynomial at eta = 1."""
    a, b = t.etaA, t.etaB
    return (
        (1 - a) * (1 - b) * t.f1
        + (1 - b) * t.f2AB
        + (1 - a) * t.f2BA
        - 2 * (1 - a) * (1 - b) * (a + b - 2 * a * b) * (3 * a * b - 1)
    )


def _ch_variants(eff: Efficiencies) -> Tuple[Inequality, Inequality, Inequality]:
    """The three relabeled CH expressions used in the lower-bound identity."""
    a, b = eff.etaA, eff.etaB
    e = a * b
    ch1 = from_cg_table(
        CHSH,
        e - a - b,
        (e, a * (1 - b)),
        (e, (1 - a) * b),
        [[-e, -e], [-e, e]],
        0,
    )
    ch2 = from_cg_table(
        CHSH, -b, (e, -a * (1 - b)), (b, 0), [[-e, -e], [-e, e]], 0
    )
    ch2t = from_cg_table(
        CHSH, -a, (a, 0), (e, -(1 - a) * b), [[-e, -e], [-e, e]], 0
    )
    return ch1, ch2, ch2t


def verify_decompositions(eff: Efficiencies) -> dict:
    """Exact verification of the four classification identities.

    Each is checked as an equality of functionals on the no-signaling
    subspace; the report also records the sign conditions under which the
    respective coefficient groups are all non-negative.
    """
    a, b = eff.etaA, eff.etaB
    e = a * b
    upper = _expression(ch_eta(eff))
    report: dict = {"etaA": str(a), "etaB": str(b)}

    # Upper bound: I = -[ (a+b-3ab) P(11|11) + a(1-b) P(12|11)
    #   + b(1-a) P(21|11) + ab (P(12|12)+P(21|21)+P(11|22)) ].
    w, const = _term_functional(
        CHSH,
        joints=[
            (1, 1, 1, 1, -(a + b - 3 * e)),
            (1, 2, 1, 1, -a * (1 - b)),
            (2, 1, 1, 1, -b * (1 - a)),
            (1, 2, 1, 2, -e),
            (2, 1, 2, 1, -e),
            (1, 1, 2, 2, -e),
        ],
    )
    if _reduce(CHSH, w, const) != upper:
        raise IdentityFailed("upper-bound decomposition does not reproduce I")
    report["upper_decomposition"] = {
        "identity_holds": True,
        "coefficients_nonnegative": a + b >= 3 * e,
    }

    lower = (upper[0], upper[1] + 1)  # I + 1

    # decomp1: non-negative coefficients whenever etaA <= 1/2.
    w, const = _term_functional(
        CHSH,
        joints=[
            (2, 2, 1, 1, e),
            (1, 1, 1, 2, e),
            (1, 2, 2, 2, e),
            (1, 2, 2, 1, (1 - 2 * a) * b),
            (2, 2, 2, 1, (1 - a) * b),
        ],
        marginals_A=[(1, 1, (1 - a) * (1 - b)), (2, 1, 1 - b)],
    )
    if _reduce(CHSH, w, const) != lower:
        raise IdentityFailed("decomp1 does not reproduce I + 1")
    report["decomp1"] = {
        "identity_holds": True,
        "coefficients_nonnegative": a <= HALF,
    }

    # decomp2: non-negative whenever both etas >= 1/2 and a+b+ab <= 2.
    w, const = _term_functional(
        CHSH,
        joints=[
            (1, 1, 1, 1, (1 - a) * (1 - b)),
            (2, 2, 1, 1, a + b - 1),
            (2, 2, 2, 1, 1 - a),
            (2, 2, 1, 2, 1 - b),
            (1, 1, 1, 2, (e - a + b) / 2),
            (1, 2, 2, 2, (e - a + b) / 2),
            (1, 1, 2, 1, (e + a - b) / 2),
            (2, 1, 2, 2, (e + a - b) / 2),
            (2, 1, 1, 2, (2 - a - b - e) / 2),
            (1, 2, 2, 1, (2 - a - b - e) / 2),
        ],
    )
    if _reduce(CHSH, w, const) != lower:
        raise IdentityFailed("decomp2 does not reproduce I + 1")
    report["decomp2"] = {
        "identity_holds": True,
        "coefficients_nonnegative": (
            a >= HALF and b >= HALF and a + b + e <= 2
        ),
    }

    # The g-identity behind the dark-gray criterion:
    # g (I + 1) = (1-a)(1-b) h - f1 I1 - f2 I2 - f2' I2t + non-negative part.
    if (a, b) == (ONE, ONE):
        report["g_identity"] = {"identity_holds": None, "skipped": "g(1,1) = 0"}
        return report
    t = thresholds(eff)
    ch1, ch2, ch2t = _ch_variants(eff)
    coeffs = tuple(
        t.g * u - (-t.f1 * c1 - t.f2AB * c2 - t.f2BA * c3)
        for u, c1, c2, c3 in zip(upper[0], ch1.coeffs, ch2.coeffs, ch2t.coeffs)
    )
    offset = t.g * (upper[1] + 1) - (
        _hbar(t) - t.f1 * ch1.offset - t.f2AB * ch2.offset - t.f2BA * ch2t.offset
    )
    w, const = _term_functional(
        CHSH,
        joints=[
            (1, 2, 2, 2, a * (1 - b)),
            (2, 1, 2, 2, b * (1 - a)),
            (2, 2, 1, 1, a + b - 2 * e),
            (2, 2, 1, 2, a + b - 2 * e),
            (2, 2, 2, 1, a + b - 2 * e),
        ],
    )
    scale = 2 * e * (1 - a) * (1 - b)
    w = [scale * v for v in w]
    rest_coeffs, rest_offset = _reduce(CHSH, w, scale * const)
    if coeffs != rest_coeffs or offset != rest_offset:
        raise IdentityFailed("g-identity residual is non-zero")
    report["g_identity"] = {
        "identity_holds": True,
        "remainder_nonnegative": True,
        "g_positive": t.g > 0,
    }
    return report


# ---------------------------------------------------------------------------
# Witness correlations
# ---------------------------------------------------------------------------

def saturating_witnesses(eff: Efficiencies) -> List[JointTable]:
    """Eight affinely independent post-selected-local correlations that
    saturate the upper CH bound, proving it is a facet whenever it is
    non-trivial."""
    t = thresholds(eff)
    if not t.upper_nontrivial:
        raise ThresholdViolated(
            "the upper bound is only a facet when etaA + etaB < 3 etaA etaB"
        )
    a, b = eff.etaA, eff.etaB
    x = (a + b - 2 * a * b) / (2 * a * b)
    y = (1 - a) * b / (2 * a * (2 * b - 1))
    coord_sets = [
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0, 0),
        (HALF, HALF, HALF, HALF, x, HALF, HALF, 0),
        (HALF, HALF, HALF, HALF, HALF, x, HALF, 0),
        (HALF, HALF, HALF, HALF, HALF, HALF, x, 0),
        (HALF, HALF, HALF, HALF, HALF, HALF, HALF, HALF - x),
        (y, HALF, HALF, HALF, y, y, HALF, 0),
    ]
    ineq = ch_eta(eff)
    witnesses = []
    for coords in coord_sets:
        v = CGVector(CHSH, tuple(Fraction(c) for c in coords))
        if ineq.evaluate(v) != 0:
            raise IdentityFailed("witness does not saturate the upper bound")
        cert = is_ps_local(to_full(v), eff)
        if not cert.inside:
            raise IdentityFailed("witness left the post-selected local set")
        witnesses.append(to_full(v))
    if affine_rank([to_cg(w).coords for w in witnesses]) != 7:
        raise IdentityFailed("saturating witnesses are not affinely independent")
    return witnesses


def lower_bound_witness(eff: Efficiencies) -> JointTable:
    """The correlation violating the lower CH bound while satisfying all
    trivial inequalities and the whole upper-bound orbit.

    Only exists in the dark-gray efficiency region (h < 0, both etas
    below 1); its CH value is -1 + (1-etaA)(1-etaB) h / g exactly.
    """
    t = thresholds(eff)
    if t.h is None:
        raise PreconditionFailed("the lower bound is never a facet at eta = 1")
    if t.h >= 0:
        raise PreconditionFailed("requires h < 0")
    a, b = eff.etaA, eff.etaB
    z = t.f1 / t.g
    rA = (1 - a) * b / (a * (1 - b))  # ratio of the two inconclusive weights
    coords = (
        (1 + z) / 2 + rA * z,              # PA(1|1)
        (1 + z) / 2,                       # PA(1|2)
        (1 + z) / 2 + z / rA,              # PB(1|1)
        (1 + z) / 2,                       # PB(1|2)
        (3 * a * b - a - b) / (a * b) * (1 - z) / 2,
        (1 + rA) * z,
        (1 + 1 / rA) * z,
        (1 + z) / 2,
    )
    v = CGVector(CHSH, coords)
    witness = to_full(v)  # constructor enforces the trivial inequalities
    value = ch_eta(eff).evaluate(v)
    if value != -1 + (1 - a) * (1 - b) * t.h / t.g:
        raise IdentityFailed("witness CH value differs from the closed form")
    if value >= -1:
        raise IdentityFailed("witness does not violate the lower bound")
    for member in orbit_key_set(ch_eta(eff), include_party_swap=False):
        if not inequality_from_key(CHSH, member).satisfied_by(v):
            raise IdentityFailed("witness violates an upper-bound orbit member")
    return witness


class RegionClass(Enum):
    WHITE = "white"
    LIGHT_GRAY = "light-gray"
    DARK_GRAY = "dark-gray"


@dataclass(frozen=True)
class RegionReport:
    region: RegionClass
    # Non-signaling correlations can violate the lower bound only when
    # etaA + etaB + etaA etaB > 2 (the dashed curve).
    lower_ns_violable: bool
    thresholds: object


def region_classify(eff: Efficiencies) -> RegionReport:
    """Which facet families delimit L_ps at these efficiencies.

    White: only trivial facets (L_ps fills the non-signaling polytope).
    Light gray: the upper CH bounds are facets too.  Dark gray: both the
    upper and the lower CH bounds are facets.
    """
    t = thresholds(eff)
    if not t.upper_nontrivial:
        region = RegionClass.WHITE
    elif t.lower_facet:
        region = RegionClass.DARK_GRAY
    else:
        region = RegionClass.LIGHT_GRAY
    return RegionReport(
        region=region,
        lower_ns_violable=t.lower_candidate,
        thresholds=t,
    )


# ---------------------------------------------------------------------------
# LP machinery over L_ps itself
# ---------------------------------------------------------------------------

def _ps_constraint_rows(s0: Scenario, eff: Efficiencies) -> List[tuple]:
    """Equality rows (full-table weight vector, rhs) cutting the exact
    efficiency subspace out of the a-priori polytope."""
    a, b = eff.etaA, eff.etaB
    n = flat_size(s0)
    rows = []
    kA = s0.kA - 1 if s0.no_detection_A else s0.kA
    kB = s0.kB - 1 if s0.no_detection_B else s0.kB
    for x in range(s0.mA):
        for y in range(s0.mB):
            if s0.no_detection_B:
                for aa in range(kA):
                    w = [ZERO] * n
                    w[flat_index(s0, x, y, aa, s0.kB - 1)] = b
                    for bb in range(kB):
                        w[flat_index(s0, x, y, aa, bb)] -= 1 - b
                    rows.append((tuple(w), ZERO))
            if s0.no_detection_A:
                for bb in range(kB):
                    w = [ZERO] * n
                    w[flat_index(s0, x, y, s0.kA - 1, bb)] = a
                    for aa in range(kA):
                        w[flat_index(s0, x, y, aa, bb)] -= 1 - a
                    rows.append((tuple(w), ZERO))
            if s0.no_detection_A and s0.no_detection_B:
                w = [ZERO] * n
                w[flat_index(s0, x, y, s0.kA - 1, s0.kB - 1)] = ONE
                rows.append((tuple(w), (1 - a) * (1 - b)))
    return rows


class _PsProgram:
    """Shared LP data for optimizing functionals over L_ps(eff)."""

    def __init__(self, sps: Scenario, eff: Efficiencies):
        if eff.etaA != 1:
            s0 = sps.with_no_detection() if eff.etaB != 1 else Scenario(
                sps.mA, sps.mB, sps.nA, sps.nB, no_detection_A=True
            )
        elif eff.etaB != 1:
            s0 = Scenario(sps.mA, sps.mB, sps.nA, sps.nB, no_detection_B=True)
        else:
            s0 = sps
        self.sps = sps
        self.s0 = s0
        self.eff = eff
        # Each vertex is a 0/1 table: its flat unit cells are all an LP needs.
        self.vertices = [v.cells() for v in enumerate_vertices(s0)]
        self.base_rows = [((ONE,) * len(self.vertices), ONE)] + [
            (self._vertex_values(w), rhs) for w, rhs in _ps_constraint_rows(s0, eff)
        ]

    def _vertex_values(self, w: Sequence) -> tuple:
        """The full-table functional w evaluated at every vertex."""
        return tuple(sum(w[i] for i in cells) for cells in self.vertices)

    def objective_row(self, ineq: Inequality) -> Tuple[tuple, Fraction]:
        """Per-vertex values of the functional's variable part, plus the
        constant, so that value = row . lambda + const."""
        w, const = functional_to_full(ineq)
        scale = ONE / (self.eff.etaA * self.eff.etaB)
        s0, sps = self.s0, self.sps
        w0 = [ZERO] * flat_size(s0)
        for x in range(sps.mA):
            for y in range(sps.mB):
                for aa in range(sps.kA):
                    for bb in range(sps.kB):
                        w0[flat_index(s0, x, y, aa, bb)] = scale * w[
                            flat_index(sps, x, y, aa, bb)
                        ]
        return self._vertex_values(w0), const

    def maximize(self, ineq: Inequality, face_of: Optional[Inequality] = None):
        """Exact max of the functional over L_ps, optionally restricted to
        the face where ``face_of`` is tight.  Returns (value, pps point)."""
        rows = list(self.base_rows)
        if face_of is not None:
            frow, fconst = self.objective_row(face_of)
            rows.append((frow, face_of.bound - fconst))
        obj, const = self.objective_row(ineq)
        A = [list(r) for r, _ in rows]
        bvec = [rhs for _, rhs in rows]
        res = solve_lp(A, bvec, [-c for c in obj])
        if res.status == INFEASIBLE:
            return None, None
        if res.status != OPTIMAL:  # a bounded polytope: never unbounded
            raise CertificateInvalid(f"L_ps LP reported {res.status}")
        point = self.point_from_weights(res.x)
        return -res.objective + const, point

    def point_from_weights(self, weights) -> JointTable:
        s0, sps = self.s0, self.sps
        flat = [ZERO] * flat_size(s0)
        for lam, cells in zip(weights, self.vertices):
            if lam:
                for i in cells:
                    flat[i] += lam
        p0 = unflatten(s0, flat)
        if s0 == sps:
            return p0
        # Conclusive block, renormalized.  The efficiency rows of the LP
        # guarantee the constraints hold exactly, so direct division is
        # equivalent to post-selection for any mix of one- or two-sided
        # no-detection outcomes.
        scale = self.eff.etaA * self.eff.etaB
        return unflatten(sps, [
            flat[flat_index(s0, x, y, a, b)] / scale
            for x in range(sps.mA)
            for y in range(sps.mB)
            for a in range(sps.kA)
            for b in range(sps.kB)
        ])


def _orthogonalize(vec, basis):
    """Component of vec orthogonal to a mutually orthogonal rational basis."""
    out = list(vec)
    for b in basis:
        num = sum(u * v for u, v in zip(out, b))
        if num:
            den = sum(v * v for v in b)
            factor = num / den
            out = [u - factor * v for u, v in zip(out, b)]
    return out


def ps_facet_check(eff: Efficiencies, ineq: Inequality) -> dict:
    """Validity and facet-ness of an inequality for L_ps(eff).

    Validity is an exact LP over the efficiency-constrained a-priori
    polytope.  The dimension of the tight face is computed exactly by the
    affine-hull algorithm: maintain orthogonal bases of the face
    directions found so far and of the hyperplane normals proven so far;
    each remaining direction is settled by one max/min LP pair.
    """
    canon = ineq.canonical_scaled()
    sps = canon.scenario
    prog = _PsProgram(sps, eff)
    best, base_point = prog.maximize(canon)
    valid = best is not None and best <= canon.bound
    result = {"valid": valid, "tight": best == canon.bound}
    if not valid or best < canon.bound:
        result.update({"face_dim": -1, "is_facet": False})
        return result
    dim = sps.cg_dim
    p0 = to_cg(base_point).coords
    directions: List[list] = []  # orthogonal basis of the face's affine hull
    normals: List[list] = []  # orthogonal set of proven face normals
    for i in range(dim):
        cand = [ZERO] * dim
        cand[i] = ONE
        cand = _orthogonalize(cand, directions + normals)
        if all(v == 0 for v in cand):
            continue
        probe = Inequality(sps, tuple(cand), ZERO, ZERO, "<=")
        hi, hi_pt = prog.maximize(probe, face_of=canon)
        neg = Inequality(sps, tuple(-v for v in cand), ZERO, ZERO, "<=")
        lo, lo_pt = prog.maximize(neg, face_of=canon)
        if hi == -lo:
            normals.append(cand)
            continue
        # The face extends along this direction: keep whichever optimum
        # moves away from the base point.
        for pt in (hi_pt, lo_pt):
            delta = [
                u - v for u, v in zip(to_cg(pt).coords, p0)
            ]
            delta = _orthogonalize(delta, directions)
            if any(v != 0 for v in delta):
                directions.append(delta)
                break
        else:
            raise CertificateInvalid("separated optima yielded no new direction")
    face_dim = len(directions)
    result.update({"face_dim": face_dim, "is_facet": face_dim == dim - 1})
    return result


# ---------------------------------------------------------------------------
# The three-input scenario with one-sided detection
# ---------------------------------------------------------------------------

def _orbit_census(facets: Sequence[Inequality]) -> List[dict]:
    """Partition a facet list into relabeling orbits."""
    remaining = {f.key(): f for f in facets}
    orbits = []
    while remaining:
        key = min(remaining)
        rep = remaining[key]
        orbit = orbit_key_set(rep)
        members = [k for k in remaining if k in orbit]
        for k in members:
            del remaining[k]
        orbits.append({"representative": rep, "size": len(members)})
    return orbits


def verify_appendix_b(eta, facet_budget_seconds: Optional[float] = None) -> dict:
    """One-sided detection with three inputs for the perfect side.

    Checks the facet census of the a-priori polytope (orbit sizes 36, 216,
    288, 288 and 432), that the conclusive local polytope has only trivial
    and CH-type facets, and that the derived inequalities for L_ps(1, eta)
    consist of the grouped CH family plus one genuinely new family that no
    relabeling connects to a lifted CH form.
    """
    eta = Fraction(eta)
    if not (HALF < eta < 1):
        raise PreconditionFailed("requires 1/2 < eta < 1")
    eff = Efficiencies.of(1, eta)
    report: dict = {"eta": str(eta)}

    s0 = THREE_INPUT_L0
    # CH with Alice's third input ignored and Bob's first two outcomes
    # grouped into one effective outcome (a singleton grouping would
    # land in a different, non-facet orbit).
    ch_rep = from_cg_table(
        s0,
        0,
        (-1, 0, 0),
        (-1, -1, 0, 0),
        [[1, 1, 1, 1], [1, 1, -1, -1], [0, 0, 0, 0]],
        0,
    )
    try:
        facets = enumerate_facets(local_polytope(s0), facet_budget_seconds)
    except BudgetExceeded as exc:
        # Fallback: certify one representative per claimed family against
        # the vertex representation instead of enumerating everything.
        reps = {"trivial": ns_hrep(s0).facets[0], "ch": ch_rep}
        for k in (1, 2, 3):
            reps[f"new-{k}"] = i3223(k)
        report["census"] = {
            "status": "skipped-budget",
            "reason": str(exc),
            "fallback_facet_checks": {
                label: verify_facet(rep, local_polytope(s0))
                for label, rep in reps.items()
            },
        }
        facets = None
    if facets is not None:
        orbits = _orbit_census(facets)
        trivial_keys = {f.key() for f in ns_hrep(s0).facets}
        families = {}
        for orbit in orbits:
            rep = orbit["representative"]
            if rep.key() in trivial_keys:
                label = "trivial"
            elif rep.key() in orbit_key_set(ch_rep):
                label = "ch"
            else:
                for k in (1, 2, 3):
                    if rep.key() in orbit_key_set(i3223(k)):
                        label = f"new-{k}"
                        break
                else:
                    label = "unrecognized"
            families[label] = families.get(label, 0) + orbit["size"]
        report["census"] = {
            "status": "verified",
            "total": len(facets),
            "families": families,
        }

    conclusive = local_polytope(THREE_INPUT_PS)
    cfacets = enumerate_facets(conclusive)
    trivial_ps = {f.key() for f in ns_hrep(THREE_INPUT_PS).facets}
    ch_ps = from_cg_table(
        THREE_INPUT_PS, 0, (-1, 0, 0), (-1, 0), [[1, 1], [1, -1], [0, 0]], 0
    )
    ch_ps_orbit = orbit_key_set(ch_ps)
    leftovers = [
        f for f in cfacets
        if f.key() not in trivial_ps and f.key() not in ch_ps_orbit
    ]
    report["conclusive_polytope"] = {
        "facets": len(cfacets),
        "trivial": sum(1 for f in cfacets if f.key() in trivial_ps),
        "ch": sum(1 for f in cfacets if f.key() in ch_ps_orbit),
        "other": len(leftovers),
    }

    if facets is not None:
        derived = derive(eff, facets)
        census = classification_census(derived)
        new_orbit = orbit_key_set(i3223_1_eta(eta))
        other_keys = {
            d.result.key()
            for d in derived
            if d.classification is Classification.OTHER
        }
        report["derived"] = {
            "census": census,
            # The new family must come out of the pipeline in full; the
            # remaining non-trivial forms are valid but are not facets.
            "new_family_orbit_size": len(new_orbit),
            "new_family_derived": new_orbit <= other_keys,
            "new_family_disjoint_from_lifted_ch": not (
                new_orbit & orbit_key_set(ch_eta_3in(eta))
            ),
        }

    report["facet_checks"] = {
        "ch_eta": ps_facet_check(eff, ch_eta_3in(eta)),
        "i3223_1_eta": ps_facet_check(eff, i3223_1_eta(eta)),
    }
    return report
