"""Bell inequality catalog, threshold functions, and symmetry machinery.

An :class:`Inequality` is an affine functional in Collins-Gisin coordinates:
``value(P) = offset + coeffs . cg(P)`` compared against ``bound`` via ``<=``
or ``>=``.  Inequalities are stored scale-free: comparisons and orbit
computations go through a canonical coprime-integer key (`coprime_integers`)
with the offset folded into the right-hand side and the relation flipped
to ``<=``.  `Inequality.key` computes it once per object, and
`inequality_from_key` stores a key that is already canonical (the coprime
rays of the double description), so no facet key is rebuilt from Fractions.

Relabeling symmetries (input permutations, per-observable outcome
permutations, party exchange) act on inequalities through their full-table
coefficient representation (the flat layout of `core.flat_index`); the
conversion back to Collins-Gisin coordinates is canonical on the
no-signaling subspace; both are transposes of `core._layout`'s maps.  The
generators are built once per scenario; the orbit search keys a whole
level by one exact product (`linprog.int_matmul`: float64 BLAS below 2**53).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence, Union

import numpy as np

from .core import (
    CGVector,
    CHSH,
    Efficiencies,
    JointTable,
    Scenario,
    _apply,
    _layout,
    flat_size,
    rational,
    to_cg,
)
from .errors import DimensionMismatch
from .linprog import common_denominator, coprime_integers, coprime_rows, int_dtype, int_matmul

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Inequality:
    """A linear inequality on the correlation space of a scenario."""

    scenario: Scenario
    coeffs: tuple
    offset: Fraction = ZERO
    bound: Fraction = ZERO
    relation: str = "<="
    _key: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coeffs = tuple(map(rational, self.coeffs))
        if len(coeffs) != self.scenario.cg_dim:
            raise DimensionMismatch(
                f"expected {self.scenario.cg_dim} coefficients, got {len(coeffs)}"
            )
        if self.relation not in ("<=", ">="):
            raise ValueError("relation must be '<=' or '>='")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "offset", rational(self.offset))
        object.__setattr__(self, "bound", rational(self.bound))

    def evaluate(self, p: Union[JointTable, CGVector]) -> Fraction:
        """offset + coeffs . cg(p), exact."""
        if isinstance(p, JointTable):
            p = to_cg(p)
        if p.scenario != self.scenario:
            raise DimensionMismatch("inequality and point over different scenarios")
        return self.offset + sum(c * v for c, v in zip(self.coeffs, p.coords))

    def satisfied_by(self, p: Union[JointTable, CGVector]) -> bool:
        value = self.evaluate(p)
        return value <= self.bound if self.relation == "<=" else value >= self.bound

    def slack(self, p: Union[JointTable, CGVector]) -> Fraction:
        """bound - value for '<=', value - bound for '>=' (non-negative iff satisfied)."""
        value = self.evaluate(p)
        return self.bound - value if self.relation == "<=" else value - self.bound

    def key(self) -> tuple:
        """Canonical coprime-integer key (coeffs..., rhs) with relation '<=',
        computed once per object."""
        if self._key is None:
            values = self.coeffs + (self.bound - self.offset,)
            if self.relation == ">=":
                values = tuple(-c for c in values)
            object.__setattr__(self, "_key", coprime_integers(values))
        return self._key

    def canonical_scaled(self) -> "Inequality":
        """The '<='-oriented coprime-integer representative of this inequality."""
        return inequality_from_key(self.scenario, self.key())

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "coeffs": [str(c) for c in self.coeffs],
            "offset": str(self.offset),
            "bound": str(self.bound),
            "relation": self.relation,
        }

    @classmethod
    def from_dict(cls, d) -> "Inequality":
        return cls(
            Scenario.from_dict(d["scenario"]),
            tuple(rational(c) for c in d["coeffs"]),
            rational(d["offset"]),
            rational(d["bound"]),
            d["relation"],
        )


def inequality_from_key(scenario: Scenario, key: tuple) -> Inequality:
    """The '<=' inequality (coeffs..., rhs) of a key; a canonical key is stored."""
    ineq = Inequality(scenario, tuple(key[:-1]), ZERO, key[-1], "<=")
    if set(map(type, key)) == {int} and gcd(*key) <= 1:  # already canonical
        object.__setattr__(ineq, "_key", tuple(key))
    return ineq


def from_cg_table(
    scenario: Scenario,
    corner,
    alice_marginals: Sequence,
    bob_marginals: Sequence,
    joints: Sequence[Sequence],
    bound,
    relation: str = "<=",
) -> Inequality:
    """Build an inequality from the usual tabular notation.

    ``alice_marginals`` label the rows (one per (input, outcome) pair of
    Alice, outcomes before the last), ``bob_marginals`` the columns, and
    ``joints`` is the row-major coefficient matrix.  ``corner`` is the
    constant added to the combination.
    """
    alpha = scenario.mA * (scenario.kA - 1)
    beta = scenario.mB * (scenario.kB - 1)
    if len(alice_marginals) != alpha or len(bob_marginals) != beta:
        raise DimensionMismatch("marginal label count does not match scenario")
    if len(joints) != alpha or any(len(r) != beta for r in joints):
        raise DimensionMismatch("joint coefficient block has wrong shape")
    coeffs = (
        tuple(rational(c) for c in alice_marginals)
        + tuple(rational(c) for c in bob_marginals)
        + tuple(rational(c) for row in joints for c in row)
    )
    return Inequality(scenario, coeffs, rational(corner), rational(bound), relation)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def ch() -> Inequality:
    """The CHSH inequality in CH form, I_CH <= 0."""
    return from_cg_table(CHSH, 0, (-1, 0), (-1, 0), [[1, 1], [1, -1]], 0)


def cglmp() -> Inequality:
    """The three-outcome CGLMP inequality on the 2-input scenario with
    no-detection outcomes, I_CGLMP <= 0."""
    s = CHSH.with_no_detection()
    return from_cg_table(
        s,
        0,
        (-1, -1, 0, 0),
        (-1, -1, 0, 0),
        [
            [1, 0, 1, 1],
            [1, 1, 0, 1],
            [1, 1, -1, -1],
            [0, 1, 0, -1],
        ],
        0,
    )


def ch_eta(eff: Efficiencies) -> Inequality:
    """The efficiency-weighted CH inequality, I <= 0 (upper form)."""
    a, b = eff.etaA, eff.etaB
    return from_cg_table(
        CHSH, 0, (-a, 0), (-b, 0), [[a * b, a * b], [a * b, -a * b]], 0
    )


def ch_eta_lower(eff: Efficiencies) -> Inequality:
    """The lower form I >= -1, recast canonically as -I <= 1."""
    upper = ch_eta(eff)
    return Inequality(CHSH, tuple(-c for c in upper.coeffs), ZERO, ONE, "<=")


def cglmp_eta(eff: Efficiencies) -> Inequality:
    """The inequality induced by the CGLMP facet after post-selection:
    all-joint coefficients etaA*etaB, bounded by etaA(1-etaB)+etaB(1-etaA)."""
    a, b = eff.etaA, eff.etaB
    e = a * b
    return from_cg_table(
        CHSH,
        0,
        (-e, 0),
        (-e, 0),
        [[e, e], [e, -e]],
        a * (1 - b) + b * (1 - a),
    )


THREE_INPUT_L0 = Scenario(3, 2, 2, 2, no_detection_B=True)
THREE_INPUT_PS = Scenario(3, 2, 2, 2)


def i3223(k: int) -> Inequality:
    """The three-input facet families of the 3x2-input a-priori polytope
    (Alice binary, Bob with a no-detection outcome)."""
    s = THREE_INPUT_L0
    if k == 1:
        return from_cg_table(
            s,
            0,
            (-1, 0, 0),
            (-1, -1, 0, 0),
            [[1, 1, 1, 0], [1, 0, -1, 0], [0, 1, -1, 0]],
            0,
        )
    if k == 2:
        return from_cg_table(
            s,
            0,
            (-1, -1, 0),
            (-1, 0, 0, 0),
            [[1, 0, 1, 0], [1, 0, 0, 1], [1, 0, -1, -1]],
            0,
        )
    if k == 3:
        return from_cg_table(
            s,
            0,
            (1, 0, 0),
            (1, -1, 0, 0),
            [[-1, -1, -1, -1], [-1, 1, -1, 1], [-1, 1, 1, -1]],
            1,
        )
    raise ValueError("k must be 1, 2 or 3")


def ch_eta_3in(eta) -> Inequality:
    """The grouped CH inequality on the 3-input post-selected scenario
    (Alice perfect detection), I <= 0."""
    e = rational(eta)
    return from_cg_table(
        THREE_INPUT_PS, 0, (-1, 0, 0), (-e, 0), [[e, e], [e, -e], [0, 0]], 0
    )


def i3223_1_eta(eta) -> Inequality:
    """The genuinely new three-input inequality for the post-selected
    polytope with Alice perfect detection, I <= eta."""
    e = rational(eta)
    return from_cg_table(
        THREE_INPUT_PS,
        0,
        (-(1 - e), 0, e),
        (0, 0),
        [[0, e], [e, -e], [-e, -e]],
        e,
    )


# ---------------------------------------------------------------------------
# Threshold functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdReport:
    """Exact values of the efficiency-threshold functions at one pair.

    ``h`` is None when one efficiency equals 1 (its defining formula divides
    by 1-eta); the lower-bound inequality is never a facet there.
    """

    etaA: Fraction
    etaB: Fraction
    f1: Fraction
    f2AB: Fraction
    f2BA: Fraction
    g: Fraction
    h: Optional[Fraction]
    F: Fraction
    G: Fraction
    upper_nontrivial: bool
    lower_candidate: bool
    lower_facet: bool


def thresholds(eff: Efficiencies) -> ThresholdReport:
    a, b = eff.etaA, eff.etaB

    def f1(u, v):
        return (1 - u) * (1 - v) * (3 * u * v - u - v)

    def f2(u, v):
        return f1(u, v) + 2 * (1 - u) ** 2 * v ** 2

    f1ab = f1(a, b)
    f2ab = f2(a, b)
    f2ba = f2(b, a)
    g = f1ab + f2ab + f2ba + 2 * (1 - a) * (1 - b) * (a + b - 2 * a * b)
    if a == 1 or b == 1:
        h = None
    else:
        h = (
            f1ab
            + f2ab / (1 - a)
            + f2ba / (1 - b)
            - 2 * (a + b - 2 * a * b) * (3 * a * b - 1)
        )
    F = (a + b - a * b) / (2 * a * b)
    G = (2 - a - b + a * b) / (2 * a * b)
    return ThresholdReport(
        etaA=a,
        etaB=b,
        f1=f1ab,
        f2AB=f2ab,
        f2BA=f2ba,
        g=g,
        h=h,
        F=F,
        G=G,
        upper_nontrivial=a + b < 3 * a * b,
        lower_candidate=a + b + a * b > 2,
        lower_facet=(h is not None and h < 0),
    )


# ---------------------------------------------------------------------------
# Functional representation on the full table space
# ---------------------------------------------------------------------------

def functional_to_full(ineq: Inequality) -> tuple:
    """A full-table coefficient representation (w, const) of the functional:
    w is the transpose of the CG selection (`core._layout`) times its
    coefficients.

    The representation is not unique (marginals are expanded at the first
    remote input); equality of functionals must be checked after converting
    back with :func:`functional_from_full`.
    """
    nums, den = common_denominator(ineq.coeffs)
    w = _apply(_layout(ineq.scenario).cg.T, nums)
    return tuple(Fraction(v, den) for v in w), ineq.offset


def functional_from_full(
    s: Scenario, w: Sequence, const, bound, relation: str = "<="
) -> Inequality:
    """Restrict a full-table functional to the no-signaling subspace and
    express it canonically in CG coordinates: the transpose of the
    reconstruction (`core._layout`) times w."""
    nums, den = common_denominator(w)
    offset, *coeffs = (Fraction(v, den) for v in _apply(_layout(s).full.T, nums))
    return Inequality(s, tuple(coeffs), rational(const) + offset, rational(bound), relation)


# ---------------------------------------------------------------------------
# Symmetry orbits
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _transposition_perms(
    s: Scenario, fix_no_detection: bool, include_party_swap: bool
) -> tuple:
    """Flat-index permutations generating the relabeling group, built once
    per (scenario, flags).

    Generators: adjacent input transpositions on each side, adjacent outcome
    transpositions per observable (holding the no-detection outcome fixed
    when requested), and the party exchange when the scenario is symmetric.
    All generators are involutions.
    """
    idx = np.arange(flat_size(s)).reshape(s.mA, s.mB, s.kA, s.kB)

    def swap(*at) -> tuple:
        """idx with the two entries picked by the last index of ``at`` exchanged."""
        *head, (i, j) = at
        perm = idx.copy()
        perm[(*head, [i, j])] = idx[(*head, [j, i])]
        return tuple(perm.ravel().tolist())

    topA = s.kA - 1 if (fix_no_detection and s.no_detection_A) else s.kA
    topB = s.kB - 1 if (fix_no_detection and s.no_detection_B) else s.kB
    every = slice(None)
    perms = (
        [swap((x, x + 1)) for x in range(s.mA - 1)]
        + [swap(every, (y, y + 1)) for y in range(s.mB - 1)]
        + [swap(x, every, (a, a + 1)) for x in range(s.mA) for a in range(topA - 1)]
        + [swap(every, y, every, (b, b + 1)) for y in range(s.mB) for b in range(topB - 1)]
    )
    if include_party_swap and s.mA == s.mB and s.kA == s.kB:
        perms.append(tuple(idx.transpose(1, 0, 3, 2).ravel().tolist()))
    return tuple(perms)


def _orbit_keys(
    ineq: Inequality, fix_no_detection: bool, include_party_swap: Optional[bool]
) -> dict:
    """Map from canonical key to one full-tensor witness, for the whole orbit.

    Breadth-first over the generators, one level at a time: the frontier's
    full-table functionals F are permuted by every generator at once
    (F[:, perms]) and keyed by one exact integer product (`int_matmul`)
    with the reconstruction of `core._layout`, bounded by max|w| * max|full| * len(w) +
    |rhs| (a relabeling keeps max|w|).  Keys are visited in (functional,
    generator) order, so each key keeps its first-found witness and the
    dict's order is that of the one-at-a-time search.
    """
    s = ineq.scenario
    if include_party_swap is None:
        include_party_swap = s.mA == s.mB and s.kA == s.kB
    _, cg, full = _layout(s)
    key0 = ineq.key()
    rhs0 = key0[-1]
    w0 = _apply(cg.T, key0[:-1])
    perms = _transposition_perms(s, fix_no_detection, include_party_swap)
    perms = np.array(perms, dtype=np.intp).reshape(-1, len(w0))
    bound = max(map(abs, w0)) * int(np.abs(full).max()) * len(w0) + abs(rhs0)

    seen = {}
    level = np.array([w0], dtype=int_dtype(bound))
    while len(level):
        values = int_matmul(level, full, bound)
        keys = coprime_rows(np.column_stack([values[:, 1:], rhs0 - values[:, 0]]))
        fresh = {}
        for i, k in enumerate(map(tuple, keys.tolist())):
            if k not in seen and k not in fresh:
                fresh[k] = i
        level = level[list(fresh.values())]
        seen.update(zip(fresh, map(tuple, level.tolist())))
        level = level[:, perms].reshape(-1, len(w0))
    return seen


def symmetry_orbit(
    ineq: Inequality,
    fix_no_detection: bool = False,
    include_party_swap: Optional[bool] = None,
) -> list:
    """All inequalities equivalent to ``ineq`` under relabelings.

    Party exchange is included by default exactly when the scenario is
    symmetric (mA == mB and equal outcome counts); pass
    ``include_party_swap=False`` to restrict to single-party relabelings,
    e.g. when the two sides carry different detection efficiencies.
    Elements are returned canonically scaled, in deterministic order.
    """
    keys = _orbit_keys(ineq, fix_no_detection, include_party_swap)
    return [inequality_from_key(ineq.scenario, k) for k in sorted(keys)]


def orbit_key_set(
    ineq: Inequality,
    fix_no_detection: bool = False,
    include_party_swap: Optional[bool] = None,
) -> frozenset:
    """The orbit as a set of canonical keys, for fast classification."""
    return frozenset(_orbit_keys(ineq, fix_no_detection, include_party_swap))


def canonical_form(
    ineq: Inequality,
    fix_no_detection: bool = False,
    include_party_swap: Optional[bool] = None,
) -> Inequality:
    """The orbit-minimal representative under the lexicographic key order.

    Constant on symmetry orbits and idempotent; equivalent inequalities map
    to equal objects.
    """
    keys = _orbit_keys(ineq, fix_no_detection, include_party_swap)
    return inequality_from_key(ineq.scenario, min(keys))
