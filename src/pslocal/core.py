"""Exact-rational correlation tables and Collins-Gisin coordinates.

Conventions
-----------
* Inputs and outcomes are 0-based internally.  The no-detection outcome, when
  a side has one, is encoded as the *last* outcome index of that side.  All
  user-facing serialization is 1-based, matching the usual Bell-scenario
  notation.
* All probabilities are `fractions.Fraction`; floats never enter this module.
  `rational` hands out one shared, immutable Fraction per recently seen int
  (a bounded cache).
* Collins-Gisin coordinates are ordered as: Alice first-outcome marginals
  (by input, then outcome), Bob first-outcome marginals, then the joint block
  in row-major order (Alice label rows, Bob label columns).
* A full table flattens to one tuple in (x, y, a, b) row-major order
  (`flat_index`, `flatten`, `unflatten`).  Only this module knows that
  layout: per scenario it caches the no-signalling rows, the CG selection,
  the reconstruction (`_layout`) and the detection map (`_detection_map`)
  as integer arrays, and a table or functional converts by one exact
  product with one of them or its transpose (`_lift_keys`: the adjoint).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EfficiencyMismatch,
    InvalidSetup,
    NotAProbability,
    SignalingInput,
    UnknownName,
    ZeroEfficiency,
)
from .linprog import Numerators, common_denominator, int_dtype, int_matmul

RationalLike = Union[int, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# Facet keys repeat a few small ints; the cache is bounded whatever the input.
_int_fraction = lru_cache(maxsize=4096)(Fraction)


def rational(value: RationalLike) -> Fraction:
    """Parse an exact rational from an int, Fraction, "p/q" or decimal string.

    Floats are rejected on purpose: converting binary floats silently would
    defeat the exactness guarantees of this module.
    """
    if type(value) is Fraction:
        return value
    if type(value) is int:  # exact type: a bool must still raise below
        return _int_fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True, order=True)
class Scenario:
    """A bipartite Bell scenario.

    ``nA``/``nB`` count the *conclusive* outcomes; when a side carries a
    no-detection outcome, its effective outcome count is one larger and the
    extra outcome is always the last index.
    """

    mA: int
    mB: int
    nA: int
    nB: int
    no_detection_A: bool = False
    no_detection_B: bool = False

    def __post_init__(self) -> None:
        if self.mA < 1 or self.mB < 1:
            raise ValueError("input counts must be >= 1")
        if self.nA < 2 or self.nB < 2:
            raise ValueError("conclusive outcome counts must be >= 2")

    @property
    def kA(self) -> int:
        """Effective number of outcomes on Alice's side."""
        return self.nA + (1 if self.no_detection_A else 0)

    @property
    def kB(self) -> int:
        """Effective number of outcomes on Bob's side."""
        return self.nB + (1 if self.no_detection_B else 0)

    @property
    def cg_dim(self) -> int:
        """Dimension of the associated correlation space."""
        return (self.mA * (self.kA - 1) + 1) * (self.mB * (self.kB - 1) + 1) - 1

    def with_no_detection(self) -> "Scenario":
        """The same scenario with a no-detection outcome added on both sides."""
        if self.no_detection_A or self.no_detection_B:
            raise ValueError("scenario already carries a no-detection outcome")
        return Scenario(self.mA, self.mB, self.nA, self.nB, True, True)

    def conclusive(self) -> "Scenario":
        """The scenario restricted to conclusive outcomes."""
        return Scenario(self.mA, self.mB, self.nA, self.nB)

    @classmethod
    def chsh(cls) -> "Scenario":
        return cls(2, 2, 2, 2)

    def to_dict(self) -> dict:
        return {
            "mA": self.mA,
            "mB": self.mB,
            "nA": self.nA,
            "nB": self.nB,
            "no_detection_A": self.no_detection_A,
            "no_detection_B": self.no_detection_B,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Scenario":
        counts = [_field(d, name, int, "scenario") for name in ("mA", "mB", "nA", "nB")]
        flag = lambda name: name in d and _field(d, name, bool, "scenario")
        if "no_detection" in d:
            if "no_detection_A" in d or "no_detection_B" in d:
                raise ValueError("scenario field 'no_detection' excludes 'no_detection_A' and 'no_detection_B'")
            return cls(*counts, flag("no_detection"), flag("no_detection"))
        return cls(*counts, flag("no_detection_A"), flag("no_detection_B"))


def _field(d, name: str, kind: type, what: str):
    """``d[name]`` of the parsed JSON object ``what``, checked to be a
    ``kind`` (int, bool or Mapping; a bool is no int): a ValueError names
    the missing or ill-typed field."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{what} must be a JSON object, not {type(d).__name__}")
    if name not in d:
        raise ValueError(f"{what} lacks the field {name!r}")
    if not isinstance(d[name], kind) or (kind is int and isinstance(d[name], bool)):
        expected = {int: "an int", bool: "true or false"}.get(kind, "a JSON object")
        raise ValueError(f"{what} field {name!r} must be {expected}, not {type(d[name]).__name__}")
    return d[name]


CHSH = Scenario.chsh()


def _as_table(scenario: Scenario, entries) -> tuple:
    """Coerce nested entries into an immutable [x][y][a][b] Fraction tensor."""
    mA, mB, kA, kB = scenario.mA, scenario.mB, scenario.kA, scenario.kB
    if len(entries) != mA:
        raise DimensionMismatch("wrong number of Alice inputs")
    table = []
    for x in range(mA):
        if len(entries[x]) != mB:
            raise DimensionMismatch("wrong number of Bob inputs")
        row = []
        for y in range(mB):
            block = entries[x][y]
            if len(block) != kA or any(len(b) != kB for b in block):
                raise DimensionMismatch("outcome block has wrong shape")
            row.append(tuple(tuple(rational(v) for v in b) for b in block))
        table.append(tuple(row))
    return tuple(table)


@dataclass(frozen=True)
class JointTable:
    """Exact conditional probability table P(a,b|x,y) over a scenario.

    Each (x, y) block must sum to one exactly.  Entries must be non-negative
    unless ``allow_negative`` is set (used for affine slice combinations that
    may leave the non-signaling polytope).
    """

    scenario: Scenario
    p: tuple
    allow_negative: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _as_table(self.scenario, self.p))
        for x in range(self.scenario.mA):
            for y in range(self.scenario.mB):
                block = self.p[x][y]
                total = sum(v for row in block for v in row)
                if total != 1:
                    raise NotAProbability(
                        f"block (x={x}, y={y}) sums to {total}, not 1"
                    )
                if not self.allow_negative:
                    for row in block:
                        for v in row:
                            if v < 0 or v > 1:
                                raise NotAProbability(f"entry {v} outside [0, 1]")

    def is_proper(self) -> bool:
        """True when every entry lies in [0, 1]."""
        return all(
            0 <= v <= 1
            for x in range(self.scenario.mA)
            for y in range(self.scenario.mB)
            for row in self.p[x][y]
            for v in row
        )

    def as_nested(self) -> list:
        return [
            [[list(row) for row in self.p[x][y]] for y in range(self.scenario.mB)]
            for x in range(self.scenario.mA)
        ]


@dataclass(frozen=True)
class CGVector:
    """Collins-Gisin coordinates of a non-signaling correlation."""

    scenario: Scenario
    coords: tuple

    def __post_init__(self) -> None:
        coords = tuple(rational(v) for v in self.coords)
        if len(coords) != self.scenario.cg_dim:
            raise DimensionMismatch(
                f"expected {self.scenario.cg_dim} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "coords", coords)


def flat_index(s: Scenario, x: int, y: int, a: int, b: int) -> int:
    """Position of P(a,b|x,y) in the flat layout of a full table."""
    return ((x * s.mB + y) * s.kA + a) * s.kB + b


def flat_size(s: Scenario) -> int:
    return s.mA * s.mB * s.kA * s.kB


def flatten(t: JointTable) -> tuple:
    """The entries of a full table in flat_index order."""
    return tuple(v for plane in t.p for block in plane for row in block for v in row)


def unflatten(s: Scenario, flat: Sequence, allow_negative: bool = False) -> JointTable:
    """The table whose entries in flat_index order are ``flat`` (validated
    like every JointTable)."""
    if len(flat) != flat_size(s):
        raise DimensionMismatch(f"expected {flat_size(s)} entries, got {len(flat)}")
    it = iter(flat)
    entries = [
        [[[next(it) for _ in range(s.kB)] for _ in range(s.kA)] for _ in range(s.mB)]
        for _ in range(s.mA)
    ]
    return JointTable(s, entries, allow_negative=allow_negative)


class _Layout(NamedTuple):
    """A scenario's flat table p as integer maps, each applied by one exact product (`_apply`)."""

    ns: np.ndarray  # ns @ p == 0 iff p is no-signalling
    cg: np.ndarray  # cg @ p = the CG coordinates of p (`to_cg`)
    full: np.ndarray  # full @ (1, cg(p)) = p (`to_full`): the reconstruction


@lru_cache(maxsize=None)
def _layout(s: Scenario) -> _Layout:
    """The maps of `_Layout`, built once per scenario.  ``ns`` holds the
    differences of each marginal from its value at the first remote input;
    ``cg`` picks the marginals at the first remote input and the joint
    cells of all outcomes but the last.  Block (x, y) of ``full`` is
    S_A^-1 G S_B^-T: G = [[1, P_B(.|y)], [P_A(.|x), p(., .|x, y)]] over
    (1, coords), and S^-1 inverts outcomes -> (total, first outcomes)."""
    mA, mB, kA, kB, n, dim = s.mA, s.mB, s.kA, s.kB, flat_size(s), s.cg_dim
    cells = np.eye(n, dtype=np.int64).reshape(mA, mB, kA, kB, n)
    marg_A, marg_B = cells.sum(axis=3), cells.sum(axis=2)
    ns = [marg_A[:, 1:] - marg_A[:, :1], marg_B[1:] - marg_B[:1]]
    cg = [marg_A[:, 0, :-1], marg_B[0, :, :-1], cells[:, :, :-1, :-1].transpose(0, 2, 1, 3, 4)]
    alpha, beta = mA * (kA - 1), mB * (kB - 1)
    col = np.zeros((mA, mB, kA, kB), dtype=np.intp)  # G's entries as columns of (1, coords)
    col[:, :, 1:, 0] = 1 + np.arange(alpha).reshape(mA, 1, kA - 1)
    col[:, :, 0, 1:] = 1 + alpha + np.arange(beta).reshape(mB, kB - 1)
    joint = 1 + alpha + beta + np.arange(alpha * beta)
    col[:, :, 1:, 1:] = joint.reshape(mA, kA - 1, mB, kB - 1).transpose(0, 2, 1, 3)

    def inv(k: int) -> np.ndarray:  # rows e_1, ..., e_k-1, then e_0 - e_1 - ... - e_k-1
        e = np.eye(k, dtype=np.int64)
        return np.vstack([e[1:], 2 * e[:1] - 1])

    G = np.eye(dim + 1, dtype=np.int64)[col]
    full = np.einsum("ai,xyijc,bj->xyabc", inv(kA), G, inv(kB)).reshape(n, dim + 1)
    stack = lambda blocks: np.concatenate([b.reshape(-1, n) for b in blocks])
    return _Layout(stack(ns), stack(cg), full)


def _apply(M: np.ndarray, v: Sequence[int]) -> list:
    """M @ v, exactly, for an integer matrix M and a list of ints
    (`int_matmul`, bounded by max|v| * max|M| * len(v))."""
    bound = max(map(abs, v), default=0) * int(np.abs(M).max(initial=0)) * len(v)
    return int_matmul(M, v, bound).tolist()


def is_nonsignaling(t: JointTable) -> bool:
    """Exact check that both marginals are independent of the remote input."""
    nums, _ = common_denominator(flatten(t))
    return not any(_apply(_layout(t.scenario).ns, nums))


def to_cg(t: JointTable) -> CGVector:
    """Collins-Gisin coordinates of a no-signaling table (exact)."""
    s = t.scenario
    nums, den = common_denominator(flatten(t))
    if any(_apply(_layout(s).ns, nums)):
        raise SignalingInput("table is signaling; CG coordinates undefined")
    return CGVector(s, tuple(Fraction(v, den) for v in _apply(_layout(s).cg, nums)))


def to_full(v: CGVector, allow_negative: bool = False) -> JointTable:
    """Reconstruct the full table from CG coordinates (exact inverse of to_cg).

    Raises NotAProbability when a reconstructed entry leaves [0, 1], unless
    ``allow_negative`` is set.
    """
    nums, den = common_denominator(v.coords)
    flat = _apply(_layout(v.scenario).full, [den, *nums])
    return unflatten(v.scenario, [Fraction(u, den) for u in flat], allow_negative)


@dataclass(frozen=True, order=True)
class Efficiencies:
    """An exact detection-efficiency pair with 0 < eta <= 1 on each side."""

    etaA: Fraction
    etaB: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "etaA", rational(self.etaA))
        object.__setattr__(self, "etaB", rational(self.etaB))
        for eta in (self.etaA, self.etaB):
            if not 0 < eta <= 1:
                raise ValueError(f"efficiency {eta} outside (0, 1]")

    @classmethod
    def of(cls, etaA: RationalLike, etaB: RationalLike) -> "Efficiencies":
        return cls(rational(etaA), rational(etaB))


@lru_cache(maxsize=None)
def _detection_map(s: Scenario) -> tuple:
    """The detection map of a conclusive scenario as integer 0/1 blocks
    over its flat table (`flat_index`): (select, ns, lifted, cg).
    ``select`` stacks the ``ns`` no-signalling rows of `_layout`, then per
    setting pair Alice's marginals, Bob's marginals and the joint cells.
    ``lifted`` and ``cg`` pair each entry of the lifted table (flat order)
    and of its CG coordinates with its entry of ``select @ p`` (a constant
    1 appended) and its weight (`_weights`)."""
    mA, mB, nA, nB, n = s.mA, s.mB, s.nA, s.nB, flat_size(s)
    cells = np.eye(n, dtype=np.int64).reshape(mA, mB, nA, nB, n)
    ns = _layout(s).ns
    blocks = [cells.sum(axis=3), cells.sum(axis=2), cells]
    select = np.concatenate([ns] + [b.reshape(-1, n) for b in blocks])
    ends = np.cumsum([len(ns)] + [b.size // n for b in blocks])
    i_A, i_B, i_J = (np.arange(ends[k], ends[k + 1]).reshape(blocks[k].shape[:-1]) for k in range(3))
    # Lifted cells: eA*eB p, eA*(1-eB) P_A, (1-eA)*eB P_B and (1-eA)*(1-eB).
    src = np.full((mA, mB, nA + 1, nB + 1), len(select))
    weight = np.full_like(src, 3)
    src[:, :, :nA, :nB], weight[:, :, :nA, :nB] = i_J, 0
    src[:, :, :nA, nB], weight[:, :, :nA, nB] = i_A, 1
    src[:, :, nA, :nB], weight[:, :, nA, :nB] = i_B, 2
    # CG coordinates: eA P_A(a|x), eB P_B(b|y), then eA*eB p in (x, a, y, b) order.
    cg = [i_A[:, 0], i_B[0], i_J.transpose(0, 2, 1, 3)]
    cg_weight = np.repeat([4, 5, 0], [i.size for i in cg])
    pairs = lambda i, w: tuple(zip(i.ravel().tolist(), w.ravel().tolist()))
    return select, len(ns), pairs(src, weight), pairs(np.concatenate([i.ravel() for i in cg]), cg_weight)


def _weights(eff: Efficiencies) -> Tuple[tuple, int]:
    """The detection map's weights eA*eB, eA*(1-eB), (1-eA)*eB,
    (1-eA)*(1-eB), eA and eB as integers over one denominator da * db."""
    a, da, b, db = eff.etaA.numerator, eff.etaA.denominator, eff.etaB.numerator, eff.etaB.denominator
    return (a * b, a * (db - b), (da - a) * b, (da - a) * (db - b), a * db, da * b), da * db


def _detect(s: Scenario, P: list, D: int, eff: Efficiencies, cg: bool) -> Tuple[bool, list, int]:
    """Whether the conclusive table P / D (numerators in flat order) is
    no-signalling, and numerators over one denominator of its lifted table
    or, with ``cg``, of that table's CG coordinates: one integer product,
    int64 below the `int_dtype` bound and Python ints past it."""
    select, ns, lifted, cg_pairs = _detection_map(s)
    dtype = int_dtype(max(map(abs, P)) * len(P))
    v = (select.astype(dtype, copy=False) @ np.array(P, dtype=dtype)).tolist() + [D]
    w, den = _weights(eff)
    return not any(v[:ns]), [v[i] * w[k] for i, k in (cg_pairs if cg else lifted)], D * den


@lru_cache(maxsize=None)
def _lift_blocks(s0: Scenario) -> np.ndarray:
    """The adjoint of the detection map on CG functionals of s0, one
    integer block per weight of the lifted cells (`_lift_keys`)."""
    s, two = s0.conclusive(), s0.conclusive().with_no_detection()
    select, _, lifted, _ = _detection_map(s)
    # The CG selection of s0 over the two-sided table: a side without a
    # no-detection outcome misses those cells, whose weight is 0 at eta = 1.
    cg0 = np.zeros((s0.cg_dim, flat_size(two)), dtype=np.int64)
    cg0[:, flat_index(two, *np.indices((s0.mA, s0.mB, s0.kA, s0.kB)).reshape(4, -1))] = _layout(s0).cg
    # (p, 1) -> select @ p and 1, and (1, cg(p)) -> (p, 1).
    ext = np.zeros((len(select) + 1, flat_size(s) + 1), dtype=np.int64)
    ext[:-1, :-1], ext[-1, -1] = select, 1
    full = np.vstack([_layout(s).full, np.eye(1, s.cg_dim + 1, dtype=np.int64)])
    src, weight = np.array(lifted).T
    blocks = np.zeros((4, s0.cg_dim + 1, s.cg_dim + 1), dtype=np.int64)
    for k, block in enumerate(blocks):
        M = cg0 @ np.where((weight == k)[:, None], ext[src], 0) @ full
        block[:-1, :-1], block[:-1, -1] = M[:, 1:], -M[:, 0]
    return blocks


def _lift_keys(s0: Scenario, keys: Sequence[Sequence[int]], eff: Efficiencies) -> np.ndarray:
    """Keys (c, r) of inequalities c . cg(p0) <= r on the a-priori s0 as
    keys of c . cg(lift(p)) <= r times da * db (`_weights`): one product with
    the detection map's adjoint T, the `_lift_blocks` weighted by `_weights`."""
    if not s0.no_detection_A and eff.etaA != 1:
        raise InvalidSetup("etaA < 1 requires a no-detection outcome on Alice's side")
    if not s0.no_detection_B and eff.etaB != 1:
        raise InvalidSetup("etaB < 1 requires a no-detection outcome on Bob's side")
    w, den = _weights(eff)
    blocks = _lift_blocks(s0)
    bound = 4 * max(w) * int(np.abs(blocks).max())  # bounds |T|, den included
    T = sum(wk * block for wk, block in zip(w, blocks.astype(int_dtype(bound))))
    T[-1, -1] = den
    return int_matmul(keys, T, max(abs(v) for key in keys for v in key) * bound * len(T))


def lift_numerators(pps: JointTable, eff: Efficiencies, cg: bool = False) -> Numerators:
    """`lift` in integers: numerators over one positive denominator of the
    lifted table in flat order or, with ``cg``, of its CG coordinates."""
    s = pps.scenario
    if s.no_detection_A or s.no_detection_B:
        raise DimensionMismatch("input table must be over a conclusive scenario")
    no_signalling, nums, den = _detect(s, *common_denominator(flatten(pps)), eff, cg)
    if not no_signalling:
        raise SignalingInput("cannot lift a signaling table")
    return Numerators(nums, den)


def lift(pps: JointTable, eff: Efficiencies) -> JointTable:
    """The unique a-priori table with the given efficiencies post-selecting to pps.

    The efficiency constraints determine the no-detection blocks completely:
    conclusive/conclusive entries are scaled by etaA*etaB, the mixed blocks
    carry the scaled marginals, and the double-no-detection weight is
    (1-etaA)(1-etaB) for every setting pair.
    """
    nums, den = lift_numerators(pps, eff)
    return unflatten(pps.scenario.with_no_detection(), [Fraction(v, den) for v in nums])


def postselect(p0: JointTable, eff: Efficiencies) -> JointTable:
    """Condition an a-priori table on both detectors having fired.

    The input must satisfy the detection-efficiency constraints exactly for
    ``eff``; the output is then the conclusive block divided by etaA*etaB,
    automatically normalized and no-signaling.  As blocks sum to one, the
    constraints hold iff the detection map takes that output back to p0.
    """
    s0 = p0.scenario
    if not (s0.no_detection_A and s0.no_detection_B):
        raise DimensionMismatch("input table must carry no-detection outcomes")
    if eff.etaA * eff.etaB == 0:
        raise ZeroEfficiency("cannot post-select with etaA*etaB = 0")
    s, flat = s0.conclusive(), flatten(p0)
    out = [v / (eff.etaA * eff.etaB) for v, (_, k) in zip(flat, _detection_map(s)[2]) if k == 0]
    _, nums, den = _detect(s, *common_denominator(out), eff, cg=False)
    for i, (v, p) in enumerate(zip(nums, flat)):
        if Fraction(v, den) != p:
            x, y, a, b = np.unravel_index(i, (s0.mA, s0.mB, s0.kA, s0.kB))
            raise EfficiencyMismatch(f"efficiency constraints fail at x={x}, y={y}, a={a}, b={b}")
    return unflatten(s, out)


# Collins-Gisin coordinates of the named CHSH correlations: marginals
# (PA(1|1), PA(1|2), PB(1|1), PB(1|2)), then P(11|11), P(11|12), P(11|21),
# P(11|22).
_NAMED_CG = {
    "PR": (HALF,) * 7 + (ZERO,),
    "PR'": (HALF,) * 4 + (ZERO, HALF, HALF, HALF),
    "r": (HALF,) * 4 + (Fraction(1, 4),) * 4,
    "s": (ZERO,) * 8,
}
_NAMED_CG["PR2"] = _NAMED_CG["PR'"]

# The slice x*PR' + y*PR + (1-x-y)*r through both PR boxes, as the CG
# frame (r, PR' - r, PR - r): origin and the two direction vectors.
SLICE_FRAME = (
    _NAMED_CG["r"],
    tuple(u - o for u, o in zip(_NAMED_CG["PR'"], _NAMED_CG["r"])),
    tuple(u - o for u, o in zip(_NAMED_CG["PR"], _NAMED_CG["r"])),
)


def slice_rows(points: Sequence[Tuple[RationalLike, RationalLike]]) -> list:
    """`slice_point` at each (x, y) as a homogeneous integer row (den, nums...), by one
    product: (d, x d, y d), d a common denominator of x and y, times the frame over its
    denominator D, as rows (D, D r), (0, D (PR' - r)) and (0, D (PR - r))."""
    nums, D = common_denominator([v for vec in SLICE_FRAME for v in vec])
    frame = [(D, *nums[:8]), (0, *nums[8:16]), (0, *nums[16:])]
    H = [(d, *xy) for xy, d in (common_denominator([rational(x), rational(y)]) for x, y in points)]
    bound = max(abs(v) for h in H for v in h) * max(map(abs, nums + [D])) * 3
    return int_matmul(H, frame, bound).tolist()


def slice_point(x: RationalLike, y: RationalLike) -> CGVector:
    """CG coordinates of x*PR' + y*PR + (1-x-y)*r (exact; may leave the
    non-signaling polytope)."""
    den, *nums = slice_rows([(x, y)])[0]
    return CGVector(CHSH, tuple(Fraction(v, den) for v in nums))


def named_correlation(name: str, **params) -> JointTable:
    """Reference correlations of the CHSH scenario.

    Names: "PR", "PR'", "r" (fully random), "s" (all Collins-Gisin
    coordinates zero), and "slice" with parameters ``x``, ``y`` (rationals)
    for the affine combination x*PR' + y*PR + (1-x-y)*r.  Slice output may
    have negative entries; callers must check positivity before polytope use.
    """
    if name == "slice":
        return to_full(slice_point(params["x"], params["y"]), allow_negative=True)
    if name not in _NAMED_CG:
        raise UnknownName(f"unknown correlation name {name!r}")
    return to_full(CGVector(CHSH, _NAMED_CG[name]))


# ---------------------------------------------------------------------------
# Serialization: bit-exact JSON round trip for correlation tables.
# ---------------------------------------------------------------------------

def table_to_dict(t: JointTable) -> dict:
    s = t.scenario
    payload = {}
    for x in range(s.mA):
        for y in range(s.mB):
            block = {}
            for a in range(s.kA):
                for b in range(s.kB):
                    block[f"a={a + 1},b={b + 1}"] = str(t.p[x][y][a][b])
            payload[f"x={x + 1},y={y + 1}"] = block
    return {"scenario": s.to_dict(), "p": payload}


def table_from_dict(d: Mapping) -> JointTable:
    s = Scenario.from_dict(_field(d, "scenario", Mapping, "correlation table"))
    flat = [ZERO] * flat_size(s)
    p = _field(d, "p", Mapping, "correlation table")
    for xy in p:
        block = _field(p, xy, Mapping, "the table's 'p'")
        for ab in block:
            try:  # 1-based labels "x=1,y=2" and "a=1,b=2"
                xyab = [int(part.split("=")[1]) - 1 for part in f"{xy},{ab}".split(",")]
                flat[np.ravel_multi_index(xyab, (s.mA, s.mB, s.kA, s.kB))] = rational(block[ab])
            except (IndexError, TypeError, ValueError) as exc:
                raise ValueError(f"bad table entry {xy!r}, {ab!r}: {exc}") from None
    return unflatten(s, flat)


def table_to_json(t: JointTable) -> str:
    return json.dumps(table_to_dict(t), sort_keys=True)


def table_from_json(payload: str) -> JointTable:
    return table_from_dict(json.loads(payload))
