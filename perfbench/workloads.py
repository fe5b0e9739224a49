"""The three workloads: seeded inputs, the timed calls, and their checks.

A workload prepares its inputs from the seed (``prepare``, timed as
set-up), builds its oracle (untimed), then runs *rounds*: a fixed mix of
calls into pslocal.  Only the pslocal call is timed; each answer is then
checked by :mod:`oracles`.

All inputs are drawn from the seed in ``prepare``: ``DISTINCT`` rounds
of them, 20-30 s of work in all on the machine the benchmark was built
on.  A run makes one pass over these
rounds per ``RUN_SECONDS`` of ``--seconds``, and the runner
times each distinct call by its median over the passes.  The pass count
does not depend on how fast the code is, so a faster program runs the
same inputs the same number of times.

Workloads spread their time over many distinct calls rather than
repeating a few, and they draw them so that the cost of a pass depends
little on the seed: efficiencies follow fixed schedules (query cost
depends strongly on them), and samples of facets are stratified by
family.  A sum over many calls also averages the flicker of a shared
machine's CPU speed.

Each workload names one *unit* operation (``UNIT``) whose latencies give
the ``op_p50_ref_s`` metric.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from typing import Callable, List

import oracles
from pslocal import core, inequalities, polytope, psfacets, quantum
from pslocal.errors import TooCoarse

CHSH = core.CHSH
GRID = 40  # efficiencies are multiples of 1/GRID
RUN_SECONDS = 30  # a run of this many --seconds makes one pass


class Op:
    """One timed call: its kind, duration and whether it was confirmed."""

    __slots__ = ("kind", "seconds", "ok", "problems")

    def __init__(self, kind: str, seconds: float, ok: bool, problems: List[str]):
        self.kind = kind
        self.seconds = seconds
        self.ok = ok
        self.problems = problems


class Workload:
    UNIT = ""
    DISTINCT = 1  # rounds with distinct inputs, all prepared from the seed

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.tracer = None

    def prepare(self) -> None:
        """Program-side set-up and input generation (timed as set-up)."""

    def build_oracle(self, ref: dict) -> None:
        """Benchmark-side checking state (not timed)."""

    def round(self, index: int) -> List[Op]:
        """Run round ``index`` (below DISTINCT)."""
        raise NotImplementedError

    def call(self, kind: str, fn: Callable, *args, **kwargs):
        """Time one pslocal call; returns (result or None, seconds, error)."""
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                result = self.tracer.span("bench." + kind, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        return result, time.perf_counter() - t0, None


def _eff(a: int, b: int) -> core.Efficiencies:
    return core.Efficiencies.of(Fraction(a, GRID), Fraction(b, GRID))


def _mix(tables, weights):
    """Convex combination of CHSH tables given as nested lists."""
    total = sum(weights)
    return [
        [
            [
                [
                    sum(Fraction(w, total) * t[x][y][a][b] for t, w in zip(tables, weights))
                    for b in range(2)
                ]
                for a in range(2)
            ]
            for y in range(2)
        ]
        for x in range(2)
    ]


def _deterministic(sa, sb):
    return [
        [
            [[Fraction(int(a == sa[x] and b == sb[y])) for b in range(2)] for a in range(2)]
            for y in range(2)
        ]
        for x in range(2)
    ]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

class Membership(Workload):
    """A stream of is_ps_local queries over CHSH.

    Every round asks eight queries, two of each kind: the PR box, the PR
    box with white noise at a small-denominator visibility, a random
    mixture of deterministic points, and a rationalized two-qubit
    correlation.  The seed draws the correlations.  The efficiencies
    follow a fixed schedule spread evenly over the 1/40 grid in [1/2, 1]
    on each side: query cost depends strongly on them, and seeded
    efficiencies made the cost of a run vary by seed as much as by code.
    For the same reason the number of points in a mixture cycles through
    2, 3, 4, and the rounding denominator of the qubit tables through
    three bands of [10^4, 10^6); the seed draws within them.
    """

    UNIT = "query"
    DISTINCT = 8
    KINDS = ("pr", "noisy-pr", "local-mix", "quantum") * 2

    def prepare(self) -> None:
        rng = self.rng
        self.poly = polytope.local_polytope(CHSH.with_no_detection())
        pr = core.named_correlation("PR").as_nested()
        white = core.named_correlation("r").as_nested()
        self.rounds = []
        schedule = iter(self._schedule())
        for r in range(self.DISTINCT):
            queries = []
            for slot, (kind, (a, b)) in enumerate(zip(self.KINDS, schedule)):
                stratum = (2 * r + slot // 4) % 3
                if kind == "pr":
                    p = pr
                elif kind == "noisy-pr":
                    den = rng.randint(3, 8)  # visibility num/den in (1/2, 1)
                    num = rng.randint(den // 2 + 1, den - 1)
                    p = _mix([pr, white], [num, den - num])
                elif kind == "local-mix":
                    k = 2 + stratum
                    tables = [
                        _deterministic(
                            (rng.randrange(2), rng.randrange(2)),
                            (rng.randrange(2), rng.randrange(2)),
                        )
                        for _ in range(k)
                    ]
                    p = _mix(tables, [rng.randint(1, 9) for _ in range(k)])
                else:
                    p = self._quantum_table(rng, 4 + 2 * stratum / 3)
                table = p if isinstance(p, core.JointTable) else core.JointTable(CHSH, p)
                queries.append((kind, table, Fraction(a, GRID), Fraction(b, GRID)))
            self.rounds.append(queries)

    def _schedule(self) -> List[tuple]:
        """Efficiency pairs (in 1/GRID) for every query slot: etaA evenly
        spaced over [1/2, 1], etaB the same values in a fixed scrambled
        order."""
        n = self.DISTINCT * len(self.KINDS)
        a = [GRID // 2 + round(i * (GRID // 2) / (n - 1)) for i in range(n)]
        return [(a[i], a[(7 * i + 3) % n]) for i in range(n)]

    def _quantum_table(self, rng: random.Random, log_den: float) -> core.JointTable:
        # max_den is drawn from [10^log_den, 10^(log_den + 2/3)).
        # rationalize refuses tables it cannot round closely enough; draw
        # again until it accepts one (the trace counts the refusals).
        while True:
            theta = rng.uniform(0.0, math.pi)
            state = [math.sin(theta / 2), 0.0, 0.0, math.cos(theta / 2)]
            angles = [rng.uniform(0.0, 2 * math.pi) for _ in range(4)]
            setup = quantum.QubitSetup(
                state,
                (quantum.xz(angles[0]), quantum.xz(angles[1])),
                (quantum.xz(angles[2]), quantum.xz(angles[3])),
            )
            max_den = int(10 ** rng.uniform(log_den, log_den + 2 / 3))
            try:
                return quantum.rationalize(quantum.correlation(setup), max_den)
            except TooCoarse:
                continue

    def build_oracle(self, ref: dict) -> None:
        self.oracle = oracles.MembershipOracle(ref, [v.coords for v in self.poly.vertices])

    def round(self, index: int) -> List[Op]:
        ops = []
        for kind, table, a, b in self.rounds[index]:
            eff = core.Efficiencies.of(a, b)
            cert, dt, err = self.call("query", polytope.is_ps_local, table, eff)
            problems = [err] if err else self.oracle.check(table.p, a, b, cert, kind == "pr")
            ops.append(Op("query", dt, not problems, problems))
        return ops


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

class Enumerate(Workload):
    """Facet enumeration of the two a-priori polytopes, each followed by
    pslocal's relabeling-orbit census: CHSH with no-detection outcomes
    (36 + 324 + 324 + 432) and the three-input polytope (36 + 216 + 288 +
    288 + 432).  The seed shuffles the vertex order."""

    UNIT = "polytope"

    def prepare(self) -> None:
        self.polytopes = []
        for scenario, sizes, digest in (
            (CHSH.with_no_detection(), oracles.L0_ORBITS, "l0_digest"),
            (inequalities.THREE_INPUT_L0, oracles.THREE_INPUT_ORBITS, "three_input_digest"),
        ):
            verts = list(polytope.local_polytope(scenario).vertices)
            self.rng.shuffle(verts)
            self.polytopes.append((scenario, verts, sizes, digest))

    def build_oracle(self, ref: dict) -> None:
        self.ref = ref

    def round(self, index: int) -> List[Op]:
        ops = []
        for scenario, verts, sizes, digest in self.polytopes:
            poly = polytope.PolytopeRep(scenario, vertices=list(verts))
            facets, t_enum, err = self.call("enumerate", polytope.enumerate_facets, poly)
            t_census = 0.0
            if not err:
                orbits, t_census, err = self.call("census", psfacets._orbit_census, facets)
            if err:
                problems = [err]
            else:
                families = (
                    [self.ref[f] for f in oracles.FAMILIES] if digest == "l0_digest" else None
                )
                problems = oracles.check_enumeration(
                    [f.key() for f in facets],
                    [(o["representative"].key(), o["size"]) for o in orbits],
                    sizes, self.ref[digest], families,
                )
            ops.append(Op("polytope", t_enum + t_census, not problems, problems))
        return ops


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

class Classify(Workload):
    """derive, NS-triviality and the L_ps facet check on the a-priori
    facets of CHSH with no-detection outcomes.

    Every run works at the light-gray pair (7/10, 19/20).  The seed draws
    a stratified 24th of the 1116 a-priori facets (1 positivity, 27 CH,
    18 CGLMP) to derive from, and 36 a-priori facets (4 positivity, 16
    CH, 16 CGLMP) to check for NS-triviality.  Positivity facets, the
    only NS-trivial ones, are the cheapest to check; with few of them the
    median check falls in the middle of the CH and CGLMP checks rather
    than on the edge between the families.  A round derives the
    post-selected inequalities at the pair and checks facet-ness of
    ch_eta there, with half of the NS-triviality checks run before these
    two long calls and half after.  (A seeded pair made the facet check
    alone take 7-13 s depending on the seed; a derive over all 1116
    facets takes 30-55 s, more than a whole run of this benchmark.)
    """

    UNIT = "ns_check"
    EFFICIENCY = (28, 38)  # in 1/40
    DERIVE_SHARE = 24  # derive runs on 1/DERIVE_SHARE of each family
    NS_SAMPLE = (4, 16, 16)  # facets checked for NS-triviality, per family

    def prepare(self) -> None:
        from oracles import load_reference

        ref = load_reference()
        s0 = CHSH.with_no_detection()
        families = [
            [inequalities.inequality_from_key(s0, tuple(k)) for k in ref[name]]
            for name in oracles.FAMILIES
        ]
        rng = self.rng
        self.eff = _eff(*self.EFFICIENCY)
        self.facets = [f for fam in families for f in rng.sample(fam, len(fam) // self.DERIVE_SHARE)]
        self.sample = [
            f for fam, n in zip(families, self.NS_SAMPLE) for f in rng.sample(fam, n)
        ]

    def build_oracle(self, ref: dict) -> None:
        self.oracle = oracles.ClassifyOracle(ref)

    def _ns_checks(self, half: int) -> List[Op]:
        ops = []
        for facet in self.sample[half::2]:
            verdict, dt, err = self.call("ns_check", polytope.is_trivial_for_ns, facet)
            problems = [err] if err else self.oracle.check_ns_trivial(facet.key(), verdict)
            ops.append(Op("ns_check", dt, not problems, problems))
        return ops

    def round(self, index: int) -> List[Op]:
        eff = self.eff
        ops = self._ns_checks(0)
        derived, dt, err = self.call("derive", psfacets.derive, eff, self.facets)
        problems = [err] if err else self.oracle.check_derived(derived, len(self.facets))
        ops.append(Op("derive", dt, not problems, problems))
        report, dt, err = self.call(
            "facet_check", psfacets.ps_facet_check, eff, inequalities.ch_eta(eff)
        )
        problems = [err] if err else self.oracle.check_facet(report, eff.etaA, eff.etaB)
        ops.append(Op("facet_check", dt, not problems, problems))
        ops += self._ns_checks(1)
        return ops


WORKLOADS = {
    "membership": Membership,
    "enumerate": Enumerate,
    "classify": Classify,
}
