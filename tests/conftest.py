import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

import pslocal.linprog
from pslocal.core import CHSH, Efficiencies, JointTable, Scenario

# A weight denominator that pushes table numerators past 2**62, so that
# exact integer products leave int64 for Python ints.
BIG_DENOMINATOR = 2 ** 64 + 13


def random_rationals(rng: random.Random, n: int, max_den: int = 20) -> list:
    """n random non-negative rationals summing to 1."""
    weights = [Fraction(rng.randint(0, max_den), 1) for _ in range(n)]
    total = sum(weights)
    if total == 0:
        weights[rng.randrange(n)] = Fraction(1)
        total = Fraction(1)
    return [w / total for w in weights]


def deterministic_table(scenario: Scenario, strat_A, strat_B) -> JointTable:
    entries = [
        [
            [
                [
                    Fraction(1 if (a == strat_A[x] and b == strat_B[y]) else 0)
                    for b in range(scenario.kB)
                ]
                for a in range(scenario.kA)
            ]
            for y in range(scenario.mB)
        ]
        for x in range(scenario.mA)
    ]
    return JointTable(scenario, entries)


def mix_tables(tables, weights) -> JointTable:
    s = tables[0].scenario
    entries = [
        [
            [
                [
                    sum(w * t.p[x][y][a][b] for w, t in zip(weights, tables))
                    for b in range(s.kB)
                ]
                for a in range(s.kA)
            ]
            for y in range(s.mB)
        ]
        for x in range(s.mA)
    ]
    return JointTable(s, entries)


def random_local_table(rng: random.Random, scenario: Scenario, n_strategies: int = 6) -> JointTable:
    """A random rational mixture of deterministic strategies (hence local & NS)."""
    tables = []
    for _ in range(n_strategies):
        strat_A = [rng.randrange(scenario.kA) for _ in range(scenario.mA)]
        strat_B = [rng.randrange(scenario.kB) for _ in range(scenario.mB)]
        tables.append(deterministic_table(scenario, strat_A, strat_B))
    return mix_tables(tables, random_rationals(rng, n_strategies))


def box_table(scenario: Scenario, f) -> JointTable:
    """The PR-type box of two-outcome sides: a + b = f[x][y] mod 2, each
    with probability 1/2 (uniform marginals, so no-signalling)."""
    return JointTable(scenario, [
        [
            [[Fraction(int((a + b) % 2 == f[x][y]), 2) for b in range(2)] for a in range(2)]
            for y in range(scenario.mB)
        ]
        for x in range(scenario.mA)
    ])


@st.composite
def ns_tables(draw, scenario: Scenario, dens=(10, BIG_DENOMINATOR)) -> JointTable:
    """A no-signalling table of a two-outcome conclusive scenario: a mix
    of 1-4 deterministic tables (local), or of a PR-type box with white
    noise, with weights over one of ``dens``."""
    if draw(st.booleans()):
        strategies = st.tuples(
            st.lists(st.integers(0, 1), min_size=scenario.mA, max_size=scenario.mA),
            st.lists(st.integers(0, 1), min_size=scenario.mB, max_size=scenario.mB),
        )
        tables = [deterministic_table(scenario, *d) for d in draw(st.lists(strategies, min_size=1, max_size=4))]
    else:
        f = draw(st.lists(
            st.lists(st.integers(0, 1), min_size=scenario.mB, max_size=scenario.mB),
            min_size=scenario.mA, max_size=scenario.mA,
        ))
        white = JointTable(scenario, [[[[Fraction(1, 4)] * 2] * 2] * scenario.mB] * scenario.mA)
        tables = [box_table(scenario, f), white]
    # Weights of at least about 1/10 each: tenths, or over BIG_DENOMINATOR
    # tenths moved by a few units.
    den = draw(st.sampled_from(dens))
    tenths = sorted(draw(st.sets(st.integers(1, 9), min_size=len(tables) - 1, max_size=len(tables) - 1)))
    cuts = [c * (den // 10) + (den > 10) * draw(st.integers(1, 3)) for c in tenths]
    return mix_tables(tables, [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])])


# Efficiency pairs: 1 on either side, or a fraction in (0, 1].
efficiencies = st.builds(
    Efficiencies,
    st.one_of(st.just(Fraction(1)), st.fractions(Fraction(1, 20), 1, max_denominator=20)),
    st.one_of(st.just(Fraction(1)), st.fractions(Fraction(1, 20), 1, max_denominator=20)),
)


def record_dtypes(monkeypatch, module) -> list:
    """Spy on ``module.int_dtype``: returns the list of dtypes it chooses,
    appended as it is called."""
    seen = []
    real = module.int_dtype
    monkeypatch.setattr(module, "int_dtype", lambda bound: seen.append(real(bound)) or seen[-1])
    return seen


def nnls_iteration_limit(A, b):
    """Stand-in for `scipy.optimize.nnls` failing at its iteration limit."""
    raise RuntimeError("Maximum number of iterations reached.")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def chsh() -> Scenario:
    return CHSH


@pytest.fixture
def wrong_guides(monkeypatch) -> list:
    """Float guides of `linprog.solve_lp` forced wrong: the optimum guide
    proposes the first column alone with a zero dual, and NNLS the first
    column alone with its residual, so that its exact re-solve offers the
    part of b orthogonal to that column as a Farkas vector.  Returns the
    list of results of the exact simplex that decides instead, appended
    as it is called."""
    monkeypatch.setattr(
        pslocal.linprog,
        "_float_optimum",
        lambda A, b, c: (np.eye(A.shape[1])[0], np.zeros(A.shape[0])),
    )
    monkeypatch.setattr(
        pslocal.linprog,
        "nnls",
        lambda A, b: (np.eye(A.shape[1])[0], float(np.linalg.norm(A[:, 0] - b))),
    )
    results = []
    exact = pslocal.linprog.solve_equality_form

    def spy(*args):
        results.append(exact(*args))
        return results[-1]

    monkeypatch.setattr(pslocal.linprog, "solve_equality_form", spy)
    return results
