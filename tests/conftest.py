import random
from fractions import Fraction

import numpy as np
import pytest

import pslocal.linprog
from pslocal.core import CHSH, JointTable, Scenario


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def chsh() -> Scenario:
    return CHSH


@pytest.fixture
def wrong_guides(monkeypatch) -> list:
    """Float guides of `linprog.solve_lp` forced wrong: the optimum guide
    proposes the first column alone with a zero dual, and the Farkas
    guide the all-ones vector.  Returns the list of results of the exact
    simplex that decides instead, appended as it is called."""
    monkeypatch.setattr(
        pslocal.linprog,
        "_float_optimum",
        lambda A, b, c: (np.eye(A.shape[1])[0], np.zeros(A.shape[0])),
    )
    monkeypatch.setattr(pslocal.linprog, "_float_farkas", lambda A, b: np.ones(A.shape[0]))
    results = []
    exact = pslocal.linprog.solve_equality_form

    def spy(*args):
        results.append(exact(*args))
        return results[-1]

    monkeypatch.setattr(pslocal.linprog, "solve_equality_form", spy)
    return results
