import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pslocal.core
from pslocal.core import (
    CHSH,
    CGVector,
    Efficiencies,
    JointTable,
    Scenario,
    flat_index,
    flat_size,
    flatten,
    is_nonsignaling,
    lift,
    named_correlation,
    postselect,
    rational,
    table_from_json,
    table_to_json,
    to_cg,
    to_full,
    unflatten,
)
from pslocal.inequalities import THREE_INPUT_PS
from pslocal.errors import (
    EfficiencyMismatch,
    NotAProbability,
    SignalingInput,
    UnknownName,
)

from conftest import (
    BIG_DENOMINATOR,
    box_table,
    deterministic_table,
    efficiencies,
    mix_tables,
    ns_tables,
    random_local_table,
    record_dtypes,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)


def test_rational_parsing():
    assert rational("2/3") == Fraction(2, 3)
    assert rational("0.7") == Fraction(7, 10)
    assert rational(3) == 3
    assert rational(Fraction(4, 6)) == Fraction(2, 3)
    assert type(rational(3)) is Fraction
    # bool is an int subclass; numpy scalars are neither int nor Fraction.
    for value in (0.5, True, False, np.float64(0.5), np.int64(3)):
        with pytest.raises(TypeError):
            rational(value)
    with pytest.raises(ValueError, match="zero denominator"):
        rational("1/0")


@settings(max_examples=200, deadline=None)
@given(st.integers())
def test_rational_of_an_int_is_a_shared_fraction(n):
    q = rational(n)
    assert type(q) is Fraction and q == n and q.denominator == 1
    assert rational(n) is q  # the one cached instance
    info = pslocal.core._int_fraction.cache_info()
    assert info.maxsize == 4096 and info.currsize <= info.maxsize


def test_rational_of_a_bool_still_raises():
    rational(1)  # cached: the bool must not hit the int's entry
    for value in (True, False):
        with pytest.raises(TypeError):
            rational(value)


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"mA": 2}, "'mB'"),
        ([], "list"),
        ({"mA": 2, "mB": 2, "nA": "2", "nB": 2}, "'nA'"),
        ({"mA": 2, "mB": 2, "nA": 2, "nB": 2.0}, "'nB'"),
        ({"mA": True, "mB": 2, "nA": 2, "nB": 2}, "'mA'"),
        ({"mA": 2, "mB": 2, "nA": 2, "nB": 2, "no_detection": "false"}, "'no_detection'"),
        ({"mA": 2, "mB": 2, "nA": 2, "nB": 2, "no_detection_B": [0]}, "'no_detection_B'"),
        ({"mA": 2, "mB": 2, "nA": 2, "nB": 2, "no_detection_A": 1}, "'no_detection_A'"),
        ({"mA": 2, "mB": 2, "nA": 2, "nB": 2, "no_detection": True, "no_detection_A": True},
         "'no_detection'"),
    ],
)
def test_malformed_scenario_names_the_field(spec, field):
    with pytest.raises(ValueError, match=field):
        Scenario.from_dict(spec)


def test_scenario_flags_are_json_booleans():
    counts = {"mA": 2, "mB": 2, "nA": 2, "nB": 2}
    assert Scenario.from_dict(counts) == CHSH
    assert Scenario.from_dict({**counts, "no_detection": False}) == CHSH
    assert Scenario.from_dict({**counts, "no_detection": True}) == CHSH.with_no_detection()
    assert Scenario.from_dict({**counts, "no_detection_B": True}) == Scenario(2, 2, 2, 2, no_detection_B=True)
    assert Scenario.from_dict(CHSH.with_no_detection().to_dict()) == CHSH.with_no_detection()


@pytest.mark.parametrize(
    "payload, field",
    [
        ([1, 2], "list"),
        ({"p": {}}, "'scenario'"),
        ({"scenario": {"mA": 2, "mB": 2, "nB": 2}, "p": {}}, "'nA'"),
        ({"scenario": CHSH.to_dict()}, "'p'"),
        ({"scenario": CHSH.to_dict(), "p": []}, "'p'"),
        ({"scenario": CHSH.to_dict(), "p": {"x=1,y=1": [1]}}, "'x=1,y=1'"),
        ({"scenario": CHSH.to_dict(), "p": {"x=1,y=1": {"a=1,b=1": 0.5}}}, "'a=1,b=1'"),
        ({"scenario": CHSH.to_dict(), "p": {"x=0,y=1": {"a=1,b=1": "1"}}}, "'x=0,y=1'"),
        ({"scenario": CHSH.to_dict(), "p": {"x=1,y=1": {"a=1,b=3": "1"}}}, "'a=1,b=3'"),
        ({"scenario": CHSH.to_dict(), "p": {"x=1,y=1": {"a=1": "1"}}}, "'a=1'"),
        ({"scenario": CHSH.to_dict(), "p": {"x1,y1": {"a=1,b=1": "1"}}}, "'x1,y1'"),
    ],
)
def test_malformed_table_names_the_field(payload, field):
    with pytest.raises(ValueError, match=field):
        table_from_json(json.dumps(payload))


def test_scenario_dimensions():
    assert CHSH.cg_dim == 8
    assert CHSH.with_no_detection().cg_dim == 24
    s = Scenario(3, 2, 2, 2, no_detection_A=True, no_detection_B=True)
    assert s.cg_dim == 34
    s32 = Scenario(3, 2, 2, 2, no_detection_B=True)
    assert s32.cg_dim == 19
    with pytest.raises(ValueError):
        Scenario(0, 2, 2, 2)
    with pytest.raises(ValueError):
        Scenario(2, 2, 1, 2)


def test_cg_of_fully_random_point():
    v = to_cg(named_correlation("r"))
    assert v.coords[:4] == (H, H, H, H)
    assert v.coords[4:] == (Q, Q, Q, Q)


def test_cg_of_pr_box():
    v = to_cg(named_correlation("PR"))
    assert v.coords == (H, H, H, H, H, H, H, Fraction(0))


def test_cg_of_deterministic_last_outcome_point():
    t = deterministic_table(CHSH, [1, 1], [1, 1])
    assert to_cg(t).coords == (0,) * 8


def test_round_trip_on_random_local_tables(rng):
    for _ in range(50):
        t = random_local_table(rng, CHSH)
        assert to_full(to_cg(t)) == t
    s0 = CHSH.with_no_detection()
    for _ in range(20):
        t = random_local_table(rng, s0)
        assert to_full(to_cg(t)) == t


def test_to_full_of_zero_vector():
    t = to_full(CGVector(CHSH, (0,) * 8))
    assert t == deterministic_table(CHSH, [1, 1], [1, 1])


def test_to_full_of_pr_prime():
    t = to_full(CGVector(CHSH, (H, H, H, H, 0, H, H, H)))
    assert t.p[0][0][0][0] == 0
    assert t.p[0][0][0][1] == H
    assert t == named_correlation("PR'")


def test_to_full_rejects_negative_reconstruction():
    with pytest.raises(NotAProbability):
        to_full(CGVector(CHSH, (H, H, H, H, 1, 0, 0, 0)))


def test_signaling_table_detected():
    # p(1,1|1,1) = 1 but p(1,1|1,2) = 0 with a deterministic filler column.
    entries = [
        [
            [[1, 0], [0, 0]],
            [[0, 1], [0, 0]],
        ],
        [
            [[1, 0], [0, 0]],
            [[0, 1], [0, 0]],
        ],
    ]
    t = JointTable(CHSH, entries)
    assert is_nonsignaling(t)  # Bob flips outcome with y, marginals still fine?
    entries = [
        [
            [[1, 0], [0, 0]],
            [[0, 0], [0, 1]],
        ],
        [
            [[1, 0], [0, 0]],
            [[1, 0], [0, 0]],
        ],
    ]
    t = JointTable(CHSH, entries)
    assert not is_nonsignaling(t)
    with pytest.raises(SignalingInput):
        to_cg(t)


def test_product_tables_are_nonsignaling(rng):
    for _ in range(20):
        t = random_local_table(rng, CHSH)
        assert is_nonsignaling(t)
    assert is_nonsignaling(named_correlation("PR"))


def test_named_correlations():
    r = named_correlation("r")
    assert all(
        r.p[x][y][a][b] == Q for x in range(2) for y in range(2)
        for a in range(2) for b in range(2)
    )
    s = named_correlation("s")
    assert to_cg(s).coords == (0,) * 8
    with pytest.raises(UnknownName):
        named_correlation("tsirelson")


def test_slice_combinations():
    assert named_correlation("slice", x=0, y=0) == named_correlation("r")
    assert named_correlation("slice", x=0, y=1) == named_correlation("PR")
    assert named_correlation("slice", x=1, y=0) == named_correlation("PR'")
    outside = named_correlation("slice", x=1, y=1)
    assert not outside.is_proper()


def test_lift_at_unit_efficiency_is_identity_up_to_padding():
    p = named_correlation("PR")
    p0 = lift(p, Efficiencies.of(1, 1))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    assert p0.p[x][y][a][b] == p.p[x][y][a][b]
            assert p0.p[x][y][2][2] == 0


def test_lift_of_random_point_at_half_efficiencies():
    p0 = lift(named_correlation("r"), Efficiencies.of("1/2", "1/2"))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    assert p0.p[x][y][a][b] == Fraction(1, 16)
            assert p0.p[x][y][2][2] == Q


def test_lift_conclusive_block_weight(rng):
    eff = Efficiencies.of("3/5", "7/9")
    for _ in range(20):
        p = random_local_table(rng, CHSH)
        p0 = lift(p, eff)
        for x in range(2):
            for y in range(2):
                block = sum(p0.p[x][y][a][b] for a in range(2) for b in range(2))
                assert block == eff.etaA * eff.etaB


def test_lift_postselect_round_trip(rng):
    for _ in range(30):
        p = random_local_table(rng, CHSH)
        eff = Efficiencies.of(
            Fraction(rng.randint(1, 10), 10), Fraction(rng.randint(1, 10), 10)
        )
        assert postselect(lift(p, eff), eff) == p


def test_postselect_detects_mismatch():
    eff = Efficiencies.of("1/2", "1/2")
    p0 = lift(named_correlation("r"), eff)
    entries = p0.as_nested()
    # Move weight between two conclusive entries: block sums stay 1 but the
    # per-outcome efficiency constraints break.
    entries[0][0][0][0] += Fraction(1, 100)
    entries[0][0][1][1] -= Fraction(1, 100)
    bad = JointTable(p0.scenario, entries)
    with pytest.raises(EfficiencyMismatch):
        postselect(bad, eff)


def test_postselect_wrong_efficiencies_rejected():
    p0 = lift(named_correlation("r"), Efficiencies.of("1/2", "1/2"))
    with pytest.raises(EfficiencyMismatch):
        postselect(p0, Efficiencies.of("1/3", "1/2"))


def test_efficiency_validation():
    with pytest.raises(ValueError):
        Efficiencies.of(0, 1)
    with pytest.raises(ValueError):
        Efficiencies.of("3/2", 1)


def test_json_round_trip(rng):
    for _ in range(10):
        t = random_local_table(rng, CHSH.with_no_detection())
        assert table_from_json(table_to_json(t)) == t
    t = named_correlation("PR")
    assert table_from_json(table_to_json(t)) == t


def reference_lift(t: JointTable, eff: Efficiencies) -> JointTable:
    """The lift written out cell by cell in Fractions."""
    s = t.scenario
    s0 = s.with_no_detection()
    eA, eB = eff.etaA, eff.etaB
    flat = [Fraction(0)] * flat_size(s0)
    for x in range(s.mA):
        for y in range(s.mB):
            block = t.p[x][y]
            for a in range(s.nA):
                for b in range(s.nB):
                    flat[flat_index(s0, x, y, a, b)] = eA * eB * block[a][b]
                flat[flat_index(s0, x, y, a, s.nB)] = eA * (1 - eB) * sum(block[a])
            for b in range(s.nB):
                flat[flat_index(s0, x, y, s.nA, b)] = (1 - eA) * eB * sum(r[b] for r in block)
            flat[flat_index(s0, x, y, s.nA, s.nB)] = (1 - eA) * (1 - eB)
    return unflatten(s0, flat)


def moved(t: JointTable, x: int, y: int, src: tuple, dst: tuple, share: Fraction) -> JointTable:
    """t with ``share`` of entry src of block (x, y) moved to entry dst."""
    s = t.scenario
    flat = list(flatten(t))
    i, j = flat_index(s, x, y, *src), flat_index(s, x, y, *dst)
    delta = share * flat[i]
    flat[i] -= delta
    flat[j] += delta
    return unflatten(s, flat)


@pytest.mark.parametrize("scenario", [CHSH, THREE_INPUT_PS], ids=["chsh", "three-input"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lift_matches_the_reference_loop(scenario, data):
    t = data.draw(ns_tables(scenario))
    eff = data.draw(efficiencies)
    p0 = lift(t, eff)
    assert p0 == reference_lift(t, eff)
    assert postselect(p0, eff) == t


@pytest.mark.parametrize("scenario", [CHSH, THREE_INPUT_PS], ids=["chsh", "three-input"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_map_keeps_its_errors(scenario, data):
    t = data.draw(ns_tables(scenario))
    eff = data.draw(efficiencies)
    # Half of the largest entry of block (0, 0) moves to the other Bob
    # outcome: Bob's marginal at x = 0 no longer equals that at x = 1.
    a, b = max(((a, b) for a in range(2) for b in range(2)), key=lambda ab: t.p[0][0][ab[0]][ab[1]])
    with pytest.raises(SignalingInput):
        lift(moved(t, 0, 0, (a, b), (a, 1 - b), Fraction(1, 2)), eff)
    # Weight moved between conclusive cells of different rows and columns
    # keeps every block sum but breaks a constraint unless eA = eB = 1.
    p0 = lift(t, eff)
    a, b = max(((a, b) for a in range(2) for b in range(2)), key=lambda ab: p0.p[0][0][ab[0]][ab[1]])
    bad = moved(p0, 0, 0, (a, b), (1 - a, 1 - b), Fraction(1, 3))
    if eff.etaA != 1 or eff.etaB != 1:
        with pytest.raises(EfficiencyMismatch):
            postselect(bad, eff)
        with pytest.raises(EfficiencyMismatch):
            postselect(p0, Efficiencies(eff.etaA / 2, eff.etaB))
    else:
        assert postselect(bad, eff) == moved(t, 0, 0, (a, b), (1 - a, 1 - b), Fraction(1, 3))


def test_map_runs_in_int64_and_past_it(monkeypatch):
    """Small denominators keep the map's product in int64; a table over
    BIG_DENOMINATOR runs it in Python ints, with the same results."""
    seen = record_dtypes(monkeypatch, pslocal.core)
    eff = Efficiencies.of("3/4", "9/10")
    box = box_table(CHSH, [[0, 0], [0, 1]])
    for weight, dtype in ((Fraction(3, 7), np.int64), (Fraction(2 ** 63 + 1, BIG_DENOMINATOR), object)):
        t = mix_tables([box, named_correlation("r")], [weight, 1 - weight])
        seen.clear()
        p0 = lift(t, eff)
        assert p0 == reference_lift(t, eff)
        assert postselect(p0, eff) == t
        assert seen and set(seen) == {dtype}
