"""The integer maps of `pslocal.core` against the Fraction loops of
`reference_maps`: tables (`to_cg`, `is_nonsignaling`, `to_full`),
functionals (`functional_to_full`, `functional_from_full`), the
detection model's adjoint (`lift_functional`, `derive`), and the checks
built on `linprog.slacks` (the slice figures, `verify_facet`)."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pslocal.core
import reference_maps as ref
from pslocal.core import (
    CHSH,
    CGVector,
    Efficiencies,
    JointTable,
    Scenario,
    is_nonsignaling,
    slice_rows,
    to_cg,
    to_full,
)
from pslocal.errors import DimensionMismatch, InvalidSetup, NotAProbability, SignalingInput
from pslocal.inequalities import (
    THREE_INPUT_L0,
    THREE_INPUT_PS,
    Inequality,
    ch,
    cglmp,
    functional_from_full,
    functional_to_full,
    inequality_from_key,
)
from pslocal.cli import _lps_keys, emit_figure_data
from pslocal.linprog import slacks
from pslocal.polytope import enumerate_facets, local_polytope, verify_facet
from pslocal.psfacets import derive, lift_functional

from conftest import BIG_DENOMINATOR, deterministic_table, mix_tables, record_dtypes

F = Fraction
CHSH_ND = CHSH.with_no_detection()
SCENARIOS = [CHSH, CHSH_ND, THREE_INPUT_PS, THREE_INPUT_L0]
IDS = ["chsh", "chsh-nd", "three-input-ps", "three-input-l0"]
# A priori scenarios with two, one or no no-detection outcomes: eta < 1 on
# a side without one raises InvalidSetup, in the reference too.
A_PRIORI = [CHSH_ND, THREE_INPUT_L0, Scenario(2, 2, 2, 2, no_detection_A=True), CHSH]


def rationals(den):
    """Rationals in [-2, 2] over ``den``."""
    return st.integers(-2 * den, 2 * den).map(lambda n: F(n, den))


dens = st.sampled_from([1, 10, BIG_DENOMINATOR])


@st.composite
def local_tables(draw, s: Scenario) -> JointTable:
    """A mix of 1-4 deterministic tables, weights over one of ``dens``."""
    strategies = st.tuples(
        st.lists(st.integers(0, s.kA - 1), min_size=s.mA, max_size=s.mA),
        st.lists(st.integers(0, s.kB - 1), min_size=s.mB, max_size=s.mB),
    )
    tables = [deterministic_table(s, *d) for d in draw(st.lists(strategies, min_size=1, max_size=4))]
    den = draw(dens)
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=len(tables) - 1, max_size=len(tables) - 1)))
    return mix_tables(tables, [F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])])


@st.composite
def signed_tables(draw, s: Scenario) -> JointTable:
    """Blocks of entries in [-2, 2] that sum to one: signalling, as a rule."""
    den = draw(dens)
    flat = []
    for _ in range(s.mA * s.mB):
        block = draw(st.lists(rationals(den), min_size=s.kA * s.kB - 1, max_size=s.kA * s.kB - 1))
        flat += block + [1 - sum(block)]
    it = iter(flat)
    entries = [[[[next(it) for _ in range(s.kB)] for _ in range(s.kA)] for _ in range(s.mB)] for _ in range(s.mA)]
    return JointTable(s, entries, allow_negative=True)


@st.composite
def cg_vectors(draw, s: Scenario) -> CGVector:
    den = draw(dens)
    return CGVector(s, draw(st.lists(rationals(den), min_size=s.cg_dim, max_size=s.cg_dim)))


def tables(s: Scenario):
    """Local tables, no-signalling tables with negative entries, and
    signalling tables (with negative entries or not)."""
    return st.one_of(
        local_tables(s),
        cg_vectors(s).map(lambda v: to_full(v, allow_negative=True)),
        signed_tables(s),
        st.tuples(local_tables(s), local_tables(s)).map(_signalling_mix),
    )


def _signalling_mix(pair) -> JointTable:
    """Block (0, 0) of one table, the rest of another: proper entries."""
    t, u = pair
    return JointTable(t.scenario, [[t.p[0][0]] + list(u.p[0][1:])] + list(u.p[1:]))


def _outcome(f, *args):
    """f(*args), or the class of the pslocal error it raises."""
    try:
        return f(*args)
    except (SignalingInput, NotAProbability, InvalidSetup) as exc:
        return type(exc)


@pytest.mark.parametrize("s", SCENARIOS, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_maps_match_the_reference(s, data):
    t = data.draw(tables(s))
    assert is_nonsignaling(t) == ref.is_nonsignaling(t)
    assert _outcome(to_cg, t) == _outcome(ref.to_cg, t)
    v = data.draw(st.one_of(cg_vectors(s), local_tables(s).map(ref.to_cg)))
    assert to_full(v, allow_negative=True) == ref.to_full(v, allow_negative=True)
    assert _outcome(to_full, v) == _outcome(ref.to_full, v)


@pytest.mark.parametrize("s", SCENARIOS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_functional_maps_match_the_reference(s, data):
    den = data.draw(dens)
    ineq = Inequality(
        s, data.draw(st.lists(rationals(den), min_size=s.cg_dim, max_size=s.cg_dim)),
        data.draw(rationals(den)), data.draw(rationals(den)), data.draw(st.sampled_from(["<=", ">="])),
    )
    assert functional_to_full(ineq) == ref.functional_to_full(ineq)
    w, const = ref.functional_to_full(ineq)
    assert functional_from_full(s, w, const, ineq.bound, ineq.relation) == ineq
    w = data.draw(st.lists(rationals(den), min_size=len(w), max_size=len(w)))
    assert functional_from_full(s, w, const, 1) == ref.functional_from_full(s, w, const, 1)


# Efficiencies: 1, twentieths, or just below 1 over BIG_DENOMINATOR.
etas = st.one_of(
    st.just(F(1)),
    st.fractions(F(1, 20), 1, max_denominator=20),
    st.integers(1, 9).map(lambda k: F(BIG_DENOMINATOR - k, BIG_DENOMINATOR)),
)


@pytest.mark.parametrize("s0", A_PRIORI, ids=["chsh-nd", "three-input-l0", "chsh-ndA", "chsh"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_lift_functional_matches_the_reference(s0, data):
    den = data.draw(dens)
    facet = Inequality(
        s0, data.draw(st.lists(rationals(den), min_size=s0.cg_dim, max_size=s0.cg_dim)),
        data.draw(rationals(den)), data.draw(rationals(den)), data.draw(st.sampled_from(["<=", ">="])),
    )
    eff = Efficiencies(data.draw(etas), data.draw(etas))
    assert _outcome(lift_functional, facet, eff) == _outcome(ref.lift_functional, facet, eff)


def test_lift_map_leaves_int64_past_its_bound(monkeypatch):
    seen = record_dtypes(monkeypatch, pslocal.core)
    for eta, dtype in ((F(3, 4), np.int64), (F(BIG_DENOMINATOR - 1, BIG_DENOMINATOR), object)):
        eff = Efficiencies(eta, F(9, 10))
        seen.clear()
        assert lift_functional(cglmp(), eff) == ref.lift_functional(cglmp(), eff)
        assert seen == [dtype]


@pytest.fixture(scope="module")
def a_priori_facets():
    return {s: enumerate_facets(local_polytope(s)) for s in (CHSH_ND, THREE_INPUT_L0)}


@pytest.mark.parametrize("s0, etaA, etaB", [
    (CHSH_ND, F(7, 10), F(19, 20)),
    (CHSH_ND, F(19, 20), F(19, 20)),
    (CHSH_ND, F(2, 3), F(2, 3)),
    (CHSH_ND, F(1), F(3, 5)),
    (CHSH_ND, F(4, 5), F(1)),
    (CHSH_ND, F(1), F(1)),
    (THREE_INPUT_L0, F(1), F(9, 10)),
    (THREE_INPUT_L0, F(1), F(3, 5)),
], ids=lambda v: str(v) if isinstance(v, F) else ("chsh-nd" if v == CHSH_ND else "three-input-l0"))
def test_derive_matches_the_reference_census(a_priori_facets, s0, etaA, etaB):
    facets = a_priori_facets[s0]
    eff = Efficiencies(etaA, etaB)
    got = derive(eff, facets)
    assert got == ref.derive(eff, facets)
    assert sum(d.multiplicity for d in got) == len(facets)


def test_derive_edge_cases(a_priori_facets):
    eff = Efficiencies.of(F(4, 5), F(4, 5))
    assert derive(eff, []) == []
    with pytest.raises(InvalidSetup):
        lift_functional(ch(), eff)
    with pytest.raises(InvalidSetup):
        derive(eff, [ch()])
    with pytest.raises(DimensionMismatch):
        derive(eff, a_priori_facets[CHSH_ND][:2] + a_priori_facets[THREE_INPUT_L0][:2])


@pytest.mark.parametrize(
    "etaA, etaB", [(F(1, 2), F(1, 2)), (F(7, 10), F(19, 20)), (F(19, 20), F(19, 20))]
)
@pytest.mark.parametrize("grid", [1, 2, 5])
def test_slice_figures_match_the_fraction_loops(etaA, etaB, grid):
    # Serialized without a default: a numpy bool in the rows would raise.
    eff = Efficiencies(etaA, etaB)
    rows = ref.slice_rows(eff, grid)
    want = {1: {"grid": rows, "quantum_circle_samples": ref.quantum_circle(eff)}, 2: rows}
    for figure in (1, 2):
        got = emit_figure_data(figure, eff, grid)
        assert json.dumps(got, sort_keys=True) == json.dumps(want[figure], sort_keys=True)


@pytest.mark.parametrize("s0", [CHSH_ND, THREE_INPUT_L0], ids=["chsh-nd", "three-input-l0"])
def test_verify_facet_matches_the_vertex_loop(a_priori_facets, s0):
    poly = local_polytope(s0)
    keys = [f.key() for f in random.Random(3).sample(a_priori_facets[s0], 6)]
    keys += [k[:-1] + (k[-1] + d,) for k in keys[:3] for d in (-1, 1)]  # invalid; not tight
    keys.append(tuple(a + b for a, b in zip(keys[0], keys[1])))  # valid, not a facet
    big = 2 ** 70 + 1  # slacks past int64
    keys.append(tuple(big * v for v in keys[0][:-1]) + (big * keys[0][-1] + 1,))
    for key in keys:
        ineq = inequality_from_key(s0, key)
        assert verify_facet(ineq, poly) == ref.verify_facet(ineq, poly)
    assert {verify_facet(inequality_from_key(s0, k), poly)["is_facet"] for k in keys} == {True, False}


ETAS = [F(k, 20) for k in range(10, 21)]
_PHIS = [2 * math.pi * k / 64 for k in range(64)]
# Figure 1's circle samples and the grid-9 slice points, as `slice_rows`
# (apart: the circle's denominators put its slacks past int64).
DEFINITION_POINTS = [
    slice_rows([
        tuple(F(c).limit_denominator(10 ** 9) for c in (math.cos(p) / math.sqrt(2), math.sin(p) / math.sqrt(2)))
        for p in _PHIS
    ]),
    slice_rows([(F(i, 4), F(j, 4)) for i in range(-4, 5) for j in range(-4, 5)]),
]


@pytest.mark.parametrize("etaA", ETAS, ids=str)
def test_lps_definition_matches_the_closed_forms(etaA):
    # L_ps from its definition (the distinct lifted a-priori facets) gives
    # the closed-form facet list's verdicts, which rest on `thresholds`.
    for etaB in ETAS:
        eff = Efficiencies(etaA, etaB)
        keys, closed = _lps_keys(eff), [f.key() for f in ref.lps_hrep(eff)]
        for points in DEFINITION_POINTS:
            got = (slacks(keys, points) >= 0).all(axis=0)
            want = (slacks(closed, points) >= 0).all(axis=0)
            assert got.tolist() == want.tolist(), (etaA, etaB)
