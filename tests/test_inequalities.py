import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pslocal.inequalities
from pslocal.core import (
    CHSH,
    CGVector,
    Efficiencies,
    Scenario,
    _layout,
    flat_index,
    flatten,
    named_correlation,
    to_cg,
)
from pslocal.errors import DimensionMismatch
from pslocal.inequalities import (
    THREE_INPUT_L0,
    Inequality,
    _orbit_keys,
    _transposition_perms,
    canonical_form,
    ch,
    ch_eta,
    ch_eta_3in,
    ch_eta_lower,
    cglmp,
    cglmp_eta,
    functional_from_full,
    functional_to_full,
    i3223,
    i3223_1_eta,
    inequality_from_key,
    orbit_key_set,
    symmetry_orbit,
    thresholds,
)
from pslocal.linprog import coprime_integers
from pslocal.polytope import enumerate_facets, enumerate_vertices, local_polytope
from pslocal.psfacets import _orbit_census

import reference_maps
from conftest import random_local_table

F = Fraction


def _local_max(ineq):
    return max(ineq.evaluate(v.cg()) for v in enumerate_vertices(ineq.scenario))


class TestCatalog:
    def test_ch_values(self):
        assert ch().evaluate(to_cg(named_correlation("PR"))) == F(1, 2)
        assert _local_max(ch()) == F(0)
        assert ch().bound == F(0)

    def test_cglmp_local_bound(self):
        assert _local_max(cglmp()) == cglmp().bound

    def test_ch_eta_reduces_to_ch_at_unit_efficiency(self):
        eff = Efficiencies.of(1, 1)
        assert ch_eta(eff).key() == ch().key()

    def test_ch_eta_lower_is_negated_upper(self):
        eff = Efficiencies.of(F(4, 5), F(9, 10))
        upper = ch_eta(eff)
        lower = ch_eta_lower(eff)
        q = to_cg(named_correlation("PR"))
        a, b = eff.etaA, eff.etaB
        assert upper.evaluate(q) + lower.evaluate(q) == 0
        # The lower bound is -1 in the same normalization.
        assert lower.canonical_scaled().key() == Inequality(
            CHSH,
            tuple(-c for c in upper.coeffs),
            -upper.offset,
            F(1),
            "<=",
        ).canonical_scaled().key()

    def test_cglmp_eta_bound(self):
        eff = Efficiencies.of(F(3, 4), F(4, 5))
        ineq = cglmp_eta(eff)
        a, b = eff.etaA, eff.etaB
        assert ineq.bound == a * (1 - b) + b * (1 - a)

    def test_three_input_family_dimensions(self):
        eta = F(9, 10)
        for ineq in (ch_eta_3in(eta), i3223_1_eta(eta)):
            assert ineq.scenario.mA == 3
            assert len(ineq.coeffs) == ineq.scenario.cg_dim

    def test_i3223_catalog_is_valid_for_three_input_local(self):
        for k in (1, 2, 3):
            ineq = i3223(k)
            assert _local_max(ineq) == ineq.bound


class TestInequalityAlgebra:
    def test_evaluate_rejects_wrong_scenario(self):
        eta = F(9, 10)
        with pytest.raises(DimensionMismatch):
            ch().evaluate(to_cg(named_correlation("PR")).__class__(
                ch_eta_3in(eta).scenario,
                tuple(F(0) for _ in range(ch_eta_3in(eta).scenario.cg_dim)),
            ))

    def test_slack_and_satisfied(self, rng):
        t = random_local_table(rng, CHSH)
        q = to_cg(t)
        assert ch().satisfied_by(q)
        assert ch().slack(q) == ch().bound - ch().evaluate(q)

    def test_dict_round_trip(self):
        eff = Efficiencies.of(F(4, 5), F(9, 10))
        for ineq in (ch(), ch_eta(eff), cglmp()):
            assert Inequality.from_dict(ineq.to_dict()).key() == ineq.key()

    def test_canonical_scaling_clears_denominators(self):
        eff = Efficiencies.of(F(4, 5), F(9, 10))
        scaled = ch_eta(eff).canonical_scaled()
        nums = [c for c in scaled.coeffs] + [scaled.bound]
        assert all(v.denominator == 1 for v in nums)

    def test_key_identifies_positive_rescalings(self):
        tripled = Inequality(
            CHSH,
            tuple(3 * c for c in ch().coeffs),
            3 * ch().offset,
            3 * ch().bound,
            "<=",
        )
        assert tripled.key() == ch().key()
        assert inequality_from_key(CHSH, tripled.key()).key() == ch().key()


def _reference_key(ineq):
    """The canonical key by its definition: the '<=' form (coeffs...,
    bound - offset) scaled by a positive factor to coprime integers."""
    sign = 1 if ineq.relation == "<=" else -1
    values = [sign * v for v in ineq.coeffs + (ineq.bound - ineq.offset,)]
    den = lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    g = gcd(*ints) or 1
    return tuple(v // g for v in ints)


KEY_ENTRIES = st.one_of(st.integers(-60, 60), st.fractions(-5, 5, max_denominator=12))


@settings(max_examples=150, deadline=None)
@given(
    key=st.lists(KEY_ENTRIES, min_size=CHSH.cg_dim + 1, max_size=CHSH.cg_dim + 1),
    scale=st.integers(1, 6),
    offset=KEY_ENTRIES,
    relation=st.sampled_from(["<=", ">="]),
)
@example(key=[0] * (CHSH.cg_dim + 1), scale=1, offset=0, relation="<=")
@example(key=[0] * CHSH.cg_dim + [2], scale=3, offset=F(1, 2), relation=">=")
@example(key=[-1, 0, -1, 0, 1, 1, 1, -1, 0], scale=1, offset=0, relation="<=")
@example(key=[F(1, 3)] * (CHSH.cg_dim + 1), scale=2, offset=0, relation="<=")
def test_key_matches_its_definition(key, scale, offset, relation):
    # Coprime, non-coprime (scale > 1), zero and Fraction keys; both relations.
    key = [scale * v for v in key]
    seeded = inequality_from_key(CHSH, key)
    assert seeded.key() == _reference_key(seeded)
    assert seeded == Inequality(CHSH, tuple(key[:-1]), 0, key[-1])
    assert hash(seeded) == hash(Inequality(CHSH, tuple(key[:-1]), 0, key[-1]))
    direct = Inequality(CHSH, tuple(key[:-1]), offset, key[-1] + offset, relation)
    assert direct.key() == _reference_key(direct)
    assert direct.key() is direct.key()  # computed once
    assert Inequality.from_dict(direct.to_dict()).key() == direct.key()
    assert "_key" not in direct.to_dict() and "_key" not in repr(direct)
    # A replaced field gives a fresh key, never the stored one.
    for changed in (
        replace(seeded, relation=">="),
        replace(seeded, bound=seeded.bound + 1),
        replace(direct, offset=direct.offset - 1),
        replace(direct, coeffs=tuple(c + 1 for c in direct.coeffs)),
    ):
        assert changed.key() == _reference_key(changed)


def test_facet_keys_are_stored_not_recomputed(monkeypatch):
    facets = enumerate_facets(local_polytope(CHSH.with_no_detection()))
    monkeypatch.setattr(pslocal.inequalities, "coprime_integers", None)
    assert [f.key() for f in facets] == [_reference_key(f) for f in facets]


class TestFunctionalConversion:
    def test_full_round_trip_chsh(self):
        for ineq in (ch(), ch_eta(Efficiencies.of(F(3, 4), F(4, 5)))):
            w, const = functional_to_full(ineq)
            back = functional_from_full(ineq.scenario, w, const, ineq.bound)
            assert back.key() == ineq.key()

    def test_full_round_trip_with_detection_outcome(self):
        s0 = CHSH.with_no_detection()
        w, const = functional_to_full(cglmp())
        assert cglmp().scenario == s0
        back = functional_from_full(s0, w, const, cglmp().bound)
        assert back.key() == cglmp().key()


class TestSymmetries:
    def test_ch_orbit_has_eight_forms(self):
        assert len(orbit_key_set(ch())) == 8

    def test_orbit_members_share_canonical_form(self):
        members = symmetry_orbit(ch())
        forms = {canonical_form(m) for m in members}
        assert len(forms) == 1

    def test_party_swap_toggle(self):
        eff = Efficiencies.of(F(3, 4), F(9, 10))
        with_swap = orbit_key_set(ch_eta(eff), include_party_swap=True)
        without = orbit_key_set(ch_eta(eff), include_party_swap=False)
        assert without <= with_swap
        # Asymmetric efficiencies break the party swap, doubling the orbit.
        assert len(with_swap) == 2 * len(without)

    def test_orbit_preserves_validity(self, rng):
        t = random_local_table(rng, CHSH)
        q = to_cg(t)
        for member in symmetry_orbit(ch()):
            assert member.satisfied_by(q)


def _reference_orbit_keys(ineq, fix_no_detection, include_party_swap):
    """The orbit search one functional and one generator at a time, in
    Python ints: the reference for the batched `_orbit_keys`."""
    s = ineq.scenario
    if include_party_swap is None:
        include_party_swap = s.mA == s.mB and s.kA == s.kB
    perms = _transposition_perms(s, fix_no_detection, include_party_swap)
    t0, basis = reference_maps.basis_tables(s)
    key0 = ineq.key()
    w0, _ = reference_maps.functional_to_full(inequality_from_key(s, key0))
    w0 = tuple(int(c) for c in w0)

    sparse = [[(i, int(t)) for i, t in enumerate(table) if t] for table in (t0, *basis)]

    def cg_key(w):
        off, *coeffs = [sum(w[i] * t for i, t in table) for table in sparse]
        return coprime_integers(coeffs + [key0[-1] - off])

    seen = {cg_key(w0): w0}
    frontier = [w0]
    while frontier:
        nxt = []
        for w in frontier:
            for perm in perms:
                w2 = tuple(w[perm[i]] for i in range(len(perm)))
                k2 = cg_key(w2)
                if k2 not in seen:
                    seen[k2] = w2
                    nxt.append(w2)
        frontier = nxt
    return seen


@pytest.fixture(scope="module")
def a_priori_facets():
    """The facet lists of both a-priori polytopes."""
    return [
        enumerate_facets(local_polytope(s)) for s in (CHSH.with_no_detection(), THREE_INPUT_L0)
    ]


@pytest.fixture(scope="module")
def a_priori_representatives(a_priori_facets):
    """One facet per relabeling orbit of both a-priori polytopes."""
    return [orbit["representative"] for facets in a_priori_facets for orbit in _orbit_census(facets)]


@pytest.mark.parametrize("fix_no_detection", [False, True])
@pytest.mark.parametrize("include_party_swap", [None, False])
def test_batched_orbit_search_matches_reference(
    a_priori_representatives, fix_no_detection, include_party_swap
):
    # Same keys, same first-found witnesses, same insertion order.
    for rep in a_priori_representatives + [ch(), i3223_1_eta(F(4, 5))]:
        got = _orbit_keys(rep, fix_no_detection, include_party_swap)
        want = _reference_orbit_keys(rep, fix_no_detection, include_party_swap)
        assert list(got.items()) == list(want.items())
        assert all(type(v) is int for k, w in got.items() for v in k + w)


def _reference_generators(s, fix_no_detection, include_party_swap):
    """The relabeling generators written out cell by cell: entry
    `flat_index(x, y, a, b)` of a generator is the flat index of the image
    of that cell."""
    cells = [
        (x, y, a, b)
        for x in range(s.mA) for y in range(s.mB) for a in range(s.kA) for b in range(s.kB)
    ]

    def perm(image):
        return tuple(flat_index(s, *image(*cell)) for cell in cells)

    def sw(i, v):
        return i + 1 if v == i else (i if v == i + 1 else v)

    topA = s.kA - 1 if (fix_no_detection and s.no_detection_A) else s.kA
    topB = s.kB - 1 if (fix_no_detection and s.no_detection_B) else s.kB
    gens = [perm(lambda x, y, a, b: (sw(i, x), y, a, b)) for i in range(s.mA - 1)]
    gens += [perm(lambda x, y, a, b: (x, sw(i, y), a, b)) for i in range(s.mB - 1)]
    gens += [
        perm(lambda x, y, a, b: (x, y, sw(i, a) if x == x0 else a, b))
        for x0 in range(s.mA) for i in range(topA - 1)
    ]
    gens += [
        perm(lambda x, y, a, b: (x, y, a, sw(i, b) if y == y0 else b))
        for y0 in range(s.mB) for i in range(topB - 1)
    ]
    if include_party_swap and s.mA == s.mB and s.kA == s.kB:
        gens.append(perm(lambda x, y, a, b: (y, x, b, a)))
    return tuple(gens)


SCENARIOS = [
    CHSH,
    CHSH.with_no_detection(),
    THREE_INPUT_L0,
    Scenario(3, 3, 2, 3),
    Scenario(2, 3, 3, 2, no_detection_A=True),
]
SCENARIO_IDS = ["chsh", "chsh-nd", "three-input-l0", "3322-3", "2332-ndA"]


@pytest.mark.parametrize("s", SCENARIOS, ids=SCENARIO_IDS)
def test_generators_match_the_relabelings(s):
    for fix_no_detection in (False, True):
        for include_party_swap in (False, True):
            got = _transposition_perms(s, fix_no_detection, include_party_swap)
            assert got == _reference_generators(s, fix_no_detection, include_party_swap)
            assert _transposition_perms(s, fix_no_detection, include_party_swap) is got
            assert all(type(v) is int for perm in got for v in perm)


@pytest.mark.parametrize("s", SCENARIOS, ids=SCENARIO_IDS)
def test_basis_tables_reconstruct_to_full(s, rng):
    full = _layout(s).full.tolist()
    for _ in range(5):
        coords = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(s.cg_dim)]
        want = flatten(reference_maps.to_full(CGVector(s, coords), allow_negative=True))
        assert tuple(sum(c * t for c, t in zip([1, *coords], row)) for row in full) == want


def _reference_census(facets):
    """The orbits of a facet list by `orbit_key_set`, in order of their
    smallest listed key: that key's facet and the number of listed keys in
    its orbit."""
    by_key = {f.key(): f for f in facets}
    done, census = set(), []
    for k in sorted(by_key):
        if k not in done:
            members = orbit_key_set(by_key[k]) & by_key.keys()
            done |= members
            census.append((by_key[k], len(members)))
    return census


def test_census_of_lists_not_closed_under_relabeling(a_priori_facets):
    rng = random.Random(22)
    l0, three = a_priori_facets
    partial = (
        rng.sample(symmetry_orbit(cglmp()), 50)
        + rng.sample(symmetry_orbit(l0[0]), 5)
        + rng.sample(l0, 40)
    )
    partial += partial[:3]  # repeated members count once
    rng.shuffle(partial)
    lists = [
        [f for i, f in enumerate(l0) if i % 3],  # the smallest key is gone
        rng.sample(three, len(three) // 2),
        partial,
    ]
    for facets in lists:
        got = [(o["representative"], o["size"]) for o in _orbit_census(facets)]
        want = _reference_census(facets)
        assert got == want
        assert all(a is b for (a, _), (b, _) in zip(got, want))
        assert sum(n for _, n in got) == len({f.key() for f in facets})
        assert any(n < len(orbit_key_set(rep)) for rep, n in got)


class TestThresholds:
    def test_symmetric_eberhard_point(self):
        t = thresholds(Efficiencies.of(F(2, 3), F(2, 3)))
        assert not t.upper_nontrivial
        t = thresholds(Efficiencies.of(F(2, 3) + F(1, 100), F(2, 3)))
        assert t.upper_nontrivial

    def test_asymmetric_threshold_at_perfect_alice(self):
        # With etaA = 1 the upper bound is non-trivial iff etaB > 1/2.
        assert not thresholds(Efficiencies.of(1, F(1, 2))).upper_nontrivial
        assert thresholds(Efficiencies.of(1, F(1, 2) + F(1, 50))).upper_nontrivial

    def test_h_undefined_at_unit_efficiency(self):
        t = thresholds(Efficiencies.of(1, F(9, 10)))
        assert t.h is None
        assert not t.lower_facet

    def test_lower_facet_requires_negative_h(self):
        dark = thresholds(Efficiencies.of(F(19, 20), F(19, 20)))
        assert dark.h < 0 and dark.lower_facet
        light = thresholds(Efficiencies.of(F(4, 5), F(4, 5)))
        assert light.h > 0 and not light.lower_facet

    def test_guarantee_functions_at_unit(self):
        t = thresholds(Efficiencies.of(1, 1))
        assert t.F == F(1, 2)
        assert t.G == F(1, 2)
