import random
from fractions import Fraction

import pytest

import pslocal.linprog
import pslocal.psfacets
from pslocal.core import CHSH, Efficiencies, is_nonsignaling, lift, to_cg
from pslocal.errors import CertificateInvalid, InvalidSetup
from pslocal.inequalities import (
    ch,
    ch_eta,
    ch_eta_lower,
    cglmp,
    cglmp_eta,
    orbit_key_set,
    symmetry_orbit,
    thresholds,
)
from pslocal.linprog import UNBOUNDED, LPResult
from pslocal.psfacets import (
    Classification,
    classify,
    lift_functional,
    lower_bound_witness,
    ps_facet_check,
    region_classify,
    saturating_witnesses,
    verify_cglmp_implication,
    verify_decompositions,
)
from pslocal.polytope import ns_hrep

from conftest import random_local_table

F = Fraction

LIGHT = Efficiencies.of(F(4, 5), F(4, 5))
DARK = Efficiencies.of(F(19, 20), F(19, 20))
WHITE = Efficiencies.of(F(3, 5), F(3, 5))


class TestLiftFunctional:
    def test_reduces_to_identity_at_unit_efficiency(self):
        eff = Efficiencies.of(1, 1)
        lifted = lift_functional(cglmp(), eff)
        # At unit efficiency the no-detection entries never occur; the
        # functional restricted to the conclusive block survives as-is.
        assert lifted.scenario == CHSH

    def test_cglmp_lifts_into_its_postselected_orbit(self):
        eff = Efficiencies.of(F(4, 5), F(17, 20))
        lifted = lift_functional(cglmp(), eff)
        assert lifted.key() in orbit_key_set(
            cglmp_eta(eff), include_party_swap=False
        )

    def test_evaluation_identity(self, rng):
        # The lifted functional on the post-selected table must reproduce
        # the original functional on the lifted a-priori table.
        eff = Efficiencies.of(F(3, 4), F(9, 10))
        t = random_local_table(rng, CHSH)
        lifted = lift_functional(cglmp(), eff)
        assert lifted.evaluate(to_cg(t)) == cglmp().evaluate(
            to_cg(lift(t, eff))
        )

    def test_requires_no_detection_outcome(self):
        with pytest.raises(InvalidSetup):
            lift_functional(ch(), Efficiencies.of(F(4, 5), F(4, 5)))


class TestClassify:
    def test_families(self):
        assert classify(ch_eta(DARK), DARK) == Classification.CH_ETA_UPPER
        assert classify(ch_eta_lower(DARK), DARK) == Classification.CH_ETA_LOWER
        assert classify(cglmp_eta(DARK), DARK) == Classification.IMPLIED_CGLMP

    def test_relabelled_member_recognized(self):
        member = symmetry_orbit(ch_eta(DARK), include_party_swap=False)[-1]
        assert classify(member, DARK) == Classification.CH_ETA_UPPER

    def test_ns_valid_inequality_is_trivial(self):
        positivity = ns_hrep(CHSH).facets[0]
        assert classify(positivity, DARK) == Classification.TRIVIAL

    def test_upper_bound_trivial_in_white_region(self):
        assert classify(ch_eta(WHITE), WHITE) == Classification.TRIVIAL


class TestIdentities:
    def test_decompositions_on_random_efficiencies(self, rng):
        for _ in range(10):
            eff = Efficiencies.of(
                F(rng.randint(2, 39), 40), F(rng.randint(2, 39), 40)
            )
            verify_decompositions(eff)

    def test_decompositions_at_edges(self):
        for pair in ((1, 1), (1, F(9, 10)), (F(9, 10), 1), (F(1, 2), F(1, 2))):
            verify_decompositions(Efficiencies.of(*pair))

    def test_cglmp_implication_coefficients(self):
        report = verify_cglmp_implication(Efficiencies.of(F(4, 5), F(17, 20)))
        assert report["identity_holds"] and report["implied_by_upper_ch"]


class TestWitnesses:
    def test_saturating_witnesses_light_gray(self):
        assert len(saturating_witnesses(LIGHT)) == 8

    def test_saturating_witnesses_asymmetric(self):
        assert len(saturating_witnesses(Efficiencies.of(F(3, 4), F(9, 10)))) == 8

    def test_lower_bound_witness_dark_gray(self):
        # A non-signaling point strictly beyond the lower CH bound: its CH
        # value sits below -1 by exactly (1-etaA)(1-etaB) h / g.
        w = lower_bound_witness(DARK)
        assert is_nonsignaling(w)
        t = thresholds(DARK)
        value = ch_eta(DARK).evaluate(to_cg(w))
        assert value == -1 + (1 - DARK.etaA) * (1 - DARK.etaB) * t.h / t.g
        assert not ch_eta_lower(DARK).satisfied_by(to_cg(w))

    def test_lower_bound_witness_respects_upper_orbit(self):
        w = lower_bound_witness(DARK)
        q = to_cg(w)
        for member in symmetry_orbit(ch_eta(DARK), include_party_swap=False):
            assert member.satisfied_by(q)


class TestRegions:
    def test_three_regions(self):
        assert region_classify(WHITE).region.value == "white"
        assert region_classify(LIGHT).region.value == "light-gray"
        assert region_classify(DARK).region.value == "dark-gray"

    def test_ns_violability_flag(self):
        assert region_classify(DARK).lower_ns_violable
        below_dashed = Efficiencies.of(F(7, 10), F(7, 10))
        assert not region_classify(below_dashed).lower_ns_violable

    def test_white_includes_one_sided_boundary(self):
        assert region_classify(Efficiencies.of(1, F(1, 2))).region.value == "white"


class TestPsFacetCheck:
    def test_upper_is_facet_in_light_gray(self):
        report = ps_facet_check(LIGHT, ch_eta(LIGHT))
        assert report["valid"] and report["tight"] and report["is_facet"]
        assert report["face_dim"] == CHSH.cg_dim - 1

    def test_lower_not_tight_in_light_gray(self):
        report = ps_facet_check(LIGHT, ch_eta_lower(LIGHT))
        assert report["valid"] and not report["tight"]
        assert not report["is_facet"]

    def test_white_region_upper_bound_is_low_dimensional_face(self):
        report = ps_facet_check(WHITE, ch_eta(WHITE))
        assert report["valid"]
        assert not report["is_facet"]

    def test_budget_fallback_certifies_claimed_families(self):
        from pslocal.psfacets import verify_appendix_b

        report = verify_appendix_b(F(9, 10), facet_budget_seconds=0.001)
        census = report["census"]
        assert census["status"] == "skipped-budget"
        checks = census["fallback_facet_checks"]
        assert set(checks) == {"trivial", "ch", "new-1", "new-2", "new-3"}
        assert all(c["valid"] and c["is_facet"] for c in checks.values())
        assert report["facet_checks"]["i3223_1_eta"]["is_facet"]

    def test_unexpected_lp_status_raises(self, monkeypatch):
        # An LP over the bounded L_ps cannot be unbounded; the status check
        # must hold under python -O too.
        monkeypatch.setattr(pslocal.linprog, "_float_optimum", lambda A, b, c: None)
        monkeypatch.setattr(pslocal.linprog, "_float_farkas", lambda A, b: None)
        monkeypatch.setattr(
            pslocal.linprog, "solve_equality_form", lambda A, b, c: LPResult(UNBOUNDED)
        )
        with pytest.raises(CertificateInvalid):
            ps_facet_check(LIGHT, ch_eta(LIGHT))

    def test_wrong_guides_fall_back_to_exact_simplex(self, request):
        prog = pslocal.psfacets._PsProgram(CHSH, LIGHT)
        canon = ch_eta(LIGHT).canonical_scaled()
        probe = ns_hrep(CHSH).facets[0]
        guided = [prog.maximize(canon)[0], prog.maximize(probe, face_of=canon)[0]]
        fallbacks = request.getfixturevalue("wrong_guides")
        exact = [prog.maximize(canon)[0], prog.maximize(probe, face_of=canon)[0]]
        assert len(fallbacks) == 2
        assert exact == guided and guided[0] == canon.bound

    def test_separated_optima_without_new_direction_raise(self, monkeypatch):
        # Face probes whose max and min differ but whose optima both sit at
        # the base point contradict each other; that must be a domain error
        # (which the CLI reports), not an AssertionError.
        exact = pslocal.psfacets._PsProgram.maximize
        base = []

        def separated_at_base(self, ineq, face_of=None):
            if face_of is None:
                base.append(exact(self, ineq))
                return base[0]
            return F(1), base[0][1]

        monkeypatch.setattr(pslocal.psfacets._PsProgram, "maximize", separated_at_base)
        with pytest.raises(CertificateInvalid, match="no new direction"):
            ps_facet_check(LIGHT, ch_eta(LIGHT))

    def test_invalid_inequality_flagged(self):
        base = ch_eta(LIGHT)
        tightened = base.__class__(
            CHSH, base.coeffs, base.offset, base.bound - F(1, 100), "<="
        )
        report = ps_facet_check(LIGHT, tightened)
        assert not report["valid"]
        assert not report["is_facet"]
