import json
from fractions import Fraction

import pytest

import pslocal.linprog
from pslocal.core import (
    CHSH,
    Efficiencies,
    Scenario,
    lift,
    named_correlation,
    to_cg,
)
from pslocal.errors import CertificateInvalid, SizeLimit
from pslocal.inequalities import ch, orbit_key_set
from pslocal.linprog import OPTIMAL, LPResult
from pslocal.polytope import (
    affine_rank,
    enumerate_facets,
    enumerate_vertices,
    is_ps_local,
    is_trivial_for_ns,
    local_polytope,
    lp_max,
    membership,
    ns_hrep,
    verify_facet,
)

from conftest import random_local_table

F = Fraction


class TestVertices:
    def test_chsh_has_sixteen(self):
        assert len(enumerate_vertices(CHSH)) == 16

    def test_no_detection_has_81(self):
        assert len(enumerate_vertices(CHSH.with_no_detection())) == 81

    def test_vertices_are_deterministic_tables(self):
        for v in enumerate_vertices(CHSH)[:4]:
            t = v.table()
            assert all(
                p in (F(0), F(1))
                for plane in t.p
                for row in plane
                for cell in row
                for p in cell
            )

    def test_size_cap(self):
        big = Scenario(4, 4, 4, 4)
        with pytest.raises(SizeLimit):
            enumerate_vertices(big, cap=100)


class TestAffineRank:
    def test_single_point(self):
        assert affine_rank([(F(1), F(2))]) == 0

    def test_planar_points(self):
        pts = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
        assert affine_rank(pts) == 2
        assert affine_rank(pts[:2]) == 1


class TestFacets:
    def test_chsh_local_facets(self):
        facets = enumerate_facets(local_polytope(CHSH))
        assert len(facets) == 24
        trivial = sum(1 for f in facets if is_trivial_for_ns(f))
        assert trivial == 16
        ch_orbit = orbit_key_set(ch())
        assert sum(1 for f in facets if f.key() in ch_orbit) == 8

    def test_facets_are_deterministic(self):
        a = enumerate_facets(local_polytope(CHSH))
        b = enumerate_facets(local_polytope(CHSH))
        assert [f.key() for f in a] == [f.key() for f in b]

    def test_verify_facet_accepts_ch(self):
        poly = local_polytope(CHSH)
        report = verify_facet(ch(), poly)
        assert report["valid"] and report["is_facet"]
        assert report["tight_rank"] == poly.dim

    def test_verify_facet_rejects_non_facet(self):
        # A valid inequality tight only on a lower-dimensional face: the
        # sum of two distinct facets.
        poly = local_polytope(CHSH)
        facets = enumerate_facets(poly)
        a, b = facets[0], facets[1]
        combined = a.__class__(
            CHSH,
            tuple(x + y for x, y in zip(a.coeffs, b.coeffs)),
            a.offset + b.offset,
            a.bound + b.bound,
            "<=",
        )
        report = verify_facet(combined, poly)
        assert report["valid"] and not report["is_facet"]

    def test_verify_facet_rejects_invalid(self):
        poly = local_polytope(CHSH)
        tightened = ch().__class__(
            CHSH, ch().coeffs, ch().offset, F(-1, 10), "<="
        )
        assert not verify_facet(tightened, poly)["valid"]


class TestFacetCache:
    """A cached facet list is trusted only when it parses with the right
    key length and every key is a facet; otherwise it is recomputed and
    overwritten."""

    def test_bad_cache_files_are_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSLOCAL_CACHE_DIR", str(tmp_path))
        poly = local_polytope(CHSH)
        want = [f.key() for f in enumerate_facets(poly)]
        (path,) = tmp_path.glob("facets-*.json")
        good = path.read_text()
        assert json.loads(good) == [list(k) for k in want]
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

        for bad in (good[: len(good) // 2], json.dumps([k[:-1] for k in want])):
            path.write_text(bad)
            assert [f.key() for f in enumerate_facets(poly)] == want
            assert path.read_text() == good

        assert [f.key() for f in enumerate_facets(poly)] == want

    def test_wrong_cached_facets_are_recomputed(self, tmp_path, monkeypatch):
        # Well-formed keys of a valid but non-facet inequality (0 <= 1).
        monkeypatch.setenv("PSLOCAL_CACHE_DIR", str(tmp_path))
        poly = local_polytope(CHSH)
        want = [f.key() for f in enumerate_facets(poly)]
        (path,) = tmp_path.glob("facets-*.json")
        good = path.read_text()
        path.write_text(json.dumps([[0] * 8 + [1]] * 3))
        facets = enumerate_facets(poly)
        assert len(facets) == 24 and [f.key() for f in facets] == want
        assert path.read_text() == good


class TestMembership:
    def test_local_point_gets_weights(self, rng):
        poly = local_polytope(CHSH)
        q = to_cg(random_local_table(rng, CHSH))
        cert = membership(q, poly)
        assert cert.inside
        assert sum(cert.weights) == 1
        assert all(w >= 0 for w in cert.weights)

    def test_pr_box_gets_separator(self):
        poly = local_polytope(CHSH)
        q = to_cg(named_correlation("PR"))
        cert = membership(q, poly)
        assert not cert.inside
        sep = cert.separator
        assert not sep.satisfied_by(q)
        for v in poly.vertices:
            assert sep.satisfied_by(v)

    def test_ps_local_pr_threshold_points(self):
        pr = named_correlation("PR")
        assert is_ps_local(pr, Efficiencies.of(F(2, 3), F(2, 3))).inside
        assert not is_ps_local(pr, Efficiencies.of(F(3, 4), F(3, 4))).inside


class TestMembershipFallback:
    """When the float guide is wrong, the exact simplex decides (see the
    ``wrong_guides`` fixture)."""

    @pytest.mark.parametrize("eta, inside", [(F(2, 3), True), (F(3, 4), False)])
    def test_wrong_guides_fall_back_to_exact_simplex(self, wrong_guides, eta, inside):
        eff = Efficiencies.of(eta, eta)
        cert = is_ps_local(named_correlation("PR"), eff)
        assert len(wrong_guides) == 1
        assert cert.inside == inside
        q = to_cg(lift(named_correlation("PR"), eff))
        poly = local_polytope(q.scenario)
        if inside:
            assert cert.weights == tuple(wrong_guides[0].x)
            assert all(w >= 0 for w in cert.weights) and sum(cert.weights) == 1
            for i, qi in enumerate(q.coords):
                assert sum(w * v.coords[i] for w, v in zip(cert.weights, poly.vertices)) == qi
        else:
            y = wrong_guides[0].farkas
            assert cert.separator.coeffs == tuple(y[:-1])
            assert cert.separator.offset == y[-1]
            assert all(cert.separator.satisfied_by(v) for v in poly.vertices)
            assert not cert.separator.satisfied_by(q)

    def test_bad_exact_answer_raises(self, monkeypatch):
        monkeypatch.setattr(pslocal.linprog, "_float_optimum", lambda A, b, c: None)
        monkeypatch.setattr(pslocal.linprog, "_float_farkas", lambda A, b: None)
        monkeypatch.setattr(
            pslocal.linprog,
            "solve_equality_form",
            lambda A, b, c: LPResult(OPTIMAL, x=[F(1)] + [F(0)] * (len(c) - 1)),
        )
        with pytest.raises(CertificateInvalid):
            is_ps_local(named_correlation("PR"), Efficiencies.of(F(2, 3), F(2, 3)))


class TestNonSignalingHrep:
    def test_chsh_ns_facets_are_positivity(self):
        rep = ns_hrep(CHSH)
        assert len(rep.facets) == 16
        assert all(is_trivial_for_ns(f) for f in rep.facets)

    def test_lp_max_of_ch_over_ns(self):
        assert lp_max(ch(), ns_hrep(CHSH)) == F(1, 2)

    def test_trivial_detection(self):
        assert not is_trivial_for_ns(ch())
