import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pslocal.core
import pslocal.linprog
import pslocal.polytope
from pslocal.core import (
    CHSH,
    CGVector,
    Efficiencies,
    JointTable,
    Scenario,
    lift,
    named_correlation,
    to_cg,
)
from pslocal.dd import facets_of_polytope
from pslocal.errors import CertificateInvalid, DimensionMismatch, SignalingInput, SizeLimit
from pslocal.inequalities import (
    THREE_INPUT_L0,
    THREE_INPUT_PS,
    Inequality,
    ch,
    orbit_key_set,
)
from pslocal.linprog import (
    OPTIMAL,
    LPResult,
    Numerators,
    certify,
    common_denominator,
    exact_matrix,
    solve_equality_form,
)
from pslocal.polytope import (
    PolytopeRep,
    affine_rank,
    enumerate_facets,
    enumerate_vertices,
    is_ps_local,
    is_trivial_for_ns,
    _ns_vertices,
    local_polytope,
    lp_max,
    membership,
    ns_hrep,
    verify_facet,
)
from pslocal.quantum import bell_state_setup, correlation, rationalize

from conftest import (
    BIG_DENOMINATOR,
    efficiencies,
    mix_tables,
    nnls_iteration_limit,
    ns_tables,
    random_local_table,
    record_dtypes,
)

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
        monkeypatch.setattr(pslocal.linprog, "nnls", nnls_iteration_limit)
        monkeypatch.setattr(
            pslocal.linprog,
            "solve_equality_form",
            lambda A, b, c: LPResult(OPTIMAL, x=[F(1)] + [F(0)] * (len(c) - 1)),
        )
        with pytest.raises(CertificateInvalid):
            is_ps_local(named_correlation("PR"), Efficiencies.of(F(2, 3), F(2, 3)))


    def test_membership_makes_no_highs_call(self, monkeypatch):
        # Feasibility LPs are guided by NNLS alone, whose candidates pass.
        def refuse(*args, **kwargs):
            pytest.fail("membership reached HiGHS or the exact simplex")

        monkeypatch.setattr(pslocal.linprog, "highs", refuse)
        monkeypatch.setattr(pslocal.linprog, "solve_equality_form", refuse)
        pr = named_correlation("PR")
        assert is_ps_local(pr, Efficiencies.of(F(2, 3), F(2, 3))).inside
        assert not is_ps_local(pr, Efficiencies.of(F(3, 4), F(3, 4))).inside
        qubits = rationalize(correlation(bell_state_setup()), 10 ** 6)
        assert not is_ps_local(qubits, Efficiencies.of(F(9, 10), F(9, 10))).inside

    def test_signaling_table_raises(self):
        p = [[[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]]
        with pytest.raises(SignalingInput):
            is_ps_local(JointTable(CHSH, p), Efficiencies.of(F(2, 3), F(2, 3)))


class TestPsLocalMap:
    """`is_ps_local` takes the lifted table's coordinates from the
    detection map in integers; its certificates are those of membership
    of the lifted table."""

    # Three-input tables over BIG_DENOMINATOR often need the exact simplex
    # on 243 vertices (seconds each): the float guide cannot resolve them.
    @pytest.mark.parametrize("scenario, dens", [
        (CHSH, (10, BIG_DENOMINATOR)), (THREE_INPUT_PS, (10,)),
    ], ids=["chsh", "three-input"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_membership_of_the_lift(self, scenario, dens, data):
        t = data.draw(ns_tables(scenario, dens))
        eff = data.draw(efficiencies)
        expected = membership(to_cg(lift(t, eff)), local_polytope(scenario.with_no_detection()))
        assert is_ps_local(t, eff) == expected

    def test_both_dtype_paths(self, monkeypatch):
        seen = record_dtypes(monkeypatch, pslocal.core)
        eff = Efficiencies.of(F(3, 4), F(3, 4))
        for weight, dtype in ((F(1, 2), np.int64), (F(2 ** 63 + 1, BIG_DENOMINATOR), object)):
            t = mix_tables([named_correlation("PR"), named_correlation("r")], [weight, 1 - weight])
            seen.clear()
            cert = is_ps_local(t, eff)
            assert seen == [dtype]
            assert cert == membership(to_cg(lift(t, eff)), local_polytope(CHSH.with_no_detection()))

    def test_signaling_input_is_rejected_before_the_lp(self, monkeypatch):
        monkeypatch.setattr(pslocal.polytope, "membership", None)  # never reached
        p = [[[[F(1, 2), 0], [0, F(1, 2)]], [[F(1, 2), 0], [0, F(1, 2)]]],
             [[[F(1, 2), 0], [0, F(1, 2)]], [[1, 0], [0, 0]]]]
        with pytest.raises(SignalingInput):
            is_ps_local(JointTable(CHSH, p), Efficiencies.of(1, F(1, 2)))
        with pytest.raises(DimensionMismatch):
            is_ps_local(lift(named_correlation("PR"), Efficiencies.of(1, 1)), Efficiencies.of(1, 1))


def _certified(cert, q: CGVector, poly: PolytopeRep) -> bool:
    """Checks a membership certificate in rationals; returns its verdict,
    after checking that the exact simplex reaches the same one."""
    A = poly.lp_matrix
    rows = [[F(v, s) for v in row] for row, s in zip(A.rows, A.scale)]
    ref = solve_equality_form(rows, list(q.coords) + [1], [0] * len(A.cols))
    assert cert.inside == (ref.status == OPTIMAL)
    if cert.inside:
        assert all(w >= 0 for w in cert.weights) and sum(cert.weights) == 1
        for i, qi in enumerate(q.coords):
            assert sum(w * v.coords[i] for w, v in zip(cert.weights, poly.vertices) if w) == qi
    else:
        assert all(cert.separator.satisfied_by(v) for v in poly.vertices)
        assert not cert.separator.satisfied_by(q)
    return cert.inside


class TestLeastSquaresPaths:
    """Membership off the fast path of the exact least-squares step
    (integer adjugate in int64, unit row scales, b in float range) still
    ends in a certified verdict, equal to the exact simplex's."""

    def test_coordinates_past_float_range(self):
        # b has no float image: the NNLS guide steps aside, the exact
        # simplex finds the point outside.
        q = CGVector(CHSH, [F(10 ** 400)] * 8)
        cert = membership(q, local_polytope(CHSH))
        assert not _certified(cert, q, local_polytope(CHSH))

    @pytest.mark.parametrize("eta", [F(2, 3), F(3, 4)])
    def test_repeated_vertices_give_a_singular_normal_matrix(self, monkeypatch, eta):
        """Every vertex listed twice, and NNLS patched to split each weight
        between the copies: the passive set holds both copies, the normal
        matrix is singular and `row_reduce` solves it."""
        s = CHSH.with_no_detection()
        poly = PolytopeRep(s, vertices=2 * list(local_polytope(s).vertices))
        real_nnls, real_reduce, ranks = pslocal.linprog.nnls, pslocal.linprog.row_reduce, []

        def split(A, b):
            x, rnorm = real_nnls(A, b)
            n = len(x) // 2
            return np.concatenate([x[:n] + x[n:]] * 2) / 2, rnorm

        def reduce(rows, n):
            kept, pivots = real_reduce(rows, n)
            ranks.append((len(kept), n))
            return kept, pivots

        monkeypatch.setattr(pslocal.linprog, "nnls", split)
        monkeypatch.setattr(pslocal.linprog, "row_reduce", reduce)
        q = to_cg(lift(named_correlation("PR"), Efficiencies.of(eta, eta)))
        cert = membership(q, poly)
        assert len(ranks) == 1 and 0 < ranks[0][0] < ranks[0][1]
        assert _certified(cert, q, poly) == (eta == F(2, 3))

    @pytest.mark.parametrize("eta", [F(2, 3), F(3, 4), F(7, 10)])
    def test_fractional_vertices_scale_rows(self, eta):
        """Coordinate i of every vertex and of q divided by i + 2: row
        scales are not 1, and the verdict is that of the unscaled query."""
        s = CHSH.with_no_detection()
        shrink = lambda v: CGVector(s, [c / (i + 2) for i, c in enumerate(v.coords)])
        poly = PolytopeRep(s, vertices=[shrink(v) for v in local_polytope(s).vertices])
        assert poly.lp_matrix.scale[:-1] == tuple(range(2, s.cg_dim + 2))
        q = to_cg(lift(named_correlation("PR"), Efficiencies.of(eta, eta)))
        cert = membership(shrink(q), poly)
        assert _certified(cert, shrink(q), poly) == membership(q, local_polytope(s)).inside

    @pytest.mark.parametrize("num, inside", [(3, True), (4, False)], ids=["inside", "outside"])
    def test_efficiencies_past_2_1100_run_in_python_ints(self, monkeypatch, num, inside):
        """eta = (num K + 1) / 5K with K = 2**1100: the least-squares step
        and certify run in object dtype, and NNLS still guides them."""
        K = 2 ** 1100
        eff = Efficiencies.of(F(num * K + 1, 5 * K), F(num * K + 1, 5 * K))
        seen = record_dtypes(monkeypatch, pslocal.linprog)
        monkeypatch.setattr(pslocal.linprog, "solve_equality_form", None)  # never reached
        cert = is_ps_local(named_correlation("PR"), eff)
        assert object in seen
        monkeypatch.undo()
        q = to_cg(lift(named_correlation("PR"), eff))
        assert _certified(cert, q, local_polytope(q.scenario)) == inside


class TestMembershipMatrix:
    """The membership LP's matrix is built once per PolytopeRep, from its
    own vertex list, and reused by every query."""

    def test_shuffled_vertices_rebuild_q_in_their_own_order(self):
        s = CHSH.with_no_detection()
        verts = list(local_polytope(s).vertices)
        random.Random(7).shuffle(verts)
        poly = PolytopeRep(s, vertices=verts)
        q = to_cg(lift(named_correlation("PR"), Efficiencies.of(F(2, 3), F(2, 3))))
        cert = membership(q, poly)
        assert cert.inside and sum(cert.weights) == 1
        for i, qi in enumerate(q.coords):
            assert sum(w * v.coords[i] for w, v in zip(cert.weights, verts)) == qi
        assert poly.lp_matrix.cols == tuple(tuple(v.coords) + (1,) for v in verts)

    def test_scenarios_never_share_a_matrix(self):
        small, big = local_polytope(CHSH), local_polytope(CHSH.with_no_detection())
        membership(to_cg(named_correlation("PR")), small)
        q = to_cg(lift(named_correlation("PR"), Efficiencies.of(F(3, 4), F(3, 4))))
        assert not membership(q, big).inside
        assert small.lp_matrix is not big.lp_matrix
        assert small.lp_matrix.dense.shape == (9, 16)
        assert big.lp_matrix.dense.shape == (25, 81)
        matrix = big.lp_matrix
        membership(q, big)
        assert big.lp_matrix is matrix  # kept, not rebuilt
        with pytest.raises(DimensionMismatch):
            membership(q, small)
        with pytest.raises(DimensionMismatch):  # numerators of q: 24 coordinates, not 8
            membership(Numerators(*common_denominator(q.coords)), small)

    @pytest.mark.parametrize("eta", [F(2, 3), F(3, 4)])
    def test_wrong_guides_fall_back_on_the_cached_matrix(self, wrong_guides, eta):
        q = to_cg(lift(named_correlation("PR"), Efficiencies.of(eta, eta)))
        poly = local_polytope(q.scenario)
        matrix = poly.lp_matrix
        cert = membership(q, poly)
        assert len(wrong_guides) == 1
        assert poly.lp_matrix is matrix
        certify(matrix, list(q.coords) + [1], [0] * len(matrix.cols), wrong_guides[0])
        assert cert.inside == (eta == F(2, 3))


class TestNonSignalingHrep:
    def test_chsh_ns_facets_are_positivity(self):
        rep = ns_hrep(CHSH)
        assert len(rep.facets) == 16
        assert all(is_trivial_for_ns(f) for f in rep.facets)

    def test_lp_max_of_ch_over_ns(self):
        assert lp_max(ch(), ns_hrep(CHSH)) == F(1, 2)

    def test_trivial_detection(self):
        assert not is_trivial_for_ns(ch())


def _lp_verdict(ineq):
    canon = ineq.canonical_scaled()
    return lp_max(canon, ns_hrep(canon.scenario)) <= canon.bound


@pytest.fixture(scope="module")
def a_priori_facets():
    return enumerate_facets(local_polytope(CHSH.with_no_detection()))


class TestNsVertices:
    @pytest.mark.parametrize(
        "scenario, count",
        [(CHSH, 24), (THREE_INPUT_PS, 128),
         (CHSH.with_no_detection(), 1161), (THREE_INPUT_L0, 1512)],
    )
    def test_vertex_counts(self, scenario, count):
        assert len(_ns_vertices(scenario).rays) == count

    @pytest.mark.parametrize("scenario", [CHSH, THREE_INPUT_PS])
    def test_vertices_give_back_the_hrep(self, scenario):
        vertices = [
            [F(v, ray[0]) for v in ray[1:]] for ray in _ns_vertices(scenario).rays
        ]
        keys = {coeffs + (rhs,) for coeffs, rhs in facets_of_polytope(vertices)}
        assert keys == {f.key() for f in ns_hrep(scenario).facets}

    def test_verdicts_match_the_lp(self, a_priori_facets):
        s0 = CHSH.with_no_detection()
        sample = random.Random(8).sample(a_priori_facets, 60)
        checked = sample + list(ns_hrep(s0).facets)
        verdicts = [is_trivial_for_ns(f) for f in checked]
        assert verdicts == [_lp_verdict(f) for f in checked]
        assert False in verdicts and True in verdicts

    def test_non_ns_witness_raises(self, monkeypatch):
        ns = _ns_vertices(CHSH)
        # A point far outside NS that maximizes CH over the patched list.
        bad = (1,) + tuple(100 * c for c in ch().key()[:-1])
        rays = ns.rays + (bad,)
        patched = ns._replace(rays=rays, matrix=exact_matrix(rays))
        monkeypatch.setattr(pslocal.polytope, "_ns_vertices", lambda s: patched)
        with pytest.raises(CertificateInvalid):
            is_trivial_for_ns(ch())

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficients_beyond_int64(self, sign):
        # Coprime key (c, 0, ..., 0, 1) with |c| > 2**63: the product runs
        # in Python ints (the int64 bound fails).
        c = sign * (2 ** 63 + 1)
        ineq = Inequality(CHSH, (c,) + (0,) * 7, bound=1)
        assert ineq.key() == (c,) + (0,) * 7 + (1,)
        assert is_trivial_for_ns(ineq) == _lp_verdict(ineq) == (sign < 0)
