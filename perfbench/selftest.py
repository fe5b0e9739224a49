"""Self-test of the benchmark's oracles: each accepts a real answer from
pslocal and rejects the same answer with its verdict flipped.

    python3 perfbench/selftest.py

Takes about ten seconds; exits 1 if any oracle fails to tell them apart.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
from pslocal import core, inequalities, polytope, psfacets  # noqa: E402

F = Fraction
failures = []


def expect(label: str, problems, should_pass: bool) -> None:
    ok = (not problems) == should_pass
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problems[:1] if problems else 'accepted'}")
    if not ok:
        failures.append(label)


def membership(ref: dict) -> None:
    poly = polytope.local_polytope(core.CHSH.with_no_detection())
    oracle = oracles.MembershipOracle(ref, [v.coords for v in poly.vertices])
    pr = core.named_correlation("PR")
    for a in (F(1, 2), F(9, 10)):
        cert = polytope.is_ps_local(pr, core.Efficiencies.of(a, a))
        expect(f"membership PR at {a}", oracle.check(pr.p, a, a, cert, True), True)
        flipped = polytope.MembershipCertificate(
            inside=not cert.inside, weights=cert.weights, separator=cert.separator
        )
        expect(f"membership PR at {a}, flipped", oracle.check(pr.p, a, a, flipped, True), False)
        if cert.inside:
            # Move one vertex's weight to the next vertex: still convex,
            # but no longer reconstructs the query.
            w = list(cert.weights)
            i = next(k for k, v in enumerate(w) if v)
            w[(i + 1) % len(w)] += w[i]
            w[i] = F(0)
            bad = dataclasses.replace(cert, weights=tuple(w))
        else:
            sep = cert.separator
            negated = dataclasses.replace(
                sep, coeffs=tuple(-c for c in sep.coeffs), offset=-sep.offset
            )
            bad = dataclasses.replace(cert, separator=negated)
        expect(f"membership PR at {a}, bad certificate",
               oracle.check(pr.p, a, a, bad, False), False)


def enumerate_census(ref: dict) -> None:
    s0 = core.CHSH.with_no_detection()
    facets = [inequalities.inequality_from_key(s0, tuple(k))
              for f in oracles.FAMILIES for k in ref[f]]
    keys = [f.key() for f in facets]
    orbits = [(o["representative"].key(), o["size"]) for o in psfacets._orbit_census(facets)]
    families = [ref[f] for f in oracles.FAMILIES]

    def check(k, o):
        return oracles.check_enumeration(k, o, oracles.L0_ORBITS, ref["l0_digest"], families)

    expect("enumerate census", check(keys, orbits), True)
    expect("enumerate, one facet missing", check(keys[1:], orbits), False)
    merged = [(orbits[0][0], orbits[0][1] + orbits[1][1])] + orbits[2:]
    expect("enumerate, two orbits merged", check(keys, merged), False)
    by_size = sorted(orbits, key=lambda o: o[1])
    # Swap the representatives of the positivity orbit (36) and the CGLMP
    # orbit (432): the sizes still match, the families no longer do.
    swapped = [(by_size[-1][0], by_size[0][1])] + by_size[1:-1] + [(by_size[0][0], by_size[-1][1])]
    expect("enumerate, orbits credited to the wrong families", check(keys, swapped), False)


def classify(ref: dict) -> None:
    oracle = oracles.ClassifyOracle(ref)
    s0 = core.CHSH.with_no_detection()
    eff = core.Efficiencies.of(F(9, 10), F(9, 10))
    picks = [ref["positivity"][0], ref["ch"][0], ref["cglmp"][0]]
    derived = []
    for key in picks:
        facet = inequalities.inequality_from_key(s0, tuple(key))
        result = psfacets.lift_functional(facet, eff).canonical_scaled()
        derived.append(psfacets.DerivedInequality(
            facet, result, psfacets.classify(result, eff), 1
        ))
    expect("classify derived forms", oracle.check_derived(derived, 3), True)
    for i, d in enumerate(derived):
        other = (psfacets.Classification.OTHER
                 if d.classification == psfacets.Classification.TRIVIAL
                 else psfacets.Classification.TRIVIAL)
        flipped = derived[:i] + [dataclasses.replace(d, classification=other)] + derived[i + 1:]
        expect(f"classify derived form {i}, flipped", oracle.check_derived(flipped, 3), False)
    for key in picks[:2]:
        facet = inequalities.inequality_from_key(s0, tuple(key))
        verdict = polytope.is_trivial_for_ns(facet)
        expect(f"NS-triviality {verdict}", oracle.check_ns_trivial(facet.key(), verdict), True)
        expect(f"NS-triviality {verdict}, flipped",
               oracle.check_ns_trivial(facet.key(), not verdict), False)
    a = F(4, 5)
    expect("facet check at 4/5", oracle.check_facet({"valid": True, "is_facet": True}, a, a), True)
    expect("facet check at 4/5, flipped",
           oracle.check_facet({"valid": True, "is_facet": False}, a, a), False)


def main() -> int:
    ref = oracles.load_reference()
    membership(ref)
    enumerate_census(ref)
    classify(ref)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
