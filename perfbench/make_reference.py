"""Regenerate ``data/reference.json``, the oracle data of the benchmark.

    PYTHONPATH=src python3 perfbench/make_reference.py

Enumerates the facets of the two a-priori polytopes with pslocal itself,
so run it only on a commit whose facet census is trusted.  It refuses to
write a file whose census differs from the paper's: 1116 = 36 + 648 + 432
facets for CHSH with no-detection outcomes and 1260 for the three-input
polytope.  The file keeps the first list in full (sorted into positivity,
CH and CGLMP orbits) and only a digest of the second.
"""

from __future__ import annotations

import json
import os
import sys

from oracles import REFERENCE_FILE, key_digest


def main() -> int:
    from pslocal import CHSH, cglmp, enumerate_facets, local_polytope
    from pslocal.inequalities import THREE_INPUT_L0, orbit_key_set
    from pslocal.polytope import ns_hrep

    s0 = CHSH.with_no_detection()
    keys = [f.key() for f in enumerate_facets(local_polytope(s0))]
    positivity = {f.key() for f in ns_hrep(s0).facets}
    cglmp_orbit = orbit_key_set(cglmp())
    families = {
        "positivity": sorted(k for k in keys if k in positivity),
        "cglmp": sorted(k for k in keys if k in cglmp_orbit and k not in positivity),
    }
    families["ch"] = sorted(
        k for k in keys if k not in positivity and k not in cglmp_orbit
    )
    sizes = {name: len(v) for name, v in families.items()}
    if sizes != {"positivity": 36, "cglmp": 432, "ch": 648}:
        print(f"unexpected census {sizes}", file=sys.stderr)
        return 1
    three = [f.key() for f in enumerate_facets(local_polytope(THREE_INPUT_L0))]
    if len(three) != 1260:
        print(f"{len(three)} three-input facets, expected 1260", file=sys.stderr)
        return 1
    ref = {
        "scenario": "CHSH with a no-detection outcome on both sides",
        "key_format": "canonical coprime integers (coeffs..., rhs) of coeffs.cg <= rhs",
        **{name: [list(k) for k in v] for name, v in families.items()},
        "l0_digest": key_digest(keys),
        "three_input_digest": key_digest(three),
    }
    os.makedirs(os.path.dirname(REFERENCE_FILE), exist_ok=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}: {sizes}, 1260 three-input facets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
