"""Command-line frontend.

Every verb maps onto one module operation chain and emits deterministic
JSON or CSV.  Exit codes: 0 on success (a negative membership answer is
still success), 1 on domain errors and on a failed `verify-paper` claim,
2 on usage errors (also a ``--grid`` or ``--restarts`` past its cap).
L_ps in `slice` and figures 1 and 2 comes from its definition
(`psfacets.lifted_keys`); a `verify-paper` claim that overruns its budget
is ``skipped-budget``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Optional

import click

from . import core
from .core import (
    CHSH,
    Efficiencies,
    JointTable,
    Scenario,
    named_correlation,
    slice_rows,
    table_from_json,
    table_to_dict,
)
from .errors import BudgetExceeded, IdentityFailed, PslocalError
from .inequalities import ch, cglmp, orbit_key_set, thresholds
from .linprog import slacks
from . import polytope as poly
from . import psfacets
from . import quantum

_NAMED = {"pr": "PR", "pr2": "PR'", "pr'": "PR'", "r": "r", "s": "s"}


_BUDGET_PART = r"(\d+(?:\.\d+)?)([hms]?)"


def _parse_budget(text: Optional[str]) -> Optional[float]:
    """Seconds in a budget such as "90", "10s", "2m" or "1h30m"."""
    if text is None:
        return None
    if not re.fullmatch(f"(?:{_BUDGET_PART})+", text):
        raise click.UsageError(f"cannot parse budget {text!r}")
    total = 0.0
    for amount, unit in re.findall(_BUDGET_PART, text):
        total += float(amount) * {"h": 3600, "m": 60, "s": 1, "": 1}[unit]
    if total <= 0:
        raise click.UsageError(f"cannot parse budget {text!r}")
    return total


def _load_corr(spec: str) -> JointTable:
    if spec.lower() in _NAMED:
        return named_correlation(_NAMED[spec.lower()])
    with open(spec) as fh:
        return table_from_json(fh.read())


def _load_scenario(spec: Optional[str]) -> Scenario:
    if spec is None:
        return CHSH
    if os.path.exists(spec):
        with open(spec) as fh:
            return Scenario.from_dict(json.load(fh))
    return Scenario.from_dict(json.loads(spec))


def _emit(payload, out: Optional[str], fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=1, default=str, sort_keys=True)
    else:
        buf = io.StringIO()
        rows = payload if isinstance(payload, list) else [payload]
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: str(v) for k, v in row.items()})
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text)


def _eff(etaA, etaB) -> Efficiencies:
    return Efficiencies.of(etaA, etaB)


common_out = [
    click.option("--out", default=None, help="write output to a file"),
    click.option(
        "--format", "fmt", type=click.Choice(["json", "csv"]), default="json"
    ),
]


def _with(options):
    def deco(f):
        for opt in reversed(options):
            f = opt(f)
        return f

    return deco


@click.group()
def main():
    """Exact tools for Bell local polytopes under post-selection."""


def _domain_errors(f):
    import functools

    @functools.wraps(f)
    def wrapped(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (PslocalError, ValueError, OSError) as exc:
            click.echo(
                json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                err=True,
            )
            sys.exit(1)

    return wrapped


@main.command()
@click.option("--scenario", "scenario_spec", default=None)
@_with(common_out)
@_domain_errors
def vertices(scenario_spec, out, fmt):
    """Count and list the deterministic vertices of the local polytope."""
    s = _load_scenario(scenario_spec)
    verts = poly.enumerate_vertices(s)
    payload = {
        "scenario": s.to_dict(),
        "count": len(verts),
        "strategies": [
            {"alice": list(v.strategy_A), "bob": list(v.strategy_B)}
            for v in verts
        ],
    }
    _emit(payload, out, fmt)


@main.command()
@click.option("--scenario", "scenario_spec", default=None)
@click.option("--budget", default=None, help="wall-clock cap, e.g. 10m")
@_with(common_out)
@_domain_errors
def facets(scenario_spec, budget, out, fmt):
    """Enumerate all facets of the local polytope of a scenario."""
    s = _load_scenario(scenario_spec)
    found = poly.enumerate_facets(poly.local_polytope(s), _parse_budget(budget))
    payload = {
        "scenario": s.to_dict(),
        "count": len(found),
        "facets": [f.to_dict() for f in found],
    }
    _emit(payload, out, fmt)


@main.command()
@click.option("--corr", required=True, help="correlation file or named table")
@click.option("--etaA", "etaA", required=True)
@click.option("--etaB", "etaB", required=True)
@_with(common_out)
@_domain_errors
def membership(corr, etaA, etaB, out, fmt):
    """Decide post-selected locality of a correlation, with certificate."""
    table = _load_corr(corr)
    cert = poly.is_ps_local(table, _eff(etaA, etaB))
    payload = {"inside": cert.inside}
    if cert.inside:
        payload["weights"] = [str(w) for w in cert.weights]
    else:
        payload["separator"] = cert.separator.to_dict()
    _emit(payload, out, fmt)


@main.command()
@click.option("--corr", required=True)
@click.option("--etaA", "etaA", required=True)
@click.option("--etaB", "etaB", required=True)
@_with(common_out)
@_domain_errors
def lift(corr, etaA, etaB, out, fmt):
    """The unique a-priori table post-selecting to a given correlation."""
    table = core.lift(_load_corr(corr), _eff(etaA, etaB))
    _emit(table_to_dict(table), out, fmt)


@main.command()
@click.option("--corr", required=True)
@click.option("--etaA", "etaA", required=True)
@click.option("--etaB", "etaB", required=True)
@_with(common_out)
@_domain_errors
def postselect(corr, etaA, etaB, out, fmt):
    """Condition an a-priori table on both detectors firing."""
    table = core.postselect(_load_corr(corr), _eff(etaA, etaB))
    _emit(table_to_dict(table), out, fmt)


@main.command()
@click.option("--etaA", "etaA", required=True)
@click.option("--etaB", "etaB", required=True)
@click.option("--budget", default=None)
@_with(common_out)
@_domain_errors
def derive(etaA, etaB, budget, out, fmt):
    """Derive and classify all post-selected inequalities from the
    a-priori facets of the 2-input scenario."""
    eff = _eff(etaA, etaB)
    s0 = CHSH.with_no_detection()
    l0_facets = poly.enumerate_facets(
        poly.local_polytope(s0), _parse_budget(budget)
    )
    derived = psfacets.derive(eff, l0_facets)
    payload = {
        "etaA": str(eff.etaA),
        "etaB": str(eff.etaB),
        "source_facets": len(l0_facets),
        "census": psfacets.classification_census(derived),
        "inequalities": [
            {
                "classification": d.classification.value,
                "multiplicity": d.multiplicity,
                "result": d.result.to_dict(),
            }
            for d in derived
        ],
    }
    _emit(payload, out, fmt)


# Caps on the work one command may ask for.  A grid's rows and slacks
# grow with grid**2: slice and figure 1 peaked at 565 MB of RSS at grid
# 201 (CPython 3.11, numpy 2.4, x86-64).
GRID_MAX = 201
RESTARTS_MAX = 4096
_GRID = click.IntRange(1, GRID_MAX)


@main.command()
@click.option("--grid", type=_GRID, default=41, show_default=True)
@_with(common_out)
@_domain_errors
def regions(grid, out, fmt):
    """Facet-region classification over an efficiency grid."""
    _emit(emit_figure_data(3, None, grid), out, fmt)


@main.command(name="slice")
@click.option("--etaA", "etaA", required=True)
@click.option("--etaB", "etaB", required=True)
@click.option("--grid", type=_GRID, default=41, show_default=True)
@_with(common_out)
@_domain_errors
def slice_cmd(etaA, etaB, grid, out, fmt):
    """Membership maps over the 2-D slice through both PR boxes."""
    _emit(_slice_rows(_eff(etaA, etaB), grid), out, fmt)


def _lps_keys(eff: Efficiencies) -> list:
    """Keys of L_ps(eff) in the 2-input scenario, by its definition: the
    distinct lifts of the a-priori local polytope's facets."""
    return list(psfacets.lifted_keys(eff, poly.local_facets(CHSH.with_no_detection())))


def _slice_rows(eff: Efficiencies, grid: int):
    """Membership of the slice's grid points in NS, the local polytope and
    L_ps(eff), from the slacks of all three H-representations at once (the
    local and L_ps lists each imply the NS one)."""
    ticks = [Fraction(2 * i + 1 - grid, grid - 1) if grid > 1 else Fraction(0) for i in range(grid)]
    points = [(x, y) for x in ticks for y in ticks]
    ns = [f.key() for f in poly.ns_hrep(CHSH).facets]
    local = [f.key() for f in poly.local_facets(CHSH)]
    ok = slacks(ns + local + _lps_keys(eff), slice_rows(points)) >= 0
    a, b = len(ns), len(ns) + len(local)
    flags = zip(*(ok[i:j].all(axis=0).tolist() for i, j in ((0, a), (a, b), (b, None))))
    return [
        {"x": str(x), "y": str(y), "in_ns": n, "in_local": loc, "in_ps_local": ps}
        for (x, y), (n, loc, ps) in zip(points, flags)
    ]


def emit_figure_data(figure: int, eff: Optional[Efficiencies], grid: int):
    """Grid data behind the three summary figures.

    Figures 1 and 2 are slice membership maps (figure 1 adds samples of
    the quantum circle x^2 + y^2 = 1/2); figure 3 is the efficiency-region
    map.  The quantum boundary of the correlation set is not computed;
    only the circle through the slice is sampled.
    """
    if figure == 3:
        rows = []
        for i in range(grid):
            a = Fraction(1, 2) + Fraction(i, 2 * (grid - 1)) if grid > 1 else Fraction(1)
            for j in range(grid):
                b = Fraction(1, 2) + Fraction(j, 2 * (grid - 1)) if grid > 1 else Fraction(1)
                rep = psfacets.region_classify(Efficiencies.of(a, b))
                rows.append(
                    {
                        "etaA": str(a),
                        "etaB": str(b),
                        "region": rep.region.value,
                        "above_dashed_curve": rep.lower_ns_violable,
                    }
                )
        return rows
    if figure in (1, 2):
        rows = _slice_rows(eff, grid)
        if figure == 1:
            phis = (2 * math.pi * k / 64 for k in range(64))
            xy = [(math.cos(phi) / math.sqrt(2), math.sin(phi) / math.sqrt(2)) for phi in phis]
            near = [tuple(Fraction(c).limit_denominator(10 ** 9) for c in p) for p in xy]
            inside = (slacks(_lps_keys(eff), slice_rows(near)) >= 0).all(axis=0).tolist()
            rows = {"grid": rows, "quantum_circle_samples": [
                {"x": f"{cx:.12f}", "y": f"{cy:.12f}", "on_quantum_circle": True, "in_ps_local": v}
                for (cx, cy), v in zip(xy, inside)
            ]}
        return rows
    raise click.UsageError("figure must be 1, 2 or 3")


@main.command()
@click.option("--figure", type=int, required=True)
@click.option("--etaA", "etaA", default="1")
@click.option("--etaB", "etaB", default="1")
@click.option("--grid", type=_GRID, default=41, show_default=True)
@_with(common_out)
@_domain_errors
def figure(figure, etaA, etaB, grid, out, fmt):
    """Emit the data grid behind one of the summary figures."""
    _emit(emit_figure_data(figure, _eff(etaA, etaB), grid), out, fmt)


@main.command(name="quantum")
@click.option("--etaA", "etaA", required=True)
@click.option("--etaB", "etaB", required=True)
@click.option("--seed", type=int, default=20240817, show_default=True)
@click.option("--restarts", type=click.IntRange(1, RESTARTS_MAX), default=64, show_default=True)
@_with(common_out)
@_domain_errors
def quantum_cmd(etaA, etaB, seed, restarts, out, fmt):
    """Search for quantum violations and report slice-circle values."""
    eff = _eff(etaA, etaB)
    payload = {
        "etaA": str(eff.etaA),
        "etaB": str(eff.etaB),
        "circle_max": quantum.circle_max(eff),
    }
    t = thresholds(eff)
    if t.upper_nontrivial:
        scan = quantum.eberhard_scan(eff, restarts=restarts, seed=seed)
        payload["scan"] = {
            "best_value": scan["best_value"],
            "violation_found": scan["violation_found"],
        }
    else:
        payload["scan"] = {
            "skipped": "no violation possible at these efficiencies"
        }
    if eff.etaA == 1 and Fraction(1, 2) < eff.etaB < 1:
        payload["one_sided_three_input"] = quantum.appendix_b_values(
            float(eff.etaB)
        )
    _emit(payload, out, fmt)


@main.command(name="verify-paper")
@click.option("--budget", default="30m", show_default=True)
@_with(common_out)
@_domain_errors
def verify_paper(budget, out, fmt):
    """Machine-checkable report over every reproduced claim (exit 1 if one failed)."""
    report = run_verification(_parse_budget(budget))
    _emit(report, out, fmt)
    sys.exit(1 if report["summary"]["failed"] else 0)


def run_verification(budget_seconds: Optional[float] = None) -> dict:
    """Execute the whole verification pipeline and collect a claim report."""
    deadline = time.monotonic() + budget_seconds if budget_seconds else None
    claims = []

    def record(claim_id, fn):
        """Run one claim: verified, failed, or skipped-budget when the
        deadline has passed or the claim raises `BudgetExceeded`."""
        claim = {"id": claim_id, "status": "skipped-budget"}
        if deadline is None or time.monotonic() <= deadline:
            try:
                claim.update(status="verified", values=fn())
            except BudgetExceeded:
                pass
            except Exception as exc:
                claim.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        claims.append(claim)

    def vertex_censuses():
        return {
            "chsh": len(poly.enumerate_vertices(CHSH)),
            "chsh_no_detection": len(
                poly.enumerate_vertices(CHSH.with_no_detection())
            ),
            "three_input_no_detection": len(
                poly.enumerate_vertices(
                    Scenario(3, 2, 2, 2, no_detection_A=True, no_detection_B=True)
                )
            ),
        }

    record("vertex-censuses-16-81-243", vertex_censuses)

    def chsh_facets():
        fs = poly.local_facets(CHSH)
        trivial = {f.key() for f in poly.ns_hrep(CHSH).facets}
        return {
            "total": len(fs),
            "trivial": sum(1 for f in fs if f.key() in trivial),
            "ch_orbit": len(orbit_key_set(ch())),
        }

    record("chsh-local-24-facets", chsh_facets)

    def l0_census():
        s0 = CHSH.with_no_detection()
        fs = poly.local_facets(s0)
        trivial = {f.key() for f in poly.ns_hrep(s0).facets}
        cglmp_orbit = orbit_key_set(cglmp())
        n_trivial = sum(1 for f in fs if f.key() in trivial)
        n_cglmp = sum(1 for f in fs if f.key() in cglmp_orbit)
        return {
            "total": len(fs),
            "trivial": n_trivial,
            "chsh_like": len(fs) - n_trivial - n_cglmp,
            "cglmp": n_cglmp,
        }

    record("a-priori-1116-facets", l0_census)

    def derive_dark_gray():
        eff = Efficiencies.of("19/20", "19/20")
        derived = psfacets.derive(eff, poly.local_facets(CHSH.with_no_detection()))
        return psfacets.classification_census(derived)

    record("derived-64-forms-dark-gray", derive_dark_gray)

    def pr_threshold():
        pr = named_correlation("PR")
        rows = []
        for pair in (("2/3", "2/3"), ("7/10", "7/10"), ("1", "1/2"), ("1", "2/3")):
            eff = Efficiencies.of(*pair)
            inside = poly.is_ps_local(pr, eff).inside
            expected = eff.etaA + eff.etaB >= 3 * eff.etaA * eff.etaB
            if inside != expected:
                raise AssertionError(f"threshold mismatch at {pair}")
            rows.append({"eff": pair, "inside": inside})
        return rows

    record("pr-box-threshold", pr_threshold)

    def identities():
        eff = Efficiencies.of("4/5", "17/20")
        psfacets.verify_decompositions(eff)
        psfacets.verify_cglmp_implication(eff)
        psfacets.saturating_witnesses(Efficiencies.of("4/5", "4/5"))
        psfacets.lower_bound_witness(Efficiencies.of("19/20", "19/20"))
        return {"identities": "exact"}

    record("decomposition-identities", identities)

    def quantum_checks():
        vals = {}
        for eta in ("82/100", "83/100", "84/100"):
            vals[eta] = quantum.circle_max(Efficiencies.of(eta, eta))
        closed = quantum.appendix_b_values(0.75)
        for family in ("ch_eta", "i3223"):
            if abs(closed[f"{family}_value"] - closed[f"{family}_closed_form"]) >= 1e-9:
                raise IdentityFailed(f"{family} quantum value misses its closed form")
        scan = quantum.eberhard_scan(Efficiencies.of(1, 1), restarts=8)
        if scan["best_value"] < 1 / math.sqrt(2) - 0.5 - 1e-6:
            raise IdentityFailed("the scan fell short of the Tsirelson value")
        return {"circle_max": vals, "tsirelson": scan["best_value"]}

    record("quantum-closed-forms", quantum_checks)

    def one_sided_census():
        remaining = None
        if deadline is not None:
            remaining = max(deadline - time.monotonic(), 1.0)
        return psfacets.verify_appendix_b("9/10", remaining)

    record("one-sided-census", one_sided_census)

    summary = {
        "verified": sum(1 for c in claims if c["status"] == "verified"),
        "failed": sum(1 for c in claims if c["status"] == "failed"),
        "skipped": sum(1 for c in claims if c["status"] == "skipped-budget"),
    }
    return {"claims": claims, "summary": summary}


if __name__ == "__main__":
    main()
