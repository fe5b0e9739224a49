"""Span tracing of pslocal's layers, installed from outside the package.

Each traced function is replaced by a wrapper at *every* module binding
that refers to it: pslocal modules import each other's functions by name
(``from .linprog import solve_equality_form``), so patching only the
defining module would miss most callers.  A span records its name, its
parent span, its start and end, and a few counts taken from the call's
arguments and result.  Spans stay in memory; :meth:`Tracer.dump` writes
them out when the run ends.

Self time of a span is its duration minus the time covered by its direct
children.  Calls to ``linprog.solve_equality_form`` are split by call site:
the nearest enclosing span among the sites below names the LP mode.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional


def _lp_counts(args, kwargs, result) -> dict:
    A, c = args[0], args[2]
    return {"cells": len(A) * len(c), "infeasible": int(result.status == "infeasible")}


def _dd_counts(args, kwargs, result) -> dict:
    return {"rows_in": len(args[0]), "rays_out": len(result)}


def _orbit_counts(args, kwargs, result) -> dict:
    return {"keys": len(result)}


def _membership_counts(args, kwargs, result) -> dict:
    return {"inside": int(result.inside), "outside": int(not result.inside)}


# (defining module, attribute, span name, count extractor).  Spans that no
# per-layer metric reports still attribute LP calls to their call site and
# count toward trace.layer_share_pct.
TARGETS = [
    ("pslocal.linprog", "solve_equality_form", "linprog.solve_equality_form", _lp_counts),
    ("pslocal.linprog", "maximize_over_hrep", "linprog.maximize_over_hrep", None),
    ("pslocal.dd", "extreme_rays", "dd.extreme_rays", _dd_counts),
    ("pslocal.inequalities", "orbit_key_set", "inequalities.orbit_key_set", _orbit_counts),
    ("pslocal.core", "lift", "core.lift", None),
    ("pslocal.polytope", "membership", "polytope.membership", _membership_counts),
    ("pslocal.polytope", "lp_max", "polytope.lp_max", None),
    ("pslocal.polytope", "enumerate_facets", "polytope.enumerate_facets", None),
    ("pslocal.psfacets", "lift_functional", "psfacets.lift_functional", None),
    ("pslocal.psfacets", "classify", "psfacets.classify", None),
    ("pslocal.psfacets", "derive", "psfacets.derive", None),
    ("pslocal.psfacets", "ps_facet_check", "psfacets.ps_facet_check", None),
    ("pslocal.quantum", "correlation", "quantum.correlation", None),
    ("pslocal.quantum", "rationalize", "quantum.rationalize", None),
]

# Enclosing span -> LP call-site label for solve_equality_form.
LP_SITES = {
    "polytope.membership": "membership",
    "linprog.maximize_over_hrep": "hrep",
    "psfacets.ps_facet_check": "ps_face",
}

# Per-layer metrics reported from a traced run: name -> (span, stat).
# Stats are "calls", "self_s", "failed" or a count recorded by the span.
LAYER_METRICS: Dict[str, tuple] = {}
for _site in ("membership", "hrep", "ps_face", "other"):
    _span = f"linprog.{_site}"
    for _stat in ("calls", "self_s", "cells") + (("infeasible",) if _site == "membership" else ()):
        LAYER_METRICS[f"{_span}.{_stat}"] = (_span, _stat)
for _span, _stats in (
    ("dd.extreme_rays", ("calls", "self_s", "rows_in", "rays_out")),
    ("inequalities.orbit_key_set", ("calls", "self_s", "keys")),
    ("psfacets.lift_functional", ("calls", "self_s")),
    ("psfacets.classify", ("calls", "self_s")),
    ("psfacets.derive", ("calls", "self_s")),
    ("psfacets.ps_facet_check", ("calls", "self_s")),
    ("polytope.membership", ("calls", "self_s", "inside", "outside")),
    ("core.lift", ("calls", "self_s")),
    ("quantum.correlation", ("calls", "self_s")),
    ("quantum.rationalize", ("calls", "self_s", "failed")),
):
    for _stat in _stats:
        LAYER_METRICS[f"{_span}.{_stat}"] = (_span, _stat)


class Tracer:
    """Records nested spans around the wrapped functions."""

    def __init__(self) -> None:
        # Each span: [name, parent index or -1, start, end, counts, failed].
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, counts: Optional[dict], failed: bool) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[4] = counts
        span[5] = failed
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a root span of the benchmark's own."""
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, None, True)
            raise
        self._close(idx, None, False)
        return result

    def _wrap(self, fn: Callable, name: str, counter) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, None, True)
                raise
            counts = counter(args, kwargs, result) if counter else None
            tracer._close(idx, counts, False)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded pslocal module."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "pslocal" or n.startswith("pslocal."))
        ]
        for mod_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def _site_name(self, idx: int) -> str:
        name = self.spans[idx][0]
        if name != "linprog.solve_equality_form":
            return name
        parent = self.spans[idx][1]
        while parent >= 0:
            site = LP_SITES.get(self.spans[parent][0])
            if site:
                return f"linprog.{site}"
            parent = self.spans[parent][1]
        return "linprog.other"

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, failed, self_s and summed counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[3] - span[2]
        stats: Dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            entry = stats.setdefault(
                self._site_name(idx), {"calls": 0, "failed": 0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["failed"] += int(span[5])
            entry["self_s"] += span[3] - span[2] - child_time[idx]
            for key, value in (span[4] or {}).items():
                entry[key] = entry.get(key, 0) + value
        return stats

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(s[3] - s[2] for s in self.spans if s[1] < 0)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start", "end", "counts", "failed"],
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(stats: Dict[str, dict]) -> Dict[str, float]:
    """The per-layer metric values named in LAYER_METRICS (0 when unused)."""
    out = {}
    for metric, (span, stat) in LAYER_METRICS.items():
        out[metric] = stats.get(span, {}).get(stat, 0)
    return out
