"""The pslocal names that the benchmark in `perfbench/` resolves.

`perfbench/tracer.py` looks up every traced function by name, with no
default, and the workloads and the oracle self-test call pslocal through
module attributes.  A name removed or renamed in `src/` would fail a
benchmark run; here it fails a test instead.
"""

import ast
import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
sys.path.insert(0, PERFBENCH)
import tracer  # noqa: E402  (stdlib only)

sys.path.remove(PERFBENCH)


def _called_names(filename: str) -> set:
    """(module, attr) for each `from pslocal import m` module used as
    `m.attr`, and for each `from pslocal.m import attr`."""
    with open(os.path.join(PERFBENCH, filename)) as fh:
        tree = ast.parse(fh.read())
    modules = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pslocal":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"pslocal.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pslocal."):
            names.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.add((modules[node.value.id], node.attr))
    return names


CALLED = _called_names("workloads.py") | _called_names("selftest.py")


@pytest.mark.parametrize("module, attr", sorted(CALLED | {t[:2] for t in tracer.TARGETS}))
def test_name_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_scan_finds_the_called_names():
    for attr in ("is_trivial_for_ns", "is_ps_local", "enumerate_facets"):
        assert ("pslocal.polytope", attr) in CALLED
    for attr in ("_orbit_census", "derive", "ps_facet_check", "lift_functional", "classify"):
        assert ("pslocal.psfacets", attr) in CALLED
    assert ("pslocal.inequalities", "inequality_from_key") in CALLED
