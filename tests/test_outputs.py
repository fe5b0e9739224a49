"""The promised outputs, recomputed and compared with their pinned
digests in ``data/outputs.json`` (written by ``tools/pin_outputs.py``)."""

import importlib.util
import json
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "pin_outputs", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pin_outputs.py")
)
pin_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pin_outputs)

with open(pin_outputs.PINS) as _f:
    PINNED = json.load(_f)


def test_every_output_is_pinned():
    names = [" ".join(args) for args in pin_outputs.COMMANDS] + [pin_outputs.VERIFICATION]
    assert sorted(names) == sorted(PINNED["digests"])


@pytest.mark.parametrize("args", pin_outputs.COMMANDS, ids=" ".join)
def test_command_output_is_unchanged(args):
    assert pin_outputs.command_digest(args) == PINNED["digests"][" ".join(args)]


def test_verification_report_is_unchanged():
    digest, floats, summary = pin_outputs.verification()
    assert summary == {"verified": 8, "failed": 0, "skipped": 0}
    assert summary == PINNED["summary"]
    assert digest == PINNED["digests"][pin_outputs.VERIFICATION]
    assert floats.keys() == PINNED["floats"].keys()
    for name, value in floats.items():
        assert abs(value - PINNED["floats"][name]) < pin_outputs.FLOAT_TOLERANCE, name
