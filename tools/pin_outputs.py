"""Pin the outputs that pslocal promises to keep, as digests.

    python3 tools/pin_outputs.py

rewrites ``tests/data/outputs.json``, which ``tests/test_outputs.py``
recomputes and compares.  Each digest is the sha256 of the JSON as the
CLI writes it (``indent=1, sort_keys=True, default=str``), for every
command line in ``COMMANDS`` and for ``run_verification(None)``.  The four
float fields of the verification report (``circle_max`` at three pairs
and ``tsirelson``) are taken out of its digest and pinned as values, to
be compared within ``FLOAT_TOLERANCE``.  A change that alters an output
on purpose re-pins it and says which outputs changed, and why.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(ROOT, "tests", "data", "outputs.json")
FLOAT_TOLERANCE = 1e-9

_PAIRS = [("1/2", "1/2"), ("7/10", "19/20"), ("19/20", "19/20")]
_CHSH_ND = json.dumps(
    {"mA": 2, "mB": 2, "nA": 2, "nB": 2, "no_detection_A": True, "no_detection_B": True},
    sort_keys=True,
)
COMMANDS = (
    [["slice", "--etaA", a, "--etaB", b, "--grid", "5"] for a, b in _PAIRS]
    + [
        ["figure", "--figure", str(f), "--etaA", a, "--etaB", b, "--grid", "5"]
        for f in (1, 2, 3)
        for a, b in _PAIRS
    ]
    + [["facets"], ["facets", "--scenario", _CHSH_ND]]
    + [["derive", "--etaA", a, "--etaB", b] for a, b in _PAIRS[1:]]
    + [
        ["membership", "--corr", corr, "--etaA", a, "--etaB", b]
        for corr in ("pr", "r")
        for a, b in (("2/3", "2/3"), ("7/10", "19/20"))
    ]
)
VERIFICATION = "run_verification(None)"


def digest(payload) -> str:
    text = json.dumps(payload, indent=1, default=str, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def command_digest(args: list) -> str:
    """The digest of one command line's JSON output; it must exit 0."""
    from click.testing import CliRunner

    from pslocal.cli import main

    result = CliRunner().invoke(main, args)
    if result.exit_code != 0:
        raise RuntimeError(f"{' '.join(args)} exited {result.exit_code}: {result.output}")
    return digest(json.loads(result.stdout))


def verification() -> tuple:
    """(digest, float fields, summary) of `run_verification(None)`: the
    digest is taken with the float fields set to None."""
    from pslocal.cli import run_verification

    report = copy.deepcopy(run_verification(None))
    floats = {}
    for claim in report["claims"]:
        if claim["id"] == "quantum-closed-forms" and claim["status"] == "verified":
            values = claim["values"]
            for eta in sorted(values["circle_max"]):
                floats[f"circle_max {eta}"] = values["circle_max"][eta]
                values["circle_max"][eta] = None
            floats["tsirelson"], values["tsirelson"] = values["tsirelson"], None
    return digest(report), floats, report["summary"]


def pins() -> dict:
    verified, floats, summary = verification()
    digests = {" ".join(args): command_digest(args) for args in COMMANDS}
    digests[VERIFICATION] = verified
    return {"digests": digests, "floats": floats, "summary": summary}


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.dirname(PINS), exist_ok=True)
    with open(PINS, "w") as f:
        json.dump(pins(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
