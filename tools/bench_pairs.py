"""Paired benchmark runs of two commits, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_11.json --seed 1 --seed 11

PARENT and CHANGE are git revisions of this repository.  Each is
extracted with ``git archive`` into a temporary directory, and
``perfbench/run.py --workload all`` runs there unchanged, so each side
measures its own sources with its own benchmark code, for the
``run_seconds`` that BENCHMARK.json fixes.  For every seed the script runs
PARENT and CHANGE in ten pairs, alternating which side runs first, and
records every run.

A run that fails (a non-zero exit) is recorded with its exit code and
the tail of its stderr.  The summary gives, per seed, each side's failed
operations and failed runs, and how many of those failed runs died on a
timed pass too short for one speed sample (``no_speed_sample_runs``: the
benchmark's own defect, apart from a failure of the program), and, per
workload and end-to-end metric, each
side's median and quartiles over the pairs in which both runs succeeded
and the number of those pairs the change won (ties count for neither
side).  ``gain`` holds when the change won at least nine tenths of the
pairs and its median beats the parent's by more than the parent's
interquartile range; ``within_bound`` when the change's median is no
worse than the parent's by more than the relative bound that
BENCHMARK.json fixes for the metric.

After each side's benchmark run, one fresh ``python -m pslocal.cli
verify-paper`` runs in that side's tree (its ``src`` on ``PYTHONPATH``, one
BLAS thread), and its wall time, exit code and the sha256 of its stdout
are recorded.  Per seed, ``verify_paper`` summarizes the wall times of the
pairs in which both sides exited 0 (median, quartiles and the change's
wins, with no bound), each side's runs that exited non-zero, and
``output_changed``: whether the two sides' stdout digests ever differ.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10
# What a run's stderr ends with when perfbench takes the median of no
# speed samples.
NO_SPEED_SAMPLE = "no median for empty data"


def extract(rev: str, dest: str) -> str:
    """The tree of ``rev`` written to ``dest``; returns its full hash."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(tree: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --workload all`` run: its last JSON line,
    metrics regrouped as {workload: {metric: value}}.  A run that exits
    non-zero or prints nothing is recorded by its exit code and the tail
    of its stderr, without metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
    out = json.loads(lines[-1])
    metrics: dict = {}
    for key, m in out["metrics"].items():
        workload, metric = key.split(".", 1)
        metrics.setdefault(workload, {})[metric] = m["value"]
    return {"exit_code": 0, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}


def verify_paper_once(tree: str) -> dict:
    """One fresh ``verify-paper`` run in ``tree``: its wall time, exit code
    and the sha256 of its stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update((var, "1") for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pslocal.cli", "verify-paper"], cwd=tree, env=env, capture_output=True
    )
    return {
        "wall_s": time.perf_counter() - start,
        "exit_code": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
    }


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, spec: dict) -> dict:
    """Failed operations and failed runs of each side (and, of those, the
    runs with no speed sample), and per workload and metric both sides'
    spread and the change's wins over the pairs in which both runs
    succeeded."""
    summary: dict = {
        "failed": {side: sum(r[side].get("failed", 0) for r in runs) for side in SIDES},
        "failed_runs": {side: sum("metrics" not in r[side] for r in runs) for side in SIDES},
        "no_speed_sample_runs": {
            side: sum(NO_SPEED_SAMPLE in r[side].get("stderr_tail", "") for r in runs)
            for side in SIDES
        },
    }
    ok = [r for r in runs if all("metrics" in r[side] for side in SIDES)]
    if len(ok) < 2:  # no spread to take
        return summary
    for workload, metrics in ok[0]["parent"]["metrics"].items():
        for metric in metrics:
            lower = spec[metric]["better"] == "lower"
            entry = compare({side: [r[side]["metrics"][workload][metric] for r in ok] for side in SIDES}, lower)
            gain = (1 if lower else -1) * (entry["parent"]["median"] - entry["change"]["median"])
            parent = entry["parent"]
            entry["gain"] = entry["change_wins"] >= 0.9 * len(ok) and gain > parent["q3"] - parent["q1"]
            entry["within_bound"] = -gain <= spec[metric]["bound"] * parent["median"]
            summary.setdefault(workload, {})[metric] = entry
    return summary


def compare(values: dict, lower: bool = True) -> dict:
    """Both sides' spread over paired values, and the pairs the change won
    (ties count for neither side)."""
    sign = 1 if lower else -1
    wins = sum(1 for p, c in zip(values["parent"], values["change"]) if sign * (p - c) > 0)
    return {
        "parent": spread(values["parent"]),
        "change": spread(values["change"]),
        "change_wins": wins,
        "pairs": len(values["parent"]),
    }


def summarize_verify_paper(runs: list) -> dict:
    """The ``verify_paper`` summary of one seed's pairs (see the module
    docstring)."""
    fresh = [{side: r[side]["verify_paper"] for side in SIDES} for r in runs]
    ok = [f for f in fresh if all(f[side]["exit_code"] == 0 for side in SIDES)]
    summary = {
        "failed_runs": {side: sum(f[side]["exit_code"] != 0 for f in fresh) for side in SIDES},
        "output_changed": any(f["parent"]["stdout_sha256"] != f["change"]["stdout_sha256"] for f in fresh),
    }
    if len(ok) >= 2:
        summary["wall_s"] = compare({side: [f[side]["wall_s"] for f in ok] for side in SIDES})
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    work = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        trees = {side: os.path.join(work, side) for side in SIDES}
        revs = {side: extract(getattr(args, side), trees[side]) for side in SIDES}
        runs, summary = {}, {}
        for seed in args.seed:
            runs[seed] = []
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    run = pair[side] = run_once(trees[side], seed, seconds)
                    run["verify_paper"] = verify_paper_once(trees[side])
                    status = f"{run['failed']} failed" if "metrics" in run else f"exited {run['exit_code']}"
                    print(f"seed {seed} pair {i + 1}/{PAIRS} {side}: {status}", file=sys.stderr)
                runs[seed].append(pair)
            summary[seed] = summarize(runs[seed], spec)
            summary[seed]["verify_paper"] = summarize_verify_paper(runs[seed])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "command": "perfbench/run.py --workload all --trace 0",
        "seconds": seconds,
        "parent": revs["parent"],
        "change": revs["change"],
        "summary": summary,
        "runs": runs,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
