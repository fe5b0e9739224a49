"""pslocal benchmark: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; pslocal is imported from ``src/``.  Every
workload runs in fresh interpreters (see worker.py) with
``PSLOCAL_CACHE_DIR`` removed and one BLAS/OpenMP thread.

``--trace 0`` prints the end-to-end metrics.  Set-up is timed in three
fresh interpreters (one that only sets up, the measured one, and another
that only sets up) and reported as their median.  The measured
interpreter then makes a fixed number of passes over the workload's
rounds, which ``--seconds`` scales (see workloads.py for what a round
is), and each distinct call is timed by its median over the passes.
Every answer is checked by an oracle independent of pslocal
(oracles.py); a wrong answer or an exception counts as a failed
operation.

The speed a shared machine gives one process drifts by up to 1.6x over
minutes.  So while the measuring interpreter runs, a helper pinned to
the same CPU times a fixed kernel that calls no pslocal code ten times
a second (speed.py), and the timings are scaled to the reference speed,
at which the kernel takes ``PROBE_REF_S``: divided by the median kernel
time over ``PROBE_REF_S``.  ``wall_ref_s`` and ``op_p50_ref_s`` are
these scaled times; the measured ones are printed beside them as
``wall_s`` and ``op_p50_s``, with the ``slowdown``.  Set-up time and
memory are reported as measured.

``--trace 1`` prints the per-layer metrics instead: two interpreters run
the same passes side by side, one untraced and one
with pslocal's layers wrapped (tracer.py); the spans go to
``.bench_trace/`` and the difference in wall time is reported as
``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric by name with its unit, and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("membership", "enumerate", "classify")
RUN_LIMIT_S = 170  # per workload, all of its workers included

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "op_p50_ref_s": "s",
    "peak_rss_mb": "MB",
}
# Time of one speed kernel (speed.kernel) at the reference speed: about
# its time on an idle core of the 2-core Xeon VM the benchmark was built
# on, where it took 1.4-2.3 ms under the usual load.
PROBE_REF_S = 0.0015


class ChildFailed(RuntimeError):
    pass



def _env() -> dict:
    env = dict(os.environ)
    env.pop("PSLOCAL_CACHE_DIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _command(workload: str, seed: int, seconds: float, mode: str, **extra) -> list:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    return cmd


def _children(commands: list, deadline: float) -> list:
    """Run worker processes side by side; return each one's JSON line."""
    procs = [
        subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for cmd in commands
    ]
    outputs = []
    try:
        for proc in procs:
            outputs.append(proc.communicate(timeout=max(1.0, deadline - time.monotonic())))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"the run exceeded {RUN_LIMIT_S}s") from exc
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    results = []
    for cmd, proc, (out, err) in zip(commands, procs, outputs):
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"{' '.join(cmd[2:])} exited {proc.returncode}:\n{err.strip()[-2000:]}")
        results.append(json.loads(lines[-1]))
    return results


def _child(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    return _children([_command(workload, seed, seconds, mode)], deadline)[0]


def _counts(res: dict) -> tuple:
    attempted = len(res["ops"])
    failed = sum(1 for op in res["ops"] if not op[2])
    return attempted, failed


def _typical(res: dict) -> dict:
    """Median timing of each distinct call over the run's passes, keyed
    "round:position"."""
    times = {}
    for kind, seconds, _, key in res["ops"]:
        times.setdefault(key, (kind, []))[1].append(seconds)
    return {key: (kind, statistics.median(ts)) for key, (kind, ts) in times.items()}


def timed(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    # Set-up samples taken before and after the measured run see different
    # phases of the machine's speed, which steadies their median.
    setups = [_child(workload, seed, seconds, "setup", deadline)["setup_s"]]
    res = _child(workload, seed, seconds, "run", deadline)
    setups.append(res["setup_s"])
    setups.append(_child(workload, seed, seconds, "setup", deadline)["setup_s"])
    typical = _typical(res)
    unit = [s for kind, s in typical.values() if kind == res["unit"]]
    attempted, failed = _counts(res)
    wall = sum(s for _, s in typical.values())
    op_p50 = statistics.median(unit)
    # How much slower than the reference speed the machine ran this run.
    slowdown = statistics.median(res["speed_samples_s"]) / PROBE_REF_S
    values = {
        "setup_s": statistics.median(setups),
        "wall_ref_s": wall / slowdown,
        "op_p50_ref_s": op_p50 / slowdown,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": res["problems"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "notes": {
            "rounds_run": res["rounds"],
            "wall_s": wall,
            "op_p50_s": op_p50,
            "slowdown": slowdown,
            "distinct_unit_calls": len(unit),
            "error_rate": failed / attempted,
        },
    }


def traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    from tracer import layer_metrics

    out_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"{workload}-seed{seed}.json")
    # The untraced baseline runs at the same time as the traced run, so
    # both see the same machine speed; each has a core of its own.
    plain, res = _children([
        _command(workload, seed, seconds, "plain"),
        _command(workload, seed, seconds, "traced", spans=spans),
    ], deadline)
    plain_wall = plain["prepare_s"] + sum(plain["round_seconds"])
    wall = res["traced_wall_s"]
    stats = res["stats"]
    layer_self = sum(v["self_s"] for k, v in stats.items() if not k.startswith("bench."))
    values = layer_metrics(stats)
    values.update(
        {
            "trace.wall_s": wall,
            "trace.overhead_s": wall - plain_wall,
            "trace.layer_share_pct": 100.0 * layer_self / wall,
        }
    )
    counts = [_counts(r) for r in (plain, res)]
    return {
        "attempted": sum(c[0] for c in counts),
        "failed": sum(c[1] for c in counts),
        "problems": plain["problems"] + res["problems"],
        "metrics": {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()},
        "notes": {"rounds": res["rounds"], "spans_file": os.path.relpath(spans, ROOT)},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Turn SIGTERM into SystemExit so that running workers are killed and
    # reaped by _children's cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "pslocal", "__init__.py")):
        print(f"pslocal sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = traced if args.trace else timed
    results = {}
    start = time.perf_counter()
    try:
        for name in selected:
            results[name] = measure(
                name, args.seed, args.seconds, time.monotonic() + RUN_LIMIT_S
            )
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:13s} {metric:34s} {m['value']:14.6g} {m['unit']}")
        for key, value in res["notes"].items():
            print(f"{name:13s} {key:34s} {value}")
        for problem in res["problems"]:
            print(f"{name:13s} FAILED: {problem}")
    print(f"elapsed {time.perf_counter() - start:.1f}s")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
