"""One workload in one fresh interpreter; prints one JSON line.

Started by run.py, never directly by a user.  Modes:

``setup``   import pslocal and prepare the workload's inputs, report the
            time that took, exit;
``run``     set up, then make one pass over the workload's distinct
            rounds per ``workloads.RUN_SECONDS`` of ``--seconds`` and
            report every timed call, with the speed samples taken
            meanwhile (speed.py);
``plain``   as ``run``; the tracing-overhead baseline;
``traced``  as ``plain`` with every traced layer wrapped; writes the spans
            to ``--spans`` and reports the per-layer statistics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports pslocal, numpy, scipy)
from speed import SpeedMonitor  # noqa: E402

IMPORT_S = time.perf_counter() - _T0


def _rounds(wl, passes: int):
    """Run ``passes`` passes over the workload's distinct rounds.  Each op
    is tagged with the id of its round and its position there, so the
    repetitions of one call can be matched."""
    ops, round_seconds = [], []
    for _ in range(passes):
        for rid in range(wl.DISTINCT):
            batch = wl.round(rid)
            ops.extend((op, f"{rid}:{pos}") for pos, op in enumerate(batch))
            round_seconds.append(sum(op.seconds for op in batch))
    return ops, round_seconds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "plain", "traced"))
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer

    t = time.perf_counter()
    if tracer is not None:
        tracer.span("bench.setup", wl.prepare)
    else:
        wl.prepare()
    prepare_s = time.perf_counter() - t
    out = {"setup_s": IMPORT_S + prepare_s, "prepare_s": prepare_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    from oracles import load_reference

    wl.build_oracle(load_reference())
    monitor = SpeedMonitor() if args.mode == "run" else None
    # A fixed number of passes, so that a run's inputs and sample count do
    # not depend on the speed of the code.
    ops, round_seconds = _rounds(wl, max(1, round(args.seconds / workloads.RUN_SECONDS)))
    if monitor is not None:
        out["speed_samples_s"] = monitor.stop()
    out.update(
        {
            "unit": wl.UNIT,
            "rounds": len(round_seconds),
            "round_seconds": round_seconds,
            "ops": [[op.kind, op.seconds, op.ok, key] for op, key in ops],
            "problems": [p for op, _ in ops for p in op.problems][:20],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )
    if tracer is not None:
        tracer.uninstall()
        out["traced_wall_s"] = tracer.root_seconds()
        out["stats"] = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
