"""How fast the shared machine runs the measuring process, sampled
throughout a run.

The virtual CPUs of a shared machine slow down and speed up by up to
1.6x, in stretches from a fraction of a second to minutes.  A
:class:`SpeedMonitor` pins the measuring process to the CPU it runs on
and starts this file as a helper process pinned to the same CPU.  Every
``PERIOD_S`` the helper wakes, times one run of :func:`kernel` and goes
back to sleep, so it samples the speed of that CPU while pslocal runs,
long calls included, at a cost of about 1% of the CPU.  The helper is a
fresh interpreter that imports nothing from pslocal and runs with the
garbage collector off: no change to the program can move its samples.

    python3 perfbench/speed.py     # the helper; stops at end of input and
                                   # prints its samples as one JSON list
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from typing import List

PERIOD_S = 0.1


def kernel() -> None:
    """A fixed piece of pure-Python rational arithmetic on growing integers,
    about 1.5 ms on the machine the benchmark was built on."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i * i + 1)


def _current_cpu() -> int:
    # Field 39 of /proc/self/stat: the CPU the process last ran on.
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class SpeedMonitor:
    """Pins this process and a sampling helper to one CPU; ``stop``
    returns the helper's kernel times in seconds."""

    def __init__(self) -> None:
        cpu = _current_cpu()
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        os.sched_setaffinity(self._proc.pid, {cpu})

    def stop(self) -> List[float]:
        try:
            out, _ = self._proc.communicate(input="", timeout=30)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.communicate()
        return json.loads(out)


def _sample() -> None:
    import selectors

    gc.disable()
    samples = []
    with selectors.DefaultSelector() as sel:
        sel.register(sys.stdin, selectors.EVENT_READ)
        # Input only ever ends; any readiness of stdin means stop.
        while not sel.select(timeout=PERIOD_S):
            t0 = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - t0)
    print(json.dumps(samples))


if __name__ == "__main__":
    _sample()
