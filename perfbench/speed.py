"""Machine-speed sampler: a fixed kernel that shares no code with lowfreq2d.

On a shared host the same op can take twice as long from one minute to the
next, in CPU time as in wall time, because other tenants load the core it
runs on.  The benchmark starts this module as a child process pinned to the
CPU the benchmark runs on; the child runs a short kernel every
SAMPLE_EVERY_S seconds and reports when and how long each run took.  The
kernel does what the program's hot paths do (a Python loop over small
complex numpy arrays), so REFERENCE_S / (its time) estimates the host's
speed when it ran.  evidence/clocks.json holds the
scaled, CPU and wall times of the same runs; the scaled ones spread least.
The child takes about one percent of the CPU.

    python3 perfbench/speed.py OUTFILE      # runs until stdin closes
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter, sleep

import numpy as np

SAMPLE_EVERY_S = 0.1
# fastest of 1500 kernel runs on a 2-vCPU Xeon virtual machine (Python 3.11, numpy
# 2.4), whose median there moved between 1.0 and 1.8 ms with its neighbours'
# load.  A kernel of about a millisecond rarely straddles a time slice of the
# op it shares the CPU with.
REFERENCE_S = 0.00094


def kernel() -> complex:
    acc = 0j
    z = np.linspace(1.0, 2.0, 16) + 0.5j
    for k in range(100):
        w = z * (k + 1)
        acc += complex(np.sum(np.exp(1j * w) / w))
        acc += sum(complex(x) * 1.0001 for x in w[:4])
    return acc


class Sampler:
    """The child process, seen from the benchmark."""

    def __init__(self, path, cpu: int):
        self.path = path
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        os.sched_setaffinity(self.proc.pid, {cpu})
        self.proc.stdout.readline()     # imports done, sampling starts

    def stop(self) -> list[tuple[float, float]]:
        """Stop the child, wait for it, and return its (start, seconds) samples."""
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        with open(self.path) as fh:
            return [tuple(map(float, line.split())) for line in fh]


def speed_factor(samples, t0: float, t1: float) -> float:
    """Mean host speed over the samples taken in [t0, t1], widened to the
    nearest sample on each side.  Work done is the integral of the speed
    over time, so an op's time times its mean speed is its time on the
    reference host, also when the speed changes while it runs."""
    starts = [s for s, _ in samples]
    lo = max(0, bisect.bisect_left(starts, t0) - 1)
    hi = min(len(samples), bisect.bisect_right(starts, t1) + 1)
    window = samples[lo:hi] or samples
    return statistics.fmean(REFERENCE_S / d for _, d in window)


def _run(path: str) -> None:
    done = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), done.set()), daemon=True).start()
    with open(path, "w") as fh:
        print("ready", flush=True)
        while not done.is_set():
            t0 = perf_counter()
            kernel()
            fh.write(f"{t0:.6f} {perf_counter() - t0:.7f}\n")
            sleep(SAMPLE_EVERY_S)


if __name__ == "__main__":
    _run(sys.argv[1])
