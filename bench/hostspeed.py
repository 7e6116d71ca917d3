"""Calibration of wall times against the host's current speed.

The benchmark runs on a few virtual CPUs of a shared host whose speed
swings by up to 1.7x within a second (README.md, "Calibration"), so raw
wall times of the same deterministic operation spread by a third. A thread
of the benchmark process times a tiny fixed pure-Python loop every
``PERIOD_S`` while the program runs; a program process's calibrated time is
its wall time scaled by ``REF_S`` over the trimmed mean of the loop times
sampled during it. It reads as seconds on the host at its quiet speed.

The loop takes about 0.1 ms, so the sampler uses about 1 % of one CPU.
It runs in the benchmark process, not in the program's, and sleeps between
samples, so it stays out of the program's memory and out of its way.
"""

from __future__ import annotations

import statistics
import threading
import time

PERIOD_S = 0.01
REF_S = 0.0001    # loop time on the reference machine at its quiet speed
TRIM = 0.1        # share of the slowest samples dropped (preempted ones)
_WORDS = [f"w{(i * 7919) % 311}" for i in range(400)]


def loop_time() -> float:
    start = time.perf_counter()
    counts: dict = {}
    for i in range(len(_WORDS) - 2):
        key = (_WORDS[i], _WORDS[i + 1], _WORDS[i + 2])
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class HostSpeed:
    """Samples the loop time on a background thread until ``close``."""

    def __init__(self):
        self.samples: list = []    # (perf_counter at the end, loop time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.samples.append((time.perf_counter(), loop_time()))

    def calibrate(self, wall_s: float, start: float, end: float) -> float:
        """``wall_s`` of a process that ran from ``start`` to ``end``, calibrated."""
        # a process shorter than PERIOD_S takes the latest sample
        inside = sorted(t for at, t in self.samples if start <= at <= end)
        inside = inside or [self.samples[-1][1]]
        kept = inside[: max(1, round(len(inside) * (1 - TRIM)))]
        del self.samples[:-1]
        return wall_s * REF_S / statistics.fmean(kept)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
