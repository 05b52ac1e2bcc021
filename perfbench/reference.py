"""Measure how fast the host runs *during* a transport call, so transport
times can be read at one nominal host speed.

On a shared host the same transport call runs up to 1.5x faster or
slower from one minute, or one second, to the next, and its CPU time
moves with its wall-clock: the slowdown comes from neighbours on the
same physical cores, not from waiting for a CPU.  A reference timed
before and after a call misses the changes inside it, so ``HostProbe``
interrupts the call every ``PROBE_INTERVAL_S`` (``SIGALRM``) and takes
the CPU time of one fixed block of transport-like work, ``probe_work``
(CPU time, so that in a pooled run a probe that waits for a CPU busy
with a pool worker does not count the wait): gathers from a
cell table, logs and divides over 8192 lanes, a ``bincount`` tally,
small-array numpy calls and a pure-Python loop.  It imports nothing from
``repro``, so no change to the program moves it.  The worker subtracts
the probes' time from the call's CPU (and, in a serial call, its
wall-clock), and ``run.py`` divides the call's times by the sample's
slowdown, ``median probe / NOMINAL_PROBE_S``.

Never edit this file: every normalised number is relative to it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

#: CPU time of one ``probe_work()`` on the nominal host.  A sample
#: whose probes took exactly this long is reported unscaled.  (About
#: the fast phases of a shared 2-CPU Xeon VM.)
NOMINAL_PROBE_S = 0.003
#: Wall-clock between two probes inside a transport call.
PROBE_INTERVAL_S = 0.1
#: Probes every sample takes; a call too short for them is topped up
#: right after it ends.
MIN_PROBES = 10


def probe_work() -> float:
    """One fixed block of transport-like work; returns a checksum."""
    rng = np.random.default_rng(2024)
    n, nxy = 8192, 128
    table = rng.uniform(1.0, 50.0, nxy * nxy)
    x = rng.uniform(0.0, 1.0, n)
    y = rng.uniform(0.0, 1.0, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    ox, oy = np.cos(theta), np.sin(theta)
    ox[ox == 0.0] = 1e-30
    oy[oy == 0.0] = 1e-30
    e = rng.uniform(1e3, 1e6, n)
    tally = np.zeros(nxy * nxy)
    small = rng.uniform(0.0, 1.0, 64)
    acc = 0.0
    cx = np.minimum((x * nxy).astype(np.int64), nxy - 1)
    cy = np.minimum((y * nxy).astype(np.int64), nxy - 1)
    cell = cx * nxy + cy
    d = -np.log(rng.random(n)) / table[cell]
    bx = np.where(ox > 0, (cx + 1) / nxy - x, cx / nxy - x) / ox
    by = np.where(oy > 0, (cy + 1) / nxy - y, cy / nxy - y) / oy
    step = np.minimum(d, np.minimum(np.abs(bx), np.abs(by)) + 1e-9)
    e[np.nonzero(d < step + 1e-9)[0]] *= 0.9
    tally += np.bincount(cell, weights=e * step, minlength=nxy * nxy)
    for k in range(150):
        small = small * 0.999 + 0.001
        acc += float(small[k % 64])
    for k in range(3000):
        acc += (k * 0.5) % 7
    return acc + float(tally.sum())


class HostProbe:
    """Probe timings of one sample.

    ``times`` holds the CPU time of each probe.  ``with probe.during():``
    probes every ``PROBE_INTERVAL_S`` while the block runs; ``during_s``
    and ``during_cpu_s`` sum the wall-clock and CPU those probes took
    inside it.  ``top_up()`` probes after the block
    until ``MIN_PROBES`` are taken."""

    def __init__(self):
        self.times: list[float] = []
        self.during_s = 0.0
        self.during_cpu_s = 0.0
        self._inside = False

    def _probe(self) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        probe_work()
        cpu = time.thread_time() - c0
        self.times.append(cpu)
        if self._inside:
            self.during_s += time.perf_counter() - t0
            self.during_cpu_s += cpu

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    @contextlib.contextmanager
    def during(self):
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._inside = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
            self._inside = False

    def top_up(self) -> None:
        while len(self.times) < MIN_PROBES:
            self._probe()

    @property
    def median_s(self) -> float:
        return statistics.median(self.times)
