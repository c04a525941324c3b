"""The host's pace: a fixed reference chunk of Python work, timed on a timer.

On a shared host the same process runs faster or slower from one second to
the next and from one minute to the next, as other tenants load the cores,
so raw times of one program spread more than a regression bound.  `Pace`
runs `reference_chunk` about every `INTERVAL_S` seconds of the measured phase,
from a `SIGALRM` handler, and records its CPU time.  The chunk does the
kind of work gradelab's scalars do, so it slows with the host as the
program does; of the chunks tried, integer arithmetic alone slowed less
than the program on a busy host, and this one tracks it more closely.

A phase's CPU time at the reference pace is its own CPU time (the chunks'
taken out) times `REFERENCE_S` over the chunks' mean CPU time: what the
phase would take where the chunk takes `REFERENCE_S`.  A change to the
program moves the phase's CPU time and not the chunk's, so it shows in full.
"""
from __future__ import annotations

import gc
import random
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
# The chunk's CPU time at the reference pace: about its median on a 2-core
# Xeon virtual machine shared with other tenants (Python 3.11).
REFERENCE_S = 0.0025


def reference_chunk() -> Fraction:
    """`Fraction` sums and products kept in a small dict, as gradelab's scalars are.

    Every object it makes is small enough for Python's own allocator; a
    block from the system allocator (a larger dict, a list that grows) made
    at a moment the timer picks can keep the program's freed memory from
    going back to the system, which moved the contract workload's memory
    peak between 172 and 182 MiB from run to run.
    """
    total, seen = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(i % 17, i % 13 + 1) * Fraction(3, i)
        seen[i % 5] = total
    return total


class Pace:
    """Times `reference_chunk` on a timer between `start` and `stop`.

    The gaps between chunks are drawn at random around `INTERVAL_S`, so that
    the chunks do not fall in step with anything periodic on the host, and
    only running totals are kept (see `reference_chunk`).
    """

    def __init__(self):
        self.chunks = 0
        self.cpu = 0.0  # CPU seconds spent in chunks
        self.wall = 0.0  # wall seconds spent in chunks
        self._gaps = random.Random(0)
        self._running = False

    def _arm(self):
        if self._running:  # a tick that runs while `stop` does must not re-arm
            signal.setitimer(signal.ITIMER_REAL, self._gaps.uniform(0.5, 1.5) * INTERVAL_S)

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # collecting the program's objects is not the chunk's work
        t0, c0 = time.perf_counter(), time.process_time()
        reference_chunk()
        self.cpu += time.process_time() - c0
        self.wall += time.perf_counter() - t0
        self.chunks += 1
        if enabled:
            gc.enable()
        self._arm()

    def start(self):
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        self._arm()

    def stop(self):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A point to measure a phase from."""
        return time.process_time(), self.chunks, self.cpu, self.wall

    def phase(self, since):
        """CPU time since `since` at the reference pace, raw CPU time, and the pace.

        The pace is the chunks' mean CPU time over `REFERENCE_S` (above 1 on
        a slow host).  With no chunk in the phase, the whole run's mean is used.
        """
        cpu0, n0, chunk_cpu0, _ = since
        chunks, chunk_cpu = self.chunks - n0, self.cpu - chunk_cpu0
        own = time.process_time() - cpu0 - chunk_cpu
        mean = chunk_cpu / chunks if chunks else self.cpu / self.chunks
        return own * REFERENCE_S / mean, own, mean / REFERENCE_S

    def wall_since(self, t0, since):
        """Wall time since perf_counter `t0`, the chunks' wall time taken out."""
        return time.perf_counter() - t0 - (self.wall - since[3])
