"""Measures how fast the host runs while a repetition runs.

On a virtual machine shared with other tenants the same repetition can
take up to 1.8 times as long a minute later, while its process time
grows with its wall time: the processor itself is slower, it is not
waited for.  The speed changes within seconds, so a reference timed before or
after a repetition does not track it.  A Pacer therefore interrupts the
repetition every PERIOD_S seconds of wall time (SIGALRM) and runs one
short slice of a fixed reference loop, timed in thread CPU time.  The
mean slice time over a stretch of the run says how fast the host ran
during it, and rep.py scales that stretch's timings to a host of
reference speed: one on which a slice takes REF_SLICE_S.

The loop is exact rational arithmetic in pure Python, as bernsym's own
work is, and does not touch bernsym, so no change to the program moves
it.  The collector is paused during a slice, so that the slice never
pays for scanning the program's heap.

Pool workers are forked without the interval timer.  With a pool,
pace_forked_children starts a Pacer in every worker instead, so that
each one measures the processor it runs on while it works, and the
workers' totals come back through a shared anonymous mapping.
"""

from __future__ import annotations

import gc
import mmap
import os
import signal
import struct
import time
from fractions import Fraction

PERIOD_S = 0.01
SLICE_STEPS = 100
REF_SLICE_S = 0.001
SLOT = struct.Struct("qdd")  # a worker's slices, their CPU time and their wall time
MAX_CHILDREN = 16


class Pacer:
    def __init__(self, shared=None, slot=0):
        self._busy = False
        self._shared = shared  # where a pool worker publishes its totals
        self._slot = slot
        self._reset()

    def _reset(self):
        self.slices = 0
        self.cpu_s = 0.0  # thread CPU time of the slices
        self.wall_s = 0.0  # wall time spent in the handler

    def _slice(self, signum, frame):
        if self._busy:  # a late slice would otherwise nest inside this one
            return
        self._busy = True
        began = time.perf_counter()
        cpu_began = time.thread_time()
        collecting = gc.isenabled()
        gc.disable()
        total = Fraction(0)
        for k in range(1, SLICE_STEPS + 1):
            total += Fraction(1, k % 97 + 1) * Fraction(k % 13 + 1, 7)
        if collecting:
            gc.enable()
        self.cpu_s += time.thread_time() - cpu_began
        self.slices += 1
        self.wall_s += time.perf_counter() - began
        if self._shared is not None:
            SLOT.pack_into(self._shared, self._slot * SLOT.size, self.slices, self.cpu_s, self.wall_s)
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def totals(self) -> tuple[float, float]:
        """(host speed relative to the reference, wall time spent in slices)
        since the last take; the speed is 1.0 if no slice ran."""
        return _speed(self.slices, self.cpu_s), self.wall_s

    def take(self) -> tuple[float, float]:
        """totals(), and start counting afresh."""
        totals = self.totals()
        self._reset()
        return totals


def _speed(slices: int, cpu_s: float) -> float:
    return REF_SLICE_S / (cpu_s / slices) if slices else 1.0


def pace_forked_children():
    """Start a Pacer in every process forked from now on.  Returns a
    function giving, over all of them, the host speed and the mean wall
    time a process spent in slices."""
    shared = mmap.mmap(-1, SLOT.size * MAX_CHILDREN)
    forks = [0]  # a child's slot is the parent's fork count when it forked

    def in_child():
        if forks[0] < MAX_CHILDREN:
            Pacer(shared, forks[0]).start()

    def in_parent():
        forks[0] += 1

    os.register_at_fork(after_in_parent=in_parent, after_in_child=in_child)

    def totals() -> tuple[float, float]:
        rows = [SLOT.unpack_from(shared, i * SLOT.size) for i in range(min(forks[0], MAX_CHILDREN))]
        if not rows:
            return 1.0, 0.0
        return (_speed(sum(r[0] for r in rows), sum(r[1] for r in rows)),
                sum(r[2] for r in rows) / len(rows))

    return totals
