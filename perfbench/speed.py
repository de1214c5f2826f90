"""Times at reference speed: a fixed loop measures how fast the host runs.

On a shared host the same code runs up to 50 % slower for seconds to
minutes at a time, because neighbours contend for the cores and caches;
process CPU time slows with wall time, so no choice of clock removes it.
A fixed loop of the kinds of work the package does slows with it.  The
meter runs the loop before and after every timed interval and, from a
timer signal, every TICK_S during it, and scales the interval to the
speed at which one round of the loop takes REF_ROUND_S.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Fastest time of one round on the machine the bounds were set on (a shared
# 2-vCPU Xeon virtual machine, Python 3.11): a scaled time is the seconds
# the work would take there with the host otherwise idle.
REF_ROUND_S = 0.00027
EDGE_ROUNDS = 20  # run before and after each interval
TICK_ROUNDS = 2  # run every TICK_S during an interval
TICK_S = 0.025


def probe(rounds: int) -> float:
    """Time `rounds` rounds of a fixed loop.

    Fraction and integer arithmetic, tuple keys and dict updates, as in
    the (I, h) sums and the brute-force count.
    """
    start = time.perf_counter()
    for _ in range(rounds):
        acc = Fraction(0)
        table = {}
        for i in range(1, 76):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            key = (i % 13, i % 17)
            table[key] = table.get(key, 0) + i * i
        s = 0
        for i in range(2000):
            s += (i * 31) % 97
    return time.perf_counter() - start


class SpeedMeter:
    """Scales timed intervals to reference speed, one after another.

    The probe after an interval is the probe before the next one.
    """

    def __init__(self):
        self._edge = probe(EDGE_ROUNDS)
        self._ticks: list[float] = []

    def _tick(self, signum, frame):
        self._ticks.append(probe(TICK_ROUNDS))

    def measure(self, work):
        """Run work() with ticks on.

        Returns its result, the time the ticks took inside it (to be taken
        off its own timing) and the factor that turns its remaining time
        into time at reference speed.
        """
        self._ticks.clear()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        ticks = sum(self._ticks)
        after = probe(EDGE_ROUNDS)
        rounds = 2 * EDGE_ROUNDS + TICK_ROUNDS * len(self._ticks)
        factor = REF_ROUND_S * rounds / (self._edge + ticks + after)
        self._edge = after
        return result, ticks, factor
