"""How fast the host runs Python right now, against the reference host.

The benchmark shares its machine with other tenants.  On the reference
host their load made its CPU run at half speed for a few hundred
milliseconds at a time, in bursts lasting up to half a minute; a run
that met a burst read up to 1.7x slower.  A fixed pure-Python loop,
timed while the benchmark's own work is paused, catches the same
half-speed spells, so the benchmark scales each stretch of time between
two such samples by ``REFERENCE_S`` over the loop's time: the result is
what the reference host would have measured at full speed.  The two
CPUs of the reference host slowed down at different times, so the loop
runs on each CPU the work runs on.  The loop runs no code of the
program under test, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
from time import perf_counter
from typing import List, NamedTuple, Sequence

#: ``sample()`` on the reference host at full speed (2 CPUs, Python
#: 3.11.7).
REFERENCE_S = 0.0014
#: A sample is the median of this many timed loops.
LOOPS = 3
#: Seconds of work between two samples.
INTERVAL_S = 0.25


def reference_loop() -> int:
    """Dict, tuple and list churn, string formatting and a generator:
    the interpreter work a request is made of."""
    table = {}
    window = []
    total = 0
    for i in range(4000):
        key = "k%d" % (i & 127)
        table[key] = table.get(key, 0) + i
        window.append((key, i))
        if len(window) == 32:
            total += sum(value for _, value in window)
            window.clear()
    return total + len(table)


def work_cpus(daemon: bool) -> List[int]:
    """The CPUs a run works on: the first this process may use, and for a
    run with a daemon the second too, so that the daemon runs beside its
    clients instead of taking turns with them on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:2] if daemon else cpus[:1]


def sample(cpus: Sequence[int] = ()) -> float:
    """Reference-host seconds per second of this host now: ``REFERENCE_S``
    over one loop's time (median of ``LOOPS``), with the garbage
    collector off so the caller's heap does not count.

    With ``cpus``, the calling thread runs the loops on each of them in
    turn and the result is the mean over them; the thread's affinity is
    restored afterwards.  Without, the loops run where the thread runs.
    """
    home = os.sched_getaffinity(0)
    scales = []
    gc.disable()
    try:
        for cpu in cpus or [None]:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(LOOPS):
                start = perf_counter()
                reference_loop()
                times.append(perf_counter() - start)
            scales.append(REFERENCE_S / statistics.median(times))
    finally:
        if cpus:
            os.sched_setaffinity(0, home)
        gc.enable()
    return statistics.mean(scales)


class Pause(NamedTuple):
    start: float
    end: float
    scale: float


class HostSpeed:
    """Samples on ``cpus`` taken in pauses of the work, at most every
    ``INTERVAL_S``.

    The work between two pauses is scaled by the mean of their samples.
    """

    def __init__(self, cpus: Sequence[int] = ()) -> None:
        self.cpus = cpus
        self.pauses: List[Pause] = []

    def due(self) -> bool:
        return (not self.pauses
                or perf_counter() - self.pauses[-1].end >= INTERVAL_S)

    def take(self) -> None:
        start = perf_counter()
        scale = sample(self.cpus)
        self.pauses.append(Pause(start, perf_counter(), scale))

    def scale_at(self, t: float) -> float:
        """Scale of the stretch between pauses that holds time ``t``."""
        ends = [pause.end for pause in self.pauses]
        i = min(max(bisect.bisect_right(ends, t) - 1, 0),
                len(self.pauses) - 2)
        return (self.pauses[i].scale + self.pauses[i + 1].scale) / 2

    def scaled_work_s(self) -> float:
        """Reference-host seconds of the work between the first and the
        last pause, the pauses themselves left out."""
        return sum((after.start - before.end) * (before.scale + after.scale)
                   / 2 for before, after in zip(self.pauses,
                                                self.pauses[1:]))
