"""Host-speed probes: a fixed loop timed every 0.2 s while a run measures.

The shared hosts this benchmark runs on change speed by tens of percent
from one second to the next (co-tenants on sibling hardware threads; CPU
time equals wall time, so the process is never descheduled, just
slower). Inside a :class:`HostSpeed` block an interval timer interrupts
the program every :data:`INTERVAL_S` and times a short loop that shares
none of the program's code. Measured sections read the clock
:meth:`HostSpeed.clock`, which stands still while a probe runs, and are
then scaled to a fixed host speed: ``seconds × NOMINAL_S / mean probe``
over the probes taken during the section. That is the time the work
would take on a host that runs the probe in :data:`NOMINAL_S`. A change
to the program moves it exactly as it would move wall time on a steady
host; a change of host speed does not.

The probe mixes the simulator's two kinds of work: a heap-driven
generator scheduler with dict traffic (the event kernel and daemons),
and shifted 2-D ``numpy.maximum`` sweeps (the knapsack DP).
"""

from __future__ import annotations

import heapq
import signal
import statistics
from time import perf_counter

import numpy as np

#: Probe time that defines one reference-host second (about the probe's
#: time on an idle 2-vCPU Xeon).
NOMINAL_S = 0.0125

#: Seconds between probes.
INTERVAL_S = 0.2

#: Probes a section is scaled by at the least (the nearest ones when
#: the section itself is shorter than that many intervals).
MIN_PROBES = 3

_PROCESSES = 12
_STEPS = 12_000
_WIDTH = 1024


def _process(steps: int, out: list):
    total = 0
    for _ in range(steps):
        total += yield
    out.append(total)


def probe_seconds() -> float:
    """Wall seconds of one pass of the probe loop."""
    start = perf_counter()
    out: list = []
    heap = []
    procs = [_process(_STEPS // _PROCESSES, out) for _ in range(_PROCESSES)]
    for key, proc in enumerate(procs):
        next(proc)
        heapq.heappush(heap, (float(key), key))
    counts: dict[int, int] = {}
    while heap:
        now, key = heapq.heappop(heap)
        counts[key & 31] = counts.get(key & 31, 0) + 1
        try:
            procs[key].send(key)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + 1.5, key))
    table = np.zeros((16, _WIDTH))
    weights = np.arange(_WIDTH, dtype=np.float64)
    for shift in range(30):
        np.maximum(
            table[:, shift:], table[:, : _WIDTH - shift] + weights[shift],
            out=table[:, shift:],
        )
    return perf_counter() - start


class HostSpeed:
    """Probes host speed on a timer for the duration of a ``with`` block."""

    def __init__(self) -> None:
        #: ``(perf_counter at probe start, probe seconds)``.
        self.probes: list[tuple[float, float]] = []
        #: Seconds spent in probes so far; :meth:`clock` leaves them out.
        self.paused = 0.0
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, _signum, _frame) -> None:
        start = perf_counter()
        self.probes.append((start, probe_seconds()))
        self.paused += perf_counter() - start

    def clock(self) -> float:
        """``perf_counter()`` minus the time spent in probes."""
        while True:
            paused = self.paused
            now = perf_counter()
            if paused == self.paused:  # no probe ran in between
                return now - paused

    def factor(self, start: float, end: float) -> float:
        """Reference-host seconds per clock second over ``[start, end]``.

        ``start`` and ``end`` are ``perf_counter()`` readings. Uses the
        probes taken in the window, or the :data:`MIN_PROBES` nearest
        its middle when fewer ran inside it.
        """
        inside = [seconds for at, seconds in self.probes if start <= at <= end]
        if len(inside) < MIN_PROBES:
            middle = (start + end) / 2
            nearest = sorted(self.probes, key=lambda probe: abs(probe[0] - middle))
            inside = [seconds for _at, seconds in nearest[:MIN_PROBES]]
        if not inside:
            raise RuntimeError("no host-speed probe ran during the measurement")
        return NOMINAL_S / statistics.mean(inside)
