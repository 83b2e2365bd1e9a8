"""A clock that corrects for the machine's changing speed.

On a shared machine the same Python code can take twice as long from one
second to the next, because other work competes for the core and its caches.
No statistic taken over one run's timings removes that when a slow stretch
lasts as long as the run.  ``SpeedClock`` measures the machine's speed while
the benchmark runs and lets time pass at that speed.

Every ``PERIOD_S`` of wall time a ``SIGALRM`` handler runs ``probe``, a fixed
piece of pure-Python work, and times it.  Until the next probe the clock runs
at ``PROBE_REF_S / probe time`` seconds per wall second, and it stands still
while a probe runs, so probes cost the timed code nothing.  A reading is
therefore the time the code would have taken at the reference speed, the
speed at which the probe takes ``PROBE_REF_S``.  Work that slows down with the
machine reads the same; work that needs more steps reads longer.

The handler runs in the main thread between bytecodes: no thread or process
is started.  Nothing else in the benchmark's process may use ``SIGALRM`` or
``ITIMER_REAL`` while the clock runs.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
PROBE_LOOPS = 1000
# The probe's fastest time on the machine that measured the baseline
# (x86_64, CPython 3.11.7).  It only sets the scale of the readings.
PROBE_REF_S = 225e-6


def probe() -> int:
    """A fixed piece of pure-Python work: dict stores, small tuples and lists, str()."""
    slots = {}
    for i in range(PROBE_LOOPS):
        slots[i & 63] = (i, [i, i + 1], str(i))
    return len(slots)


class SpeedClock:
    """Seconds at the reference speed; see the module docstring."""

    def __init__(self) -> None:
        # (clock reading, perf_counter, rate) at the end of the last probe.
        self._state = (0.0, perf_counter(), 1.0)
        self.probe_s: list[float] = []
        self._previous_handler = None

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        reading, since, rate = self._state
        reading += (start - since) * rate
        probe()
        end = perf_counter()
        self.probe_s.append(end - start)
        self._state = (reading, end, PROBE_REF_S / (end - start))

    def now(self) -> float:
        while True:
            state = self._state
            wall = perf_counter()
            # A probe that ran between the two reads moved the state; read again.
            if state is self._state:
                reading, since, rate = state
                return reading + (wall - since) * rate

    def now_ns(self) -> int:
        return int(self.now() * 1e9)

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def summary(self) -> dict:
        """Probe statistics for the run's record."""
        probes = self.probe_s
        return {
            "probes": len(probes),
            "probe_ref_us": PROBE_REF_S * 1e6,
            "probe_min_us": min(probes) * 1e6,
            "probe_median_us": statistics.median(probes) * 1e6,
            "probe_total_s": sum(probes),
        }

    def __enter__(self) -> SpeedClock:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
