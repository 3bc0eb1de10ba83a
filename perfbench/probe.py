"""A fixed pure-Python loop that measures how fast the CPU runs Python now.

``child.py`` runs its timed section inside a ``Sampler``.  The sampler arms
a profiling timer (``ITIMER_PROF``), so every ``INTERVAL_S`` of the process's
CPU time a signal handler runs ``UNITS_PER_SAMPLE`` units of the loop below
and times them with the thread's CPU clock.  That samples the CPU's speed at
the moments the workload runs, on the CPU it runs on, at about 3% of its
time, and depends on no other process being scheduled.

The machine's speed drifts with the load of other tenants: this loop ran at
rates up to twice apart within seconds, and the two CPUs of a 2-vCPU
machine at different rates at once.  Wall time and CPU time both move with
it, so the child scales its CPU time by ``rate / REFERENCE_RATE``.

The loop uses only the standard library (``Fraction`` sums, tuple-keyed dict
updates, a sort), so a change to the package cannot change its speed.
``process_time`` is not used: while a profiling timer is armed, Linux
updates the process clock only at scheduler ticks.
"""

import signal
import time
from fractions import Fraction

# Probe units per CPU second that define one reference second: a time scaled
# by ``rate / REFERENCE_RATE`` is the time on a CPU that runs the probe at
# this rate (about the rate of an unloaded 2-vCPU Xeon virtual machine).
REFERENCE_RATE = 5000.0
WARMUP_UNITS = 200
INTERVAL_S = 0.02
UNITS_PER_SAMPLE = 4


def unit(i: int) -> list:
    acc = Fraction(1, 3)
    table: dict = {}
    for j in range(40):
        acc += Fraction(j + i % 11, j + 7)
        key = (j % 13, i % 5)
        table[key] = table.get(key, 0) + (acc.numerator * 31 + j) % 1000003
    return sorted(table.values())


class Sampler:
    """Context manager that samples the loop's rate while its body runs.

    ``units`` and ``cpu_s`` are the units run and the thread CPU seconds they
    took; ``rate`` is units per CPU second.  Only the main thread may use it,
    since Python runs signal handlers there."""

    def __init__(self):
        self.units = 0
        self.cpu_s = 0.0
        self._busy = False
        self._old = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        c0 = time.thread_time()
        for _ in range(UNITS_PER_SAMPLE):
            unit(self.units)
            self.units += 1
        self.cpu_s += time.thread_time() - c0
        self._busy = False

    def __enter__(self) -> "Sampler":
        for i in range(WARMUP_UNITS):
            unit(i)
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)

    @property
    def rate(self) -> float:
        if self.units < 1 or self.cpu_s <= 0:
            raise RuntimeError(f"the speed sampler measured nothing ({self.units} units)")
        return self.units / self.cpu_s
