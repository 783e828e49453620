"""A clock that runs at the host's reference speed, not at its current speed.

The host this benchmark was built on gives its two vCPUs a speed that
switches between two levels about 1.6x apart and often stays at one of them
for a minute or more, so a whole 30 s run can fall on the slow level.  No
estimator over the rounds of one run removes that.  `HostClock` samples the
host's speed while the program runs and divides it out.

Every `period` seconds a SIGALRM handler runs a fixed reference kernel
(standard library only: Fraction arithmetic, integer elimination and dict
updates, the operations the program spends its time on) twice and times the
second call with the thread's CPU clock.  The first call brings the kernel's
code and data back into the caches, so the sample does not depend on how much
of them the program had just used; the thread's CPU clock leaves out time
spent waiting for a CPU.  A single sample is still noisy (an interrupt may
land in it), so the host's slowdown is the median of the last `window`
samples divided by `NOMINAL_REF_S`.  `now()` advances by wall time divided
by that slowdown, so an interval read from it is what the same work would
have taken with the host at the reference speed.  The time spent in the
handler itself is left out.

The kernel uses nothing from `perazzo`, so a change to the program does not
change the reference work.  With `spread_over` the samples rotate over the
CPUs that child processes do the work on.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time
from fractions import Fraction

# Time of one warm `reference_kernel()` in the handler on the faster level of
# the reference host (Intel Xeon at 2.1 GHz, Python 3.11.7), so that adjusted
# seconds read close to wall seconds there.  A constant, so that adjusted
# seconds can be compared across runs and commits.
NOMINAL_REF_S = 0.00024


def reference_kernel() -> int:
    """A quarter of a millisecond of the kind of work the program does."""
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i % 7 + 1, i)
    rng = random.Random(5)
    n = 7
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    prev = 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    d: dict = {}
    for i in range(300):
        key = (i % 13, i % 7)
        d[key] = d.get(key, 0) + i
    return s.denominator + m[n - 1][n - 1] + len(d)


class HostClock:
    """Adjusted seconds: wall time divided by the sampled host slowdown."""

    def __init__(self, period: float = 0.05, window: int = 5, nominal: float = NOMINAL_REF_S):
        self.period = period
        self.window = window
        self.nominal = nominal
        self.slowdown = 1.0
        self.samples: list[float] = []  # kernel time of every sample taken, in s
        self.handler_s = 0.0  # wall time spent sampling
        self._adjusted = 0.0
        self._last = time.perf_counter()
        self._previous = None
        self._cpus: list[int] = []  # sampled in turn when the work spans CPUs
        self._per_cpu: dict[int, list[float]] = {}
        self._turn = 0

    def start(self, since: float | None = None) -> None:
        """Start sampling; `since`, a `perf_counter()` reading, is the
        clock's zero, credited at the slowdown of a first full window."""
        began = time.perf_counter()
        for _ in range(self.window):
            self.slowdown = self._measure()
        self._adjusted = (began - since) / self.slowdown if since is not None else 0.0
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def spread_over(self, cpus) -> None:
        """The timed work runs in child processes on all of `cpus`.

        The vCPUs of the reference host switch speed independently, so a
        sample taken wherever this process happens to run says little about
        them.  From here on each sample is taken on the next CPU in turn, and
        the slowdown is the harmonic mean of the CPUs' own medians: the rate
        at which a pool that keeps every CPU busy gets through its tasks.
        """
        self._cpus = sorted(cpus)
        self._per_cpu = {cpu: [] for cpu in self._cpus}

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def now(self) -> float:
        return self._adjusted + (time.perf_counter() - self._last) / self.slowdown

    def median_slowdown(self) -> float:
        return statistics.median(self.samples) / self.nominal

    def _time_kernel(self) -> float:
        reference_kernel()
        started = time.thread_time()
        reference_kernel()
        elapsed = time.thread_time() - started
        self.samples.append(elapsed)
        return elapsed

    def _measure(self) -> float:
        if not self._cpus:
            self._time_kernel()
            return statistics.median(self.samples[-self.window:]) / self.nominal
        cpu = self._cpus[self._turn % len(self._cpus)]
        self._turn += 1
        os.sched_setaffinity(0, {cpu})
        try:
            self._per_cpu[cpu].append(self._time_kernel())
        finally:
            os.sched_setaffinity(0, self._cpus)
        speeds = [self.nominal / statistics.median(times[-self.window:])
                  for times in self._per_cpu.values() if times]
        return len(speeds) / sum(speeds)

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter()
        slowdown = self._measure()
        self._adjusted += (entered - self._last) / self.slowdown
        self.slowdown = slowdown
        self._last = time.perf_counter()
        self.handler_s += self._last - entered
