"""Host CPU speed probe, and times rescaled to a reference speed.

On a shared 2-vCPU Intel Xeon VM the CPU runs in speed regimes up to ~1.5x
apart that last from seconds to minutes: whole runs can sit in a slow
regime, so no estimator over a single run's own timings (fastest pass,
median, mean) keeps run-to-run spread small. :class:`SpeedProbe` measures
the regime while the benchmark works: every ``INTERVAL_S`` a ``SIGALRM``
handler in the main thread times a fixed pure-Python kernel (~1 ms).
:meth:`SpeedProbe.scaled` turns a wall-clock interval into seconds at the
reference speed, at which the kernel takes ``REF_KERNEL_S``, after removing
the probe's own time. The kernel is the benchmark's code, not the
program's, so a faster or slower program moves the scaled times exactly as
it moves wall time at a fixed host speed.

The rescaling assumes the program keeps at most one core busy, so that the
kernel runs on a core the program leaves free and sees only the host's
speed. A program that keeps both cores busy (worker processes, threads that
release the GIL, multithreaded BLAS) would slow the kernel itself, and the
rescaling would read that as a slow host and shrink the program's times.
Each sample therefore also records the CPU time of this process (every
thread) and of its children; an interval around which the benchmark used
more than ``MAX_BUSY_CORES`` cores is reported as raw wall time instead.

On ten separate processes each routing Test6 once, wall time spread 15 %
(interquartile over median) and the scaled time 3.4 %.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import time
from typing import List, NamedTuple

#: Seconds between probe samples; each sample costs ~1 ms (~1 %).
INTERVAL_S = 0.1
#: Kernel time that defines the reference speed.
REF_KERNEL_S = 1.0e-3
#: Samples this far around an interval also describe its speed, so short
#: intervals (a set-up, one job) still see several samples.
MARGIN_S = 0.5
#: Busy cores (CPU seconds per wall second) above which an interval is not
#: rescaled. Every workload today stays near 1.0.
MAX_BUSY_CORES = 1.3

_TICKS = os.sysconf("SC_CLK_TCK")


def _kernel() -> int:
    total = 0
    for i in range(15000):
        total += i * i % 7
    return total


def _live_children() -> List[int]:
    """Pids of this process's running direct children (Linux ``/proc``)."""
    pids: List[int] = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as fh:
                pids.extend(int(p) for p in fh.read().split())
    except OSError:
        pass
    return pids


def cpu_s() -> float:
    """CPU seconds used so far by this process and its children, live or reaped."""
    total = 0.0
    for pid in _live_children():
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return total + time.process_time() + reaped.ru_utime + reaped.ru_stime


class Sample(NamedTuple):
    at: float  # perf_counter at the start of the sample
    kernel_s: float  # the kernel's time: the host speed
    stolen_s: float  # the whole handler's time, removed from intervals
    cpu_s: float  # cpu_s() at the sample


class SpeedProbe:
    """Context manager sampling the kernel time from the main thread."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.unscaled = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        cpu = cpu_s()
        self.samples.append(Sample(t0, t1 - t0, time.perf_counter() - t0, cpu))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _near(self, start: float, end: float) -> List[Sample]:
        return [s for s in self.samples if start - MARGIN_S <= s.at <= end + MARGIN_S] or self.samples

    def busy_cores(self, start: float, end: float) -> float:
        """CPU seconds per wall second between the samples around ``[start, end]``."""
        near = self._near(start, end)
        first, last = near[0], near[-1]
        if last.at <= first.at:
            return 1.0
        return (last.cpu_s - first.cpu_s) / (last.at - first.at)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host speed around ``[start, end]``; 1.0
        (no rescaling) when the benchmark kept more than ``MAX_BUSY_CORES``
        cores busy there."""
        if self.busy_cores(start, end) > MAX_BUSY_CORES:
            self.unscaled += 1
            return 1.0
        return REF_KERNEL_S / statistics.mean(s.kernel_s for s in self._near(start, end))

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` less the probe's own time, at the reference speed."""
        stolen = sum(s.stolen_s for s in self.samples if start <= s.at < end)
        return (end - start - stolen) * self.factor(start, end)

    def mean_kernel_s(self) -> float:
        return statistics.mean(s.kernel_s for s in self.samples)

    def max_busy_cores(self) -> float:
        """Highest busy-core figure over any 1 s stretch of the run."""
        span = int(2 * MARGIN_S / INTERVAL_S)
        rates = [
            (b.cpu_s - a.cpu_s) / (b.at - a.at)
            for a, b in zip(self.samples, self.samples[span:])
            if b.at > a.at
        ]
        return max(rates, default=1.0)
