"""Host speed, sampled inside the process that does the work.

The shared machine this benchmark runs on changes speed by up to half
for minutes at a time: a fixed pure-Python loop takes 19 ms in one
minute and 33 ms in the next, CPU time tracking wall time (nothing is
descheduled; every instruction is slower).  A run lasts about half a
minute, so the median over its iterations cannot average that out, and
raw times of identical code spread by 25-30% across runs.

:class:`Calibrator` times a fixed slice of interpreter-bound work
(:func:`reference_task`, plain interpreter work) every ``PERIOD_S`` on
the process's main thread, from a ``SIGALRM`` handler, so the samples
interleave with the measured work and see the same host.  A duration
``d`` measured while the median sample took ``m`` is reported as
``d * REFERENCE_TASK_S / m``: seconds on a host that runs the
reference task in ``REFERENCE_TASK_S``.  Sampling costs about 0.5% of
the process's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

#: Median reference-task time that defines a "reference second"
#: (about what the task takes on the machine the bounds were set on).
REFERENCE_TASK_S = 100e-6
PERIOD_S = 0.02


def reference_task() -> int:
    """One fixed slice (about 0.1 ms) of interpreter-bound work.

    Integer arithmetic only: it allocates no object the garbage
    collector tracks, so a sample never pays for a collection of the
    workload's heap and measures the host, not the workload.
    """
    total = 0
    for i in range(1500):
        total += i * i % 7
    return total


class Calibrator:
    """Samples :func:`reference_task` every ``PERIOD_S`` on the main
    thread; ``stamps`` are ``time.perf_counter()`` values (the system
    monotonic clock, comparable across processes)."""

    def __init__(self) -> None:
        self.stamps = array("d")
        self.durations = array("d")

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        reference_task()
        self.stamps.append(started)
        self.durations.append(time.perf_counter() - started)

    def start(self) -> "Calibrator":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def as_dict(self) -> dict:
        return {"stamps": list(self.stamps),
                "durations": list(self.durations)}


def slowdown(samples: dict, t0: float, t1: float) -> float:
    """How much slower than the reference the host ran in ``[t0, t1]``
    (median sample over reference), from :meth:`Calibrator.as_dict`."""
    window = [d for t, d in zip(samples["stamps"], samples["durations"])
              if t0 <= t <= t1]
    if not window:
        raise ValueError(f"no calibration sample in [{t0}, {t1}]")
    return statistics.median(window) / REFERENCE_TASK_S
