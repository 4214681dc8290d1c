"""Host speed calibration, so that timings stay comparable on a shared host.

On the 2-vCPU host this benchmark was defined on, each vCPU switches
between two speeds about 1.75x apart (other tenants' load on the
physical cores), in phases of seconds to minutes.  A whole 20-second run
can sit in one phase, so no statistic over one run's raw wall times is
steady.  Every timed interval is therefore also measured in *reference
seconds*: its wall time times the mean CPU speed sampled during it,
where speed is ``LOOP_REFERENCE_S`` over the time of a fixed piece of
interpreter work run on the CPU the measured code runs on.

Loop times use the sampling thread's CPU clock, so a sample taken while
a job shares the CPU measures the CPU's speed, not the share it got.
"""
from __future__ import annotations

import os
import statistics
import threading
import time

LOOP_REFERENCE_S = 0.005  # loop CPU time at reference speed (~fast phase of that host)
SAMPLE_INTERVAL_S = 0.2
_LOOP_N = 40_000


def loop_s() -> float:
    """CPU seconds of one fixed interpreter loop on the calling thread's CPU."""
    t0 = time.thread_time()
    d: dict[int, int] = {}
    s = 0
    for i in range(_LOOP_N):
        s += (i * i) % 7
        d[i & 1023] = s
    return time.thread_time() - t0


def speed_on(cpus, reps: int) -> float:
    """Mean speed over ``cpus`` (1.0 = reference); pins only the calling thread.

    Each CPU's speed is LOOP_REFERENCE_S over the fastest of ``reps`` loops.
    """
    saved = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(LOOP_REFERENCE_S / min(loop_s() for _ in range(reps)))
    finally:
        os.sched_setaffinity(0, saved)
    return statistics.fmean(speeds)


class Sampler:
    """Samples the speed of ``cpus`` before, every SAMPLE_INTERVAL_S during, and after a block.

    Runs in a thread of the waiting benchmark process.  A sample costs one
    5-10 ms loop per CPU, so the measured job loses 3-5% of each CPU; the
    loss is the same on every commit.
    """

    def __init__(self, cpus) -> None:
        self.cpus = list(cpus)
        self.samples: list[tuple[float, float]] = []  # (perf_counter, speed)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self, reps: int) -> None:
        t0 = time.perf_counter()
        speed = speed_on(self.cpus, reps)
        self.samples.append(((t0 + time.perf_counter()) / 2, speed))

    def __enter__(self) -> "Sampler":
        self._sample(reps=3)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._sample(reps=1)

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample(reps=3)

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1] (perf_counter times).

        Uses the samples inside the interval plus the last one before it
        and the first one after it.
        """
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        before = [s for t, s in self.samples if t < t0][-1:]
        after = [s for t, s in self.samples if t > t1][:1]
        return (t1 - t0) * statistics.fmean(before + inside + after)
