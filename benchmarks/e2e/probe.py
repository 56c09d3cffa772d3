"""Host-speed probe: calibrates the library workloads' job times and
every workload's set-up time.

The hosts these runs share change speed under a process without
warning: one vCPU runs up to 1.8x slower than the other for seconds to
minutes (other tenants), and the scheduler moves a process between
them.  The slowdown hits interpreter and numpy work alike, in wall and
CPU time alike.  So right before every job, and after the last, the
worker times a fixed slice of reference work: event-queue and dict
work in the interpreter, then numpy sorts, the mix the program's
emulator and model spend their time on.  The probe shares no code with
the program, so a change to the program cannot move it, and it never
runs next to the program's work.

A job's *calibrated* time is its wall time scaled by ``REFERENCE_MS``
over the mean of the two probes around it: the time the job would take
where the probe takes ``REFERENCE_MS``, about what it takes on a quiet
host here.  Run results keep the raw wall-clock figures next to it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

REFERENCE_MS = 4.0


class Probe:
    """Times the reference work and keeps ``[start_ns, ns]`` samples."""

    def __init__(self) -> None:
        import numpy as np

        self._data = np.random.default_rng(0).random(2048)
        self.samples: List[List[int]] = []

    def __call__(self) -> None:
        start = time.perf_counter_ns()
        self._work()
        self.samples.append([start, time.perf_counter_ns() - start])

    def burst(self, n: int) -> List[int]:
        """Take ``n`` probes in a row; returns their durations (ns)."""
        for _ in range(n):
            self()
        return [ns for _, ns in self.samples[-n:]]

    def _work(self) -> None:
        """The fixed slice of work one probe times (4-7 ms here)."""
        heap: List[tuple] = []
        acc = {}
        for i in range(6000):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
            if len(heap) > 64:
                t, k = heapq.heappop(heap)
                acc[k % 97] = acc.get(k % 97, 0.0) + t * 0.5
        for _ in range(20):
            self._data.copy().sort()


def calibrated_seconds(seconds: float, probe_ns: Sequence[int]) -> float:
    """``seconds`` of wall time scaled to the reference speed by the
    median of ``probe_ns``, probes taken right before and after it (a
    set-up, during which the prober waits).  The median, because the
    interval is long enough to meet the host's typical disturbance."""
    return seconds * REFERENCE_MS * 1e6 / statistics.median(probe_ns)


class Calibration:
    """Calibrated lengths of ``[t0, t1]`` intervals (``perf_counter_ns``)
    from the probes taken right before and right after each."""

    def __init__(self, samples: Sequence[Sequence[int]]) -> None:
        ordered = sorted(samples)
        self.starts = [s for s, _ in ordered]
        self.ns = [ns for _, ns in ordered]

    def ms(self, t0: int, t1: int) -> float:
        before = bisect_right(self.starts, t0) - 1
        after = bisect_left(self.starts, t1)
        if before < 0 or after == len(self.starts):
            raise ValueError("no probe on each side of the interval")
        probe_ns = (self.ns[before] + self.ns[after]) / 2
        return (t1 - t0) / 1e6 * REFERENCE_MS * 1e6 / probe_ns

    def all_ms(self, spans: Sequence[Tuple[int, int]]) -> List[float]:
        return [self.ms(t0, t1) for t0, t1 in spans]
