"""Host-speed probe: timings in reference-host seconds.

The benchmark runs on shared virtual machines whose speed drifts by up
to 1.8x within minutes, below anything the guest can see (CPU time
drifts with wall time).  A probe timed *during* the measured work
tracks that drift: a fixed pure-Python loop is timed every
``INTERVAL_S`` from an interval timer, interleaved with the workload.
A phase's host seconds, less the probe's own time, are then scaled by
``REFERENCE_PROBE_S / mean probe time`` -- the seconds the phase would
have taken with the host at its reference speed.

The probe is pure benchmark code, so a change to the program cannot
speed it up: a faster simulator still shows as fewer reference seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Loop steps of one probe (about 0.8 ms): long enough that refilling
#: its few cache lines after the workload ran costs next to nothing.
STEPS = 10_000
INTERVAL_S = 0.05
#: Probe seconds measured during the workloads on the reference host (a
#: 2-core Xeon VM, Python 3.11.7) at its fastest.
REFERENCE_PROBE_S = 0.0008


def probe() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(STEPS):
        total += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Samples the probe from ``SIGALRM`` between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, lo: int, hi: int) -> float:
        """Mean probe time of samples ``[lo, hi)`` over the reference
        (all samples when the phase caught none; 1.0 without any)."""
        window = self.samples[lo:hi] or self.samples
        return statistics.mean(window) / REFERENCE_PROBE_S if window else 1.0

    def reference_seconds(self, host_seconds: float, lo: int, hi: int) -> float:
        """Host seconds of the phase between marks ``lo`` and ``hi``, less
        the probe time inside it, at the reference speed."""
        work = host_seconds - sum(self.samples[lo:hi])
        return work / self.slowdown(lo, hi)
