"""How fast the host runs small-array numpy code while the benchmark runs.

On a shared host the speed of this kind of code swings by up to 2x, for a
second or for minutes, with the load of other tenants, so raw times of one
run read whichever speed held. The benchmark therefore times a fixed gauge
every PERIOD_S seconds through a run and reports its timings at a reference
speed: seconds measured x GAUGE_REF_S / mean gauge time. The gauge calls no
qgpc code, so a change to qgpc moves the timings and not the gauge.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Seconds one gauge() takes on a 2-vCPU Intel Xeon (Sapphire Rapids) VM with
# numpy 2.4 and OpenBLAS on one thread, when no other tenant loads the host.
# Reported timings are in seconds at that speed.
GAUGE_REF_S = 0.0045
PERIOD_S = 0.25  # wall time between gauges; they take about 2% of a run

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))


def gauge() -> float:
    """Seconds for a fixed batch of small complex matrix-vector and Kronecker
    products: numpy calls on arrays of 4 to 256 entries, the mix that
    dominates qsim, qgnn and gcn."""
    started = time.perf_counter()
    v = np.ones(16, dtype=complex)
    for _ in range(200):
        v = _A @ v
        v = v / np.abs(v).sum()
        np.kron(v[:4], v[:4])
    return time.perf_counter() - started


class HostGauge:
    """While in use, runs gauge() every PERIOD_S seconds from a SIGALRM
    handler, so set-ups and units are sampled evenly. ``clock()`` is
    perf_counter minus the time spent in the handler: intervals measured
    with it leave the gauge out."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def clock(self) -> float:
        while True:  # retry if a gauge ran between the two reads
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:
                return now - spent

    def speed(self) -> float:
        """Host speed relative to the reference; below 1 when it is slow."""
        return GAUGE_REF_S / statistics.fmean(self.samples)

    def _sample(self, *_) -> None:
        started = time.perf_counter()
        self.samples.append(gauge())
        self._spent += time.perf_counter() - started

    def __enter__(self) -> HostGauge:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
