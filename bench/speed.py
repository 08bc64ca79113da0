"""A fixed probe of the host's current speed, to take the host's slow periods out of the times.

On the shared 2-core host the benchmark was written on, a fixed piece of work
takes either about 4.7 or about 7.9 ms, switching many times a second, and the
share of slow intervals drifts over minutes: for ten minutes at a time every
workload ran 30 to 40 % slower, process CPU time included.  A run therefore
times this probe in short units between its passes, and scales its times by
``PROBE_S`` over the probe's mean unit time in the same run.  The mean, not the
median, because it is the mean over many switches that a multi-second pass
pays.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_S = 0.005  # the mean unit time on the same host when it was quiet


def _unit() -> float:
    """Seconds for one unit: small-array numpy steps and an interpreter loop."""
    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 513) + 0j
    y = x.copy()
    for _ in range(2000):
        x, y = y, x - 0.001j * y
    acc = 0
    for i in range(30000):
        acc += i * i
    return time.perf_counter() - start


def probe(seconds: float) -> list[float]:
    """Unit times of as many units as fit in ``seconds``, and at least one."""
    end = time.perf_counter() + seconds
    units = [_unit()]
    while time.perf_counter() < end:
        units.append(_unit())
    return units


def factor(units: list[float]) -> float:
    """Scale that takes times measured alongside ``units`` to the quiet host's speed."""
    return PROBE_S / statistics.fmean(units)
