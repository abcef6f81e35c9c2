"""Machine-speed probe for timing on a shared host.

The host this benchmark was built on changes speed by up to 2x for seconds
to minutes at a time, so raw command times over a run spread by 25-50%.
While a command runs, a SIGALRM every PERIOD_S interrupts it between
bytecodes and times a small fixed interpreter-bound kernel.  The command's
time minus the kernel's, scaled by KERNEL_REF_S / (mean kernel time), is
its time at the reference speed.  Measured on markov-spectral and
paper-spectrum commands, this cuts the per-command spread (IQR/median) from
0.22-0.76 raw to 0.05-0.10.  The kernel never calls the package, so a
change to the package cannot move the scale.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.01
KERNEL_REF_S = 2.0e-4  # kernel time on the reference host at its usual speed
MIN_SAMPLES = 3  # fewer samples than this fall back to the whole pass's

_TABLE = {i: 1.0 / (i + 2) for i in range(64)}


def _pair_weight(a: int, b: int) -> float:
    return _TABLE[a] + _TABLE[b]


def _pairs(n: int):
    for i in range(n):
        yield (i & 63, (i * 7) & 63)


def kernel() -> float:
    """Calls, a generator, dict lookups, float math and list growth: the
    interpreter work the package itself mostly does."""
    acc = 0.0
    seen = []
    for pair in _pairs(300):
        acc += math.log(_pair_weight(*pair))
        seen.append(acc)
    return math.fsum(seen)


class SpeedProbe:
    """Context manager sampling the kernel's duration every PERIOD_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def at_reference_speed(seconds: float, samples: list[float], fallback: list[float]) -> float:
    """`seconds` of wall time that contained `samples`, minus the kernel's
    own time, rescaled to the reference speed.  Too few samples borrow the
    speed of `fallback` (the whole pass); none at all leave it unscaled."""
    busy = seconds - sum(samples)
    use = samples if len(samples) >= MIN_SAMPLES else fallback
    if not use:
        return busy
    return busy * KERNEL_REF_S / statistics.fmean(use)
