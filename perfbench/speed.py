"""CPU-speed probe that corrects timings for the host's speed phases.

On the shared machine the baseline was measured on, the speed of a core
moves between levels about 1.7x apart, in phases of seconds to minutes, and
CPU time moves with wall time. Raw medians of 30 s runs then spread by 20 to
30 % from run to run, whatever the program does. So every timed pass also
samples a fixed probe: a few 4x4 matrix products, Kronecker products and
float conversions, the same mix of interpreter and small-array work as the
package, and independent of it. A SIGALRM timer runs the probe every
``INTERVAL_S``. A timing corrected for speed is the raw timing, less the
probe time inside it, times ``REFERENCE_S / median(probe)``: the time it
would have taken at the speed at which the probe takes ``REFERENCE_S``. The
median is over the samples taken during the timed interval and within
``WINDOW_S`` of it, or over the whole pass when those are fewer than
``MIN_SAMPLES``. The raw timings are reported next to the corrected ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# typical probe duration inside a pass on the machine the baseline was
# measured on; it only sets the scale of corrected timings
REFERENCE_S = 2.4e-4
INTERVAL_S = 0.025
WINDOW_S = 2 * INTERVAL_S
MIN_SAMPLES = 3
_MATRIX = np.arange(16.0).reshape(4, 4) / 16.0


def _probe() -> float:
    total = 0.0
    for i in range(8):
        product = _MATRIX @ _MATRIX
        total += float(product[1, 2]) + i * i % 7
        total += float(np.kron(_MATRIX[0], _MATRIX[1])[3])
    return total


class SpeedProbe:
    """Probe samples (start, duration) taken while a pass runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_) -> None:
        begin = time.perf_counter()
        _probe()
        self.starts.append(begin)
        self.durations.append(time.perf_counter() - begin)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def inside(self, begin: float, end: float) -> float:
        """Probe time of the samples that started in [begin, end)."""
        return sum(self._between(begin, end))

    def _between(self, begin: float, end: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        return self.durations[lo:hi]

    def factor(self) -> float:
        """Scale from raw to corrected time over the pass; 1 without samples."""
        if not self.durations:
            return 1.0
        return REFERENCE_S / statistics.median(self.durations)

    def corrected(self, begin: float, end: float) -> float:
        """Speed-corrected duration of [begin, end), less the probe time in it."""
        raw = end - begin - self.inside(begin, end)
        near = self._between(begin - WINDOW_S, end + WINDOW_S)
        if len(near) < MIN_SAMPLES:
            return raw * self.factor()
        return raw * REFERENCE_S / statistics.median(near)
