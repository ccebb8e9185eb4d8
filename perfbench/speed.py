"""Host-speed reference: a fixed unit of interpreter and numpy work.

The benchmark was defined on a shared 2-vCPU virtual machine whose two
CPUs each move between speeds about 1.5x apart, each held for seconds to
minutes; process CPU time moves with wall time, so it is not time stolen
from the guest but slower execution.  Pure-Python loops and element-wise
numpy work slow down together there (their ratio held within about 5% while
both moved by 40%).  ``run.py`` and ``worker.py`` time :func:`reference` next
to every set-up and every op and scale the measured time by
``NOMINAL_S / reference``: a time in seconds (or ms) at the host speed where
one reference unit takes ``NOMINAL_S``.  Over 187 readout-identify ops in one
process, scaling cut the spread of single op times from 9% to 4%.  The
reference calls nothing of odfprobe, so a change to the library moves the
scaled times exactly as it moves the raw ones.  It makes no BLAS call, so
it runs in the calling thread alone.

    python3 perfbench/speed.py      # prints ten reference times, in ms
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.0125       # one reference unit on that host at its fast level
_GRID = np.linspace(-1.0, 1.0, 2000)


def _unit() -> float:
    # element-wise numpy only: no BLAS call, so no thread but this one
    total = 0.0
    table = {}
    for i in range(60_000):
        total += (i % 7) * 0.5
        table[i & 255] = total
    x = _GRID
    for _ in range(150):
        x = np.tanh(x * 0.9 + np.cumsum(x) * 1e-4)
    return total + float(x[0])


def reference(units: int = 5) -> float:
    """Median wall time of ``units`` reference units, in seconds; the median
    passes over a unit that a preemption or an interrupt stretched."""
    times = []
    for _ in range(units):
        begin = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


if __name__ == "__main__":
    _unit()
    print(" ".join(f"{1e3 * reference():.2f}" for _ in range(10)))
