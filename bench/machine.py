"""The speed of the machine at the moment, from a fixed pure-Python loop.

On a host whose cores are shared with other tenants, the same work can take
up to 1.7 times as long for spells of several seconds. Each timed call is
preceded by a short calibration loop, and the end-to-end times are scaled
by how much slower than ``REFERENCE_S`` the loop ran, so that a slow spell
does not read as a slower program. The loop allocates a few megabytes of
tuples and walks them, as the encoder and the evaluator do; it tracks their
slow spells better than a loop that stays in the cache.
"""

from __future__ import annotations

import time

# Seconds the calibration loop takes on an unloaded core of the machine the
# bounds were set on (Intel Xeon, 2.1 GHz, Python 3.11).
REFERENCE_S = 0.0088


def calibrate(repeats: int = 3) -> float:
    """Seconds of the fastest of ``repeats`` runs of the calibration loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        items = [(i, -i) for i in range(60_000)]
        total = 0
        for first, _ in items[::7]:
            total += first
        del items
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, calibration: float) -> float:
    """A wall time as it would read with the machine at reference speed."""
    return seconds * REFERENCE_S / calibration
