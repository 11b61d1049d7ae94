"""A fixed job, timed between the benchmark's calls, that gauges the host's speed.

The benchmark runs on a shared host whose speed drifts by a third within
minutes, on every CPU alike, so plain wall times of the same code differ
from run to run by more than any useful bound. The job here imports
nothing from the package and does the kind of work the package spends
most of its time on: Gaussian elimination over GF(2) on rows held as
Python integers. It is timed just before and just after each timed call,
and the call's wall time is rescaled by ``NOMINAL_S / (job time)``: a
time in seconds on a host where the job takes ``NOMINAL_S``. Changing the
package cannot change the job, so a change that speeds up the package
shows in full.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# The job's typical time on a 2-vCPU Intel Xeon (2.0 GHz) VM with
# Python 3.11.7. It fixes the unit of the rescaled times; changing it
# rescales every reported time by the same factor.
NOMINAL_S = 0.05


def _fixed_rows(count: int, width: int) -> tuple[int, ...]:
    rng = random.Random(20130604)
    return tuple(rng.getrandbits(width) for _ in range(count))


_ROWS = _fixed_rows(512, 1536)


def _eliminate() -> int:
    """Rank over GF(2) of the fixed rows, by row reduction on integers."""
    rows = list(_ROWS)
    rank = 0
    for bit in range(1536):
        mask = 1 << bit
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= p
        rank += 1
    return rank


def job_s() -> float:
    """Wall seconds of one run of the job, with the cyclic garbage collector paused.

    Pausing it keeps the size of the package's live heap out of the job's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _eliminate()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def gauge_s(repeats: int = 3) -> float:
    """Median time of a few runs of the job: the host's current speed, in job seconds."""
    return statistics.median(job_s() for _ in range(repeats))
