"""How fast the host runs right now, from a fixed piece of work.

On a shared host the same op can take 1.6x longer from one minute to the
next, as neighbours come and go.  ``cpu_seconds`` times a fixed
interpreter-bound loop (Python arithmetic on numpy scalars, the kind of
work pgakit does); the benchmark times this loop between passes and scales
each pass's op times by ``NOMINAL_S`` over it.  pgakit changes never touch
the loop, so a slower pgakit still reads slower, while a slower host does
not.
"""

import time

import numpy as np

ITERATIONS = 10_000
# the loop's CPU time on the two-core x86_64 VM the bounds were set on,
# in its faster state; scaled times read as times at that speed
NOMINAL_S = 1.3e-3


def cpu_seconds() -> float:
    a = np.arange(16.0)
    total = 0.0
    start = time.thread_time_ns()
    for i in range(ITERATIONS):
        total += float(a[i & 15]) * 0.5
    return (time.thread_time_ns() - start) * 1e-9
