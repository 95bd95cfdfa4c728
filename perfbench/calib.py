"""Calibration loop: the machine's speed at the moment, for scaling timings.

On a shared machine the same code can take twice as long from one second to
the next, as other tenants come and go on the same cores.  ``calibrate``
times a fixed pure-Python loop of integer arithmetic, tuple allocation and
dict insertion, the operations the program spends its time on.  A call timed
between two calibrations is scaled by ``NOMINAL_S`` over their mean, which
turns its wall time into the time it would take on a machine where the loop
takes ``NOMINAL_S``: the loop's uncontended time on the machine the
benchmark was defined on (Intel Xeon, CPython 3.11), so scaled times there
are close to uncontended wall times.  Only ``time`` is imported here, so a
set-up probe can load this module before it starts its clock.
"""

import time

STEPS = 8000
NOMINAL_S = 0.0015


def calibrate() -> float:
    """Wall seconds of the fixed loop."""
    start = time.perf_counter()
    s = 0
    seen = {}
    for i in range(STEPS):
        s += i * i % 7
        seen[(i, i & 255)] = s
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """Wall seconds of a call, at the nominal machine speed."""
    return seconds * NOMINAL_S * 2 / (before + after)
