"""Machine-speed reference: a fixed loop of pure-Python work.

A shared host's speed for interpreted code drifts (neighbours on the
same cores, caches and memory bus), so two runs of identical code can
differ by half their time.  The benchmark times this loop before the
first rep and after every rep, and reports each host time scaled by
``REFERENCE_S / loop time``: seconds on a machine where the loop takes
:data:`REFERENCE_S`.  The loop is the benchmark's own code, so a change
to the program moves the workload's time and not the loop's.

The mix (tuple-keyed dict updates, many short-lived bytes objects, list
sorts, a generator) was chosen because, of the loops tried, its time
tracked the workloads' own drift most closely.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_S", "reference_seconds"]

#: median of :func:`reference_seconds` on the machine the bounds in
#: ``BENCHMARK.json`` were set on (2-vCPU x86_64 VM, CPython 3.11.7)
REFERENCE_S = 0.045


def _loop() -> float:
    t0 = time.perf_counter()
    counts = {}
    blobs = []
    for i in range(60000):
        key = (i % 977, i & 31)
        counts[key] = counts.get(key, 0) + 1
        blobs.append(b"x" * (i % 64))
        if len(blobs) > 4096:
            blobs.sort(key=len)
            del blobs[:2048]
    sum(x * 2 for x in range(50000))
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Host seconds the reference loop takes right now: the median of
    three passes, so one preempted pass does not skew it."""
    return statistics.median(_loop() for _ in range(3))
