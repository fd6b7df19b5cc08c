"""The host's speed, gauged by a fixed reference task.

On the shared two-vCPU host this benchmark was written on, the speed
for identical work changes by up to 1.8x, within seconds, with the load
of other tenants on the same cores: a 30 s run can spend most of its time in a slow or a fast
spell.  So the workload process times a fixed reference task right after
every request, outside the request's timing, and every end-to-end
timing is scaled by REFERENCE_MS over the reference time next to it
(`scaled`).  A change of the host's speed moves the request and the task
alike and cancels; a change to pfmatch moves only the request.

The task is the benchmark's own oracle (tree column DP, matching-number
closed forms, cycle enumeration) on fixed inputs.  It contains no
pfmatch code, so no change to pfmatch changes it, and it runs with the
collector held off, so that its time does not depend on the heap the
request before it left behind.  On the measurements behind this choice,
scaling each request by the task timed right after it cut the spread of
throughput and p50 between interleaved runs from 0.13-0.24 to under
0.04; scaling a whole run by the median of its task times left 0.07-0.22.
"""

from __future__ import annotations

import gc
import random
import time

import oracle

#: Milliseconds the reference task takes on the host that timings are
#: scaled to: about its median on the shared two-vCPU host (Python
#: 3.11.7) this benchmark was written on, where it ran between 2.3 and
#: 4.5 ms.
REFERENCE_MS = 3.5

_rng = random.Random("perfbench reference")
_TREE = [(v, _rng.randrange(v)) for v in range(1, 40)]
_GRID_2X4 = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (0, 4), (1, 5), (2, 6), (3, 7)]


def reference_ms() -> float:
    """Milliseconds of one reference task, with the collector held off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        oracle.tree_product_count("c4", 40, _TREE)
        oracle.tree_product_count("c4", 40, _TREE)
        oracle.cycles_by_subsets(8, _GRID_2X4)
        return (time.perf_counter() - t0) * 1000.0
    finally:
        gc.enable()


def scaled(measured: float, reference: float) -> float:
    """A time measured next to a reference task of `reference` ms, scaled
    to the host on which the task takes REFERENCE_MS."""
    return measured * REFERENCE_MS / reference
