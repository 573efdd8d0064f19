"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and their
load changes the speed of the same Python code by up to 2x for minutes
at a time.  The process's CPU time drifts with its wall time, so timing
CPU time instead does not help.  A loop of the same character
as the simulator (attribute reads, dict lookups at random keys over a
working set of about ten MiB, small allocations, a heap) slows down with it,
and the benchmark divides that drift out of its throughput.  The loop
never changes with the program, so a faster program still shows in full.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: The host speed that normalised throughputs are scaled to: one pass of
#: :func:`reference_pass` taking this long.
REFERENCE_PASS_S = 0.1

_ENTRIES = 250_000
_LOOKUPS = 40_000
_HEAP = 64


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


# Ints only, so the collector never tracks the table and the program's
# collections do not walk it.
_rng = random.Random(20240417)
_TABLE = {key: key * 3 for key in range(_ENTRIES)}
_KEYS = tuple(_rng.randrange(_ENTRIES) for _ in range(_LOOKUPS))
del _rng


def reference_pass() -> float:
    """Host seconds of one pass of the reference loop.

    Every pass does the same work on a table of the same shape.  The
    collector is off during the pass, so a collection of the program's
    heap is never part of it.
    """
    table = _TABLE
    heap: list[tuple[int, int]] = []
    total = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    for index, key in enumerate(_KEYS):
        entry = _Entry(key, table[key])
        total += entry.value
        heapq.heappush(heap, (total & 1023, index))
        if len(heap) > _HEAP:
            heapq.heappop(heap)
        table[key] = entry.value + 1
    elapsed = time.perf_counter() - started
    if gc_was_enabled:
        gc.enable()
    return elapsed
