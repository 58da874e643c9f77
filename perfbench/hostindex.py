"""Host-speed index: a fixed pure-Python reference loop.

The VM this benchmark was written on runs the same work at speeds that
differ by up to 1.5x between phases of a few seconds to a whole run.  A
pure-Python loop slows down in step with the DD package, so every timed
sample is divided by this loop, timed right next to it, and multiplied by
the fixed ``REFERENCE_S``:

    normalized seconds = wall seconds * REFERENCE_S / loop seconds

The loop mixes what the DD package spends its time on -- tuple-keyed dict
probes, small-tuple allocation and complex multiplies -- and imports
nothing from ``repro``.  It runs with Python's cyclic GC disabled: with a
large heap alive (a finished recursive-kernel run leaves ~430k objects) the
allocations inside the loop would otherwise trigger full collections and
time the heap instead of the host.
"""

from __future__ import annotations

import gc
import time

#: Loop time, in seconds, that normalized seconds are expressed in (the
#: fastest of three passes in a fast phase of a 2-core x86-64 VM under
#: CPython 3.11).
REFERENCE_S = 0.005

_ROUNDS = 15_000


def _work() -> complex:
    table: dict[tuple[int, int], tuple[complex, int]] = {}
    acc = 0j
    rotation = complex(0.6, 0.8)
    for i in range(_ROUNDS):
        key = (i & 511, (i >> 5) & 31)
        entry = table.get(key)
        if entry is None:
            table[key] = (rotation * (i & 7), i)
        else:
            acc = acc * 0.5 + entry[0] * rotation
            table[key] = (acc, entry[1] + 1)
    return acc


def measure(passes: int = 3) -> tuple[float, bool]:
    """Fastest of ``passes`` loop passes; returns ``(seconds, gc_was_off)``.

    The fastest pass drops interruptions; a single pass right after a
    large sample read up to 2x slow.  The second value is the self-check
    that the timed passes really ran with the cyclic collector disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc_off = not gc.isenabled()
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - start)
        return best, gc_off
    finally:
        if enabled:
            gc.enable()
