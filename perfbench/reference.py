"""The fixed reference loop every host timing is normalised against.

Host seconds measured on a shared 2-CPU machine swing by +-23% between
processes; the ratio of the same work to a reference loop timed in the
same process swings by +-4.5%.  So the benchmark times this loop around
and inside every timed set-up and run, and reports host times in
*nominal reference seconds*: seconds on a machine on which one reference
loop takes :data:`NOMINAL_REF_S`.

The loop mixes the kinds of work the program does: interpreter work on
small objects and dicts (the scheduler, queue and FTL bookkeeping),
allocation of 4 KiB ``bytearray`` pages (page images and programs), and
first touches of fresh memory (a device build maps every flash page).
Without allocation the loop tracked run time but not set-up time:
set-up ratios spread 4.15-5.06 instead of 2.89-3.16.  Fresh memory comes
from an anonymous ``mmap`` of its own, so each loop faults in the same
number of pages whatever the state of the process heap; recycled heap
memory made a bytearray-only loop up to 2.5x faster late in a process.

It imports nothing from ``repro``: a change to the program can never
change the yardstick.
"""

from __future__ import annotations

import mmap
import time

__all__ = ["NOMINAL_REF_S", "reference_loop", "reference_seconds"]

#: Host seconds one reference loop takes on the nominal machine: about
#: its median on the 2-CPU Python 3.11 host the benchmark was defined
#: on, so that nominal and raw seconds read alike there.
NOMINAL_REF_S = 0.0125

_ITERATIONS = 4_096
_PAGE = 4_096
#: Pages held before a batch is dropped; few, so the heap recycles them.
_HELD_PAGES = 64
#: One fresh page is touched every this many iterations (4 MiB a loop).
_TOUCH_EVERY = 4


class _Entry:
    """A small mutable record, like a request or a mapping entry."""

    def __init__(self, key: int, fill: int) -> None:
        self.key = key
        self.fill = fill
        self.hits = 0


def reference_loop(iterations: int = _ITERATIONS) -> int:
    """The reference work; returns a checksum so nothing is optimised away."""
    table: dict[int, _Entry] = {}
    pages: list[bytearray] = []
    fresh = mmap.mmap(-1, (iterations // _TOUCH_EVERY + 1) * _PAGE)
    checksum = 0
    try:
        for i in range(iterations):
            entry = _Entry(i, (i * 31) % 251)
            table[i & 1023] = entry
            page = bytearray(_PAGE)
            page[i & (_PAGE - 1)] = entry.fill
            pages.append(page)
            if i % _TOUCH_EVERY == 0:
                fresh[(i // _TOUCH_EVERY) * _PAGE] = entry.fill
            other = table.get((i * 7) & 1023, entry)
            other.hits += 1
            checksum += other.key & 3
            if len(pages) == _HELD_PAGES:
                checksum += pages[i & (_HELD_PAGES - 1)][0]
                pages = []
        checksum += fresh[0]
    finally:
        fresh.close()
    return checksum + len(table)


def reference_seconds() -> float:
    """Host seconds of one reference loop."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
