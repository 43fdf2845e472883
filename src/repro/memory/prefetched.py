"""Open-addressing int64 hash set for prefetched-line tracking.

``CorePort`` tracks the set of lines brought in by hardware/software
prefetch that have not yet been touched by demand.  On array-backend
machines the compiled datapath kernel probes and mutates this set
millions of times per batch, so the storage is a flat numpy slot
array shared with C rather than a Python ``set``.

Layout (shared with ``engine/_ckernel.c``):

* ``slots`` — power-of-two table; ``-1`` = empty, ``-2`` = tombstone,
  anything else is a resident line number (always >= 0).
* ``regs`` — ``[size, tombstones]``.

The probe sequence is linear with a Fibonacci multiplicative hash
(``pf_home`` in the kernel).  Only the kernel inserts and removes
lines; Python allocates the table, grows it before each kernel call
(:meth:`PrefetchedSet.ensure_room`, rehashing with the same hash, so C
never rehashes), clears it in place and iterates it.
"""

from __future__ import annotations

import numpy as np

EMPTY = -1
_MULT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _slot_of(line: int, mask: int) -> int:
    return (((line * _MULT) & _MASK64) >> 32) & mask


class PrefetchedSet:
    """Set of line numbers with storage shareable with the C kernel."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity & (capacity - 1):
            raise ValueError("capacity must be a power of two")
        self.slots = np.full(capacity, EMPTY, dtype=np.int64)
        self.regs = np.zeros(2, dtype=np.int64)  # [size, tombstones]
        self._mask = capacity - 1

    def __len__(self) -> int:
        return int(self.regs[0])

    def clear(self) -> None:
        # In place: the C kernel holds a pointer refreshed per call, but
        # clear between calls must not invalidate an already-built view.
        self.slots.fill(EMPTY)
        self.regs.fill(0)

    def __iter__(self):
        for v in self.slots:
            if v >= 0:
                yield int(v)

    def ensure_room(self, extra: int) -> None:
        """Grow so that ``extra`` more inserts keep load factor <= 1/2.

        Growing reallocates ``slots``: callers caching its raw pointer
        compare the array by identity after each call.
        """
        need = int(self.regs[0] + self.regs[1]) + extra
        if need * 2 > len(self.slots):
            self._grow(minimum=need * 2)

    def _grow(self, minimum: int) -> None:
        target = max(len(self.slots) * 2, 1024)
        while target < minimum:
            target *= 2
        live = self.slots[self.slots >= 0]
        fresh = np.full(target, EMPTY, dtype=np.int64)
        mask = target - 1
        for line in live.tolist():
            i = _slot_of(line, mask)
            while fresh[i] != EMPTY:
                i = (i + 1) & mask
            fresh[i] = line
        self.slots = fresh
        self._mask = mask
        self.regs[1] = 0
