"""Compute tables -- memoisation caches for the recursive DD operations.

Each DD operation (addition, matrix-vector multiplication, matrix-matrix
multiplication, Kronecker product, ...) gets its own cache so that
re-occurring sub-problems are computed only once -- this is precisely the
effect that makes matrix-matrix multiplication competitive on DDs (paper
Sec. III: "re-occurring sub-products only have to be computed once").

Keys are built from node identities plus (for addition) a canonical weight
ratio; values are result edges (or scalars, for inner products).

The cache is a *fixed-size slot table*, the policy used by the QMDD /
mqt-core packages: ``hash(key)`` selects one of ``slots`` slots, and an
insert simply overwrites whatever lived there before (replace-on-collision).
Compared to the classic grow-then-clear-wholesale dict policy this bounds
memory exactly, never pays a full-table clear in the middle of a hot loop,
and ages out stale entries one at a time instead of dropping the whole
working set.  Per-table hit/miss/collision counters feed
``Package.cache_stats()`` and the benchmark harness.
"""

from __future__ import annotations

__all__ = ["ComputeTable"]

#: Default slot count (power of two).  At one (key, value) tuple per filled
#: slot this bounds each table to a few MB even on the largest workloads.
DEFAULT_SLOTS = 1 << 16


class ComputeTable:
    """A fixed-size, replace-on-collision memoisation cache."""

    __slots__ = ("name", "slots", "_mask", "_entries", "_filled",
                 "lookups", "hits", "collisions", "inserts")

    def __init__(self, name: str, slots: int = DEFAULT_SLOTS) -> None:
        if slots < 1:
            raise ValueError(f"slots must be positive, got {slots}")
        size = 1
        while size < slots:
            size <<= 1
        self.name = name
        self.slots = size
        self._mask = size - 1
        self._entries: list[tuple | None] = [None] * size
        self._filled = 0
        self.lookups = 0
        self.hits = 0
        self.collisions = 0
        self.inserts = 0

    def __len__(self) -> int:
        return self._filled

    def get(self, key: tuple):
        """The cached value for ``key``, or ``None`` on a miss."""
        self.lookups += 1
        entry = self._entries[hash(key) & self._mask]
        if entry is not None and entry[0] == key:
            self.hits += 1
            return entry[1]
        return None

    def put(self, key: tuple, value) -> None:
        """Store ``value``, overwriting any entry sharing the key's slot."""
        index = hash(key) & self._mask
        current = self._entries[index]
        if current is None:
            self._filled += 1
        elif current[0] != key:
            self.collisions += 1
        self._entries[index] = (key, value)
        self.inserts += 1

    def entries(self):
        """Iterate over the occupied ``(key, value)`` slots.

        Used by the integrity auditor (every node referenced from a key or
        value must still be interned).  A run audited after every operation
        scans every table each time, so an empty table is skipped and the
        slot scan runs in C (occupied slots hold non-empty tuples).
        """
        return filter(None, self._entries) if self._filled else iter(())

    def clear(self) -> int:
        """Drop all entries; returns how many were dropped.

        Cumulative statistics are kept.  An already-empty table is a no-op,
        so callers (notably garbage collection) can clear unconditionally
        without paying the slot-array reallocation for idle tables.
        """
        dropped = self._filled
        if dropped:
            self._entries = [None] * self.slots
            self._filled = 0
        return dropped

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def load_factor(self) -> float:
        """Fraction of slots currently occupied."""
        return self._filled / self.slots

    def stats(self) -> dict:
        """Machine-readable counters for ``cache_stats()`` / benchmarks.

        ``entries``/``capacity`` mirror ``filled``/``slots`` under the
        names shared with the iterative kernel's memo stats, so harnesses
        can read every table -- fixed-slot or unbounded -- uniformly.
        """
        return {
            "slots": self.slots,
            "filled": self._filled,
            "entries": self._filled,
            "capacity": self.slots,
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "collisions": self.collisions,
            "inserts": self.inserts,
            "hit_rate": round(self.hit_rate(), 6),
            "load_factor": round(self.load_factor(), 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ComputeTable({self.name!r}, filled={self._filled}/"
                f"{self.slots}, hit_rate={self.hit_rate():.2%})")
