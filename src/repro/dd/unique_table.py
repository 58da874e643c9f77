"""Unique tables -- hash-consing for DD nodes.

Every node is interned: before a new node is allocated, the table is checked
for an existing node with the same level and (node-identity, canonical
weight) successor tuple.  Because edge weights are canonicalised by the
complex table first, structural equality reduces to tuple equality of
``(id(child), weight)`` pairs, and node identity (``is``) afterwards equals
DD equality -- the property all compute-table caching relies on.
"""

from __future__ import annotations

from .edge import Edge
from .node import MatrixNode, VectorNode

__all__ = ["UniqueTable"]


class UniqueTable:
    """One hash-consing table for one node species (vector or matrix)."""

    __slots__ = ("_node_class", "_table", "_serial", "lookups", "hits",
                 "created")

    def __init__(self, node_class: type) -> None:
        self._node_class = node_class
        self._table: dict[tuple, VectorNode | MatrixNode] = {}
        #: next interning serial; monotone over the table's lifetime so a
        #: node's serial is its creation rank -- a run-to-run-stable
        #: canonical order (``id()`` is not: it's an address)
        self._serial = 0
        self.lookups = 0
        self.hits = 0
        #: whether the last ``get_or_insert`` allocated a fresh node
        self.created = False

    def __len__(self) -> int:
        return len(self._table)

    @staticmethod
    def _key(level: int, edges: tuple[Edge, ...]) -> tuple:
        # Unrolled for the two node arities -- this runs once per node
        # construction and the generic genexpr version dominated profiles.
        if len(edges) == 2:
            e0, e1 = edges
            return (level, id(e0.node), e0.weight, id(e1.node), e1.weight)
        e0, e1, e2, e3 = edges
        return (level, id(e0.node), e0.weight, id(e1.node), e1.weight,
                id(e2.node), e2.weight, id(e3.node), e3.weight)

    def get_or_insert(self, level: int, edges: tuple[Edge, ...]):
        """Return the canonical node for ``(level, edges)``, creating it if new."""
        self.lookups += 1
        # _key inlined for the common binary case -- one call per node
        # construction adds up in sequential simulation.
        if len(edges) == 2:
            e0, e1 = edges
            key = (level, id(e0.node), e0.weight, id(e1.node), e1.weight)
        else:
            key = self._key(level, edges)
        node = self._table.get(key)
        if node is not None:
            self.hits += 1
            self.created = False
            return node
        node = self._node_class(level, edges)
        node.serial = self._serial
        self._serial += 1
        self._table[key] = node
        self.created = True
        return node

    def clear(self) -> None:
        self._table.clear()
        self.lookups = 0
        self.hits = 0

    def nodes(self):
        """Iterate over all live nodes (used by garbage collection)."""
        return self._table.values()

    def items(self):
        """Iterate over ``(stored key, node)`` pairs (used by the auditor)."""
        return self._table.items()

    def canonical_key(self, node) -> tuple:
        """Recompute the canonical interning key of ``node``.

        For a healthy table, ``canonical_key(node)`` equals the key the
        node is stored under, and no two stored nodes share a canonical
        key.  :meth:`Package.check_invariants` recomputes keys through
        this method to detect corrupted or duplicated entries.
        """
        return self._key(node.level, node.edges)

    def remove_unreferenced(self, live: set[int]) -> int:
        """Drop all nodes whose ``id`` is not in ``live``; return count removed."""
        table = self._table
        before = len(table)
        if before == 0:
            return 0
        # When most of the table dies (the common case for post-run sweeps)
        # rebuilding is cheaper than collecting the dead keys and deleting
        # them one by one; when most survives, targeted deletion wins.
        if len(live) < before // 2:
            self._table = {key: node for key, node in table.items()
                           if id(node) in live}
        else:
            dead = [key for key, node in table.items()
                    if id(node) not in live]
            for key in dead:
                del table[key]
        return before - len(self._table)
