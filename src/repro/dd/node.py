"""DD node types.

A decision diagram is built from two node species:

* :class:`VectorNode` -- decomposes a state vector over one qubit; it has two
  successor edges for the *upper* (qubit = |0>) and *lower* (qubit = |1>)
  half of the vector (paper Fig. 2).
* :class:`MatrixNode` -- decomposes a unitary over one qubit; it has four
  successor edges for the quadrants ``M00, M01, M10, M11`` (paper Sec. II-B).

Nodes are immutable after construction and interned in a unique table, so
identity (``is``) equals structural equality.  Two bookkeeping slots are
written once, later: ``serial`` on interning and ``size`` on the first
``Package.count_nodes`` of the node.  ``level`` is the qubit index
the node decomposes: level 0 is the least-significant qubit (bottom of the
diagram); the root of an ``n``-qubit DD sits at level ``n - 1``.  The DDs are
*quasi-reduced*: every non-zero edge of a level-``z`` node points to a node
at level ``z - 1`` (or the terminal when ``z == 0``); zero sub-vectors /
sub-matrices are represented by 0-stub edges directly to the terminal.
"""

from __future__ import annotations

from .edge import Edge

__all__ = ["Terminal", "TERMINAL", "VectorNode", "MatrixNode", "DDNode"]


class Terminal:
    """The unique sink of every DD.  Its level is -1 by convention."""

    __slots__ = ()

    level = -1
    serial = -1

    def __repr__(self) -> str:
        return "TERMINAL"


#: Singleton terminal node shared by all packages.
TERMINAL = Terminal()


class VectorNode:
    """A state-vector DD node with two successors (``|0>`` and ``|1>`` halves)."""

    # No ``__weakref__``: nothing weak-references a node, and the slot
    # would cost 8 bytes on every node.
    __slots__ = ("level", "edges", "serial", "size")

    def __init__(self, level: int, edges: tuple[Edge, Edge]) -> None:
        self.level = level
        self.edges = edges
        # Interning order, assigned by the unique table.  Used wherever
        # two nodes must be ordered canonically: unlike ``id()``, the
        # creation order is a pure function of the operation stream, so
        # orderings built on it survive ASLR and re-runs (the add cache's
        # operand canonicalisation feeds tolerance rounding, where the
        # ratio direction changes which DD the sum snaps to).
        self.serial = 0
        # Nodes reachable from this one, itself included; 0 until
        # Package.count_nodes first counts it.  An interned node never
        # changes, so neither does its count.
        self.size = 0

    @property
    def zero(self) -> Edge:
        """Successor for the half where this qubit is ``|0>``."""
        return self.edges[0]

    @property
    def one(self) -> Edge:
        """Successor for the half where this qubit is ``|1>``."""
        return self.edges[1]

    def __repr__(self) -> str:
        return f"VectorNode(level={self.level}, id={id(self):#x})"


class MatrixNode:
    """A matrix DD node with four successors (quadrants M00, M01, M10, M11)."""

    __slots__ = ("level", "edges", "serial", "size")

    def __init__(self, level: int, edges: tuple[Edge, Edge, Edge, Edge]) -> None:
        self.level = level
        self.edges = edges
        self.serial = 0  # interning order; see VectorNode.serial
        self.size = 0  # reachable-node count; see VectorNode.size

    def quadrant(self, row_bit: int, col_bit: int) -> Edge:
        """Successor for quadrant ``M[row_bit][col_bit]``."""
        return self.edges[2 * row_bit + col_bit]

    def __repr__(self) -> str:
        return f"MatrixNode(level={self.level}, id={id(self):#x})"


#: Union of everything an edge may point at.
DDNode = VectorNode | MatrixNode | Terminal
