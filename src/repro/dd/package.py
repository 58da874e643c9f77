"""The DD package: construction and manipulation of quantum decision diagrams.

This module is the heart of the reproduction.  It implements the QMDD-style
decision diagrams of the paper's Section II-B:

* state vectors are decomposed qubit by qubit into binary trees with shared
  sub-structure and complex *edge weights* (paper Fig. 2c);
* unitary matrices are decomposed into quadrants, giving nodes with four
  successors (paper Sec. II-B);
* the arithmetic the paper's whole argument rests on -- addition (Fig. 4),
  matrix-vector multiplication (Fig. 3) and matrix-matrix multiplication --
  is carried out directly on the diagrams with memoisation, so re-occurring
  sub-problems are solved once.

All diagrams are *quasi-reduced*: every non-zero edge from level ``z`` points
to level ``z - 1``, zero blocks are 0-stub edges to the terminal, and the
identity on ``m`` qubits costs exactly ``m`` nodes -- the size asymmetry
between gate DDs (linear) and state DDs (potentially huge) that makes
matrix-matrix multiplication attractive (paper Sec. III).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .complex_table import DEFAULT_TOLERANCE, ComplexTable
from .compute_table import ComputeTable
from .edge import Edge
from .kernel import DenseState, FlatEdge, FlatKernel
from .node import TERMINAL, MatrixNode, VectorNode
from .unique_table import UniqueTable

__all__ = ["Package", "OperationCounters", "GcStats", "DDIntegrityError"]


class DDIntegrityError(RuntimeError):
    """The DD package violates one of its structural invariants.

    Raised by :meth:`Package.assert_invariants` when the integrity auditor
    finds corruption: denormalised edge weights, duplicate unique-table
    entries, dangling compute-table references, broken level ordering.
    Carries the full list of violations in :attr:`violations`.
    """

    def __init__(self, violations: list[str]) -> None:
        preview = "\n  ".join(violations[:10])
        more = len(violations) - 10
        suffix = f"\n  ... and {more} more" if more > 0 else ""
        super().__init__(
            f"DD integrity audit found {len(violations)} violation(s):\n"
            f"  {preview}{suffix}")
        self.violations = violations


@dataclass
class OperationCounters:
    """Counts of recursive DD-operation calls.

    These are the machine-independent cost metrics behind the paper's
    figures: a matrix-vector product on a large state DD racks up many
    ``mult_mv_recursions``, while combining two small gate DDs costs few
    ``mult_mm_recursions`` -- the trade the combining strategies exploit.
    """

    add_recursions: int = 0
    mult_mv_recursions: int = 0
    mult_mm_recursions: int = 0
    kron_recursions: int = 0
    nodes_created: int = 0
    apply_gate_recursions: int = 0

    def snapshot(self) -> "OperationCounters":
        return OperationCounters(self.add_recursions, self.mult_mv_recursions,
                                 self.mult_mm_recursions, self.kron_recursions,
                                 self.nodes_created,
                                 self.apply_gate_recursions)

    def delta(self, earlier: "OperationCounters") -> "OperationCounters":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return OperationCounters(
            self.add_recursions - earlier.add_recursions,
            self.mult_mv_recursions - earlier.mult_mv_recursions,
            self.mult_mm_recursions - earlier.mult_mm_recursions,
            self.kron_recursions - earlier.kron_recursions,
            self.nodes_created - earlier.nodes_created,
            self.apply_gate_recursions - earlier.apply_gate_recursions,
        )

    def total_recursions(self) -> int:
        return (self.add_recursions + self.mult_mv_recursions
                + self.mult_mm_recursions + self.kron_recursions
                + self.apply_gate_recursions)


@dataclass
class GcStats:
    """Cumulative garbage-collection telemetry for one package.

    Long-running simulations live or die by their memory behaviour; these
    counters make every collection observable (``Package.cache_stats()``,
    ``SimulationStatistics``, the JSONL trace) instead of a silent pause.
    ``ineffective`` counts collections that freed nothing -- the
    signature of a fully-reachable working set that has outgrown the
    configured node limit (the thrash scenario the engine's
    :class:`~repro.simulation.memory.MemoryGovernor` defuses).
    """

    collections: int = 0
    nodes_freed: int = 0
    pause_seconds: float = 0.0
    compute_entries_dropped: int = 0
    ineffective: int = 0
    flat_slots_freed: int = 0

    def snapshot(self) -> "GcStats":
        return GcStats(self.collections, self.nodes_freed,
                       self.pause_seconds, self.compute_entries_dropped,
                       self.ineffective, self.flat_slots_freed)

    def delta(self, earlier: "GcStats") -> "GcStats":
        """Telemetry accumulated since ``earlier`` (a prior snapshot)."""
        return GcStats(
            self.collections - earlier.collections,
            self.nodes_freed - earlier.nodes_freed,
            self.pause_seconds - earlier.pause_seconds,
            self.compute_entries_dropped - earlier.compute_entries_dropped,
            self.ineffective - earlier.ineffective,
            self.flat_slots_freed - earlier.flat_slots_freed,
        )

    def as_dict(self) -> dict:
        return {
            "collections": self.collections,
            "nodes_freed": self.nodes_freed,
            "pause_seconds": round(self.pause_seconds, 6),
            "compute_entries_dropped": self.compute_entries_dropped,
            "ineffective": self.ineffective,
            "flat_slots_freed": self.flat_slots_freed,
        }


@dataclass
class _Tables:
    """All memoisation state of one package, bundled for easy reset."""

    vectors: UniqueTable = field(default_factory=lambda: UniqueTable(VectorNode))
    matrices: UniqueTable = field(default_factory=lambda: UniqueTable(MatrixNode))
    add_vec: ComputeTable = field(default_factory=lambda: ComputeTable("add_vec"))
    add_mat: ComputeTable = field(default_factory=lambda: ComputeTable("add_mat"))
    mult_mv: ComputeTable = field(default_factory=lambda: ComputeTable("mult_mv"))
    mult_mm: ComputeTable = field(default_factory=lambda: ComputeTable("mult_mm"))
    kron_vec: ComputeTable = field(default_factory=lambda: ComputeTable("kron_vec"))
    kron_mat: ComputeTable = field(default_factory=lambda: ComputeTable("kron_mat"))
    conj_t: ComputeTable = field(default_factory=lambda: ComputeTable("conj_t"))
    inner: ComputeTable = field(default_factory=lambda: ComputeTable("inner"))
    apply_gate: ComputeTable = field(
        default_factory=lambda: ComputeTable("apply_gate"))

    def compute_tables(self) -> dict[str, ComputeTable]:
        """All compute tables by name (stats reporting, bulk clearing)."""
        return {t.name: t for t in (
            self.add_vec, self.add_mat, self.mult_mv, self.mult_mm,
            self.kron_vec, self.kron_mat, self.conj_t, self.inner,
            self.apply_gate)}


class Package:
    """A self-contained DD universe: complex table, unique tables, caches.

    Diagrams from different packages must not be mixed; every simulation run
    owns one package (or shares one deliberately).
    """

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE,
                 identity_shortcut: bool = True,
                 kernel: str = "recursive",
                 identity_edges: bool = False,
                 dense_blocks: bool = True) -> None:
        if kernel not in ("recursive", "iterative"):
            raise ValueError(f"kernel must be 'recursive' or 'iterative', "
                             f"got {kernel!r}")
        self.complex_table = ComplexTable(tolerance)
        self.tables = _Tables()
        self.counters = OperationCounters()
        self.gc_stats = GcStats()
        self.zero = Edge(TERMINAL, 0j)
        self.one = Edge(TERMINAL, self.complex_table.lookup(1 + 0j))
        self._identity_cache: list[Edge] = [self.one]
        # Node ids of identity DDs, for the I*M = M / I*v = v multiplication
        # shortcut.  The identity cache is a GC root, so ids stay valid.
        self._identity_node_ids: set[int] = set()
        # The multiplication shortcut consults this alias.  Disabling it
        # (identity_shortcut=False) restores the paper's cost model, where
        # multiplications recurse through identity padding like any other
        # sub-matrix -- the paper-artifact experiments depend on those
        # machine-independent recursion counts.
        self.identity_shortcut = identity_shortcut
        self._mult_identity_ids = self._identity_node_ids \
            if identity_shortcut else frozenset()
        # Gate/projection spec tuples interned to small ints so the
        # apply-gate compute-table keys hash two machine words instead of
        # re-hashing a nested tuple at every recursion level.
        self._spec_ids: dict[tuple, int] = {}
        # Fully-prepared apply_gate specs (interned 2x2 entries, control
        # split, spec ids) keyed by the caller's hashable arguments, so a
        # gate repeated thousands of times is prepared once.
        self._gate_prep: dict[tuple, tuple] = {}
        #: which arithmetic core drives state evolution: "recursive" keeps
        #: the per-node object recursion, "iterative" routes states through
        #: the flat-array worklist kernel (:mod:`repro.dd.kernel`).
        self.kernel = kernel
        #: identity-skipping matrix edges (arXiv:2406.11959): matrix nodes
        #: of the form (e, 0, 0, e) collapse to ``e``, so gate DDs and
        #: matrix products never materialise identity padding.  Level gaps
        #: are then legal in matrix DDs and all matrix arithmetic treats a
        #: skipped level as identity.  ``Package.kron_matrices`` is NOT
        #: gap-aware, which is why the flag is opt-in.
        self.identity_edges = identity_edges
        #: iterative-kernel dense blocks: once a state's per-gate DD work
        #: (measured in memo lookups) exceeds the cost of touching every
        #: amplitude, ``apply_gate`` hands the state to a numpy amplitude
        #: array (:class:`~repro.dd.kernel.DenseState`) and gates become
        #: vectorised strided updates.  Purely a representation switch --
        #: ``to_flat``/``from_dense`` round-trip through the same canonical
        #: store, so results are bit-identical to the pure-DD path.
        self.dense_blocks = dense_blocks
        self.flat = FlatKernel(self) if kernel == "iterative" else None

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------

    def terminal_edge(self, weight: complex) -> Edge:
        """A terminal edge carrying ``weight`` (the 1x1 / scalar diagram)."""
        weight = self.complex_table.lookup(weight)
        if weight == 0:
            return self.zero
        return Edge(TERMINAL, weight)

    def _normalise(self, edges: list[Edge]) -> tuple[complex, tuple[Edge, ...]]:
        """Normalise successor edges; return (pushed-up factor, children)."""
        lookup = self.complex_table.lookup
        norm = 0j
        norm_mag = -1.0
        for e in edges:
            mag = abs(e.weight)
            if mag > norm_mag + self.complex_table.tolerance:
                norm_mag = mag
                norm = e.weight
        if norm == 0:
            return 0j, ()
        one = self.one.weight
        children = []
        for e in edges:
            w = e.weight
            if w == 0:
                children.append(self.zero)
            elif w == norm:
                # The norm child divides to exactly 1: skip the lookup.
                children.append(Edge(e.node, one))
            else:
                w = lookup(w / norm)
                children.append(self.zero if w == 0 else Edge(e.node, w))
        return norm, tuple(children)

    def make_vector_node(self, level: int, edges: tuple[Edge, Edge]) -> Edge:
        """Create (or find) the normalised node decomposing a vector at ``level``.

        The binary normalisation of :meth:`_normalise` is inlined here: this
        is the single hottest constructor in sequential simulation, and the
        generic list-based loop showed up prominently in profiles.
        """
        e0, e1 = edges
        w0 = e0.weight
        w1 = e1.weight
        ct = self.complex_table
        norm = w1 if abs(w1) > abs(w0) + ct.tolerance else w0
        if norm == 0:
            return self.zero
        one = self.one.weight
        exact_get = ct._exact.get
        lookup = ct.lookup
        if w0 == 0:
            c0 = self.zero
        elif w0 == norm:
            c0 = Edge(e0.node, one)
        else:
            q = w0 / norm
            w = exact_get(q)
            if w is None:
                w = lookup(q)
            else:
                ct.hits += 1
            c0 = self.zero if w == 0 else Edge(e0.node, w)
        if w1 == 0:
            c1 = self.zero
        elif w1 == norm:
            c1 = Edge(e1.node, one)
        else:
            q = w1 / norm
            w = exact_get(q)
            if w is None:
                w = lookup(q)
            else:
                ct.hits += 1
            c1 = self.zero if w == 0 else Edge(e1.node, w)
        table = self.tables.vectors
        node = table.get_or_insert(level, (c0, c1))
        if table.created:
            self.counters.nodes_created += 1
        # Child weights are canonical already, so ``norm`` (one of them, or
        # their magnitude-dominant representative) usually hits the exact
        # front cache; fall back to a full lookup for external callers.
        w = exact_get(norm)
        if w is None:
            w = lookup(norm)
        else:
            ct.hits += 1
        return Edge(node, w)

    def make_matrix_node(self, level: int,
                         edges: tuple[Edge, Edge, Edge, Edge]) -> Edge:
        """Create (or find) the normalised node decomposing a matrix at ``level``."""
        norm, children = self._normalise(list(edges))
        if norm == 0:
            return self.zero
        if (self.identity_edges and children[1].weight == 0
                and children[2].weight == 0 and children[0] == children[3]):
            # Identity-skipping edge (arXiv:2406.11959): (e, 0, 0, e) is
            # I (x) e -- do not materialise the node, return ``e`` itself
            # and let the level gap denote the skipped identity levels.
            return self._scaled(children[0], norm)
        table = self.tables.matrices
        node = table.get_or_insert(level, children)
        if table.created:
            self.counters.nodes_created += 1
        return Edge(node, self.complex_table.lookup(norm))

    # ------------------------------------------------------------------
    # elementary state constructors
    # ------------------------------------------------------------------

    def zero_state(self, num_qubits: int) -> Edge:
        """The all-zeros computational basis state ``|0...0>``."""
        return self.basis_state(num_qubits, 0)

    def basis_state(self, num_qubits: int, index: int) -> Edge:
        """Computational basis state ``|index>`` on ``num_qubits`` qubits.

        Bit ``k`` of ``index`` is the value of qubit ``k`` (little-endian).
        """
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        if not 0 <= index < (1 << num_qubits):
            raise ValueError(f"basis index {index} out of range for "
                             f"{num_qubits} qubits")
        if self.flat is not None:
            return self.flat.basis_state(num_qubits, index)
        edge = self.one
        for level in range(num_qubits):
            bit = (index >> level) & 1
            children = (edge, self.zero) if bit == 0 else (self.zero, edge)
            edge = self.make_vector_node(level, children)
        return edge

    def identity(self, num_qubits: int) -> Edge:
        """The identity matrix DD on ``num_qubits`` qubits (``num_qubits`` nodes)."""
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        cache = self._identity_cache
        while len(cache) <= num_qubits:
            below = cache[-1]
            edge = self.make_matrix_node(
                len(cache) - 1, (below, self.zero, self.zero, below))
            self._identity_node_ids.add(id(edge.node))
            cache.append(edge)
        return cache[num_qubits]

    # ------------------------------------------------------------------
    # addition (paper Fig. 4)
    # ------------------------------------------------------------------

    def add_vectors(self, x: Edge, y: Edge) -> Edge:
        """Sum of two state-vector DDs of equal qubit count."""
        if type(x) is DenseState:
            x = x.to_flat()
        if type(y) is DenseState:
            y = y.to_flat()
        if type(x) is FlatEdge and type(y) is FlatEdge:
            return self.flat.add(x, y)
        return self._add(x, y, self.tables.add_vec, self.make_vector_node, 2)

    def add_matrices(self, x: Edge, y: Edge) -> Edge:
        """Sum of two matrix DDs of equal qubit count."""
        return self._add(x, y, self.tables.add_mat, self.make_matrix_node, 4)

    def _add(self, x: Edge, y: Edge, cache: ComputeTable,
             make_node, arity: int) -> Edge:
        if x.weight == 0:
            return y
        if y.weight == 0:
            return x
        ct = self.complex_table
        lookup = ct.lookup
        if x.node is y.node:
            # x.weight != 0 is guaranteed by the early return above; the sum
            # may still cancel to zero (x + (-x)), which _scaled maps to the
            # zero edge after the lookup snaps the ratio to 0.
            return self._scaled(x, lookup(x.weight + y.weight) / x.weight)
        self.counters.add_recursions += 1
        # Addition is commutative; order operands for better cache reuse.
        # The order must be run-to-run stable (interning serials, not
        # ``id()``): the ratio below is snapped by the complex table, and
        # ``x + ratio*y`` vs ``y + (1/ratio)*x`` can round to *different*
        # canonical DDs near the tolerance boundary.  With addresses the
        # direction flipped with ASLR, which made node counts -- and the
        # max-size strategy's flush schedule -- vary between identical
        # runs (caught by the schedule byte-identity check).
        if x.node.serial > y.node.serial:
            x, y = y, x
        value = y.weight / x.weight
        ratio = ct._exact.get(value)
        if ratio is None:
            ratio = lookup(value)
        else:
            ct.hits += 1
        if ratio == 0:
            return x
        cache.lookups += 1
        key = (x.node, y.node, ratio)
        entries = cache._entries
        slot = hash(key) & cache._mask
        entry = entries[slot]
        if entry is not None and entry[0] == key:
            cache.hits += 1
            return self._scaled(entry[1], x.weight)
        lx = x.node.level
        ly = y.node.level
        if lx != ly:
            # Identity-skipping matrix DDs: operand levels may differ; the
            # lower operand contributes virtual (e, 0, 0, e) quadrants at
            # every skipped level, so only the diagonal quadrants of the
            # higher operand see it.
            if lx > ly:
                hn, hw = x.node, self.one.weight
                lo = Edge(y.node, ratio)
            else:
                hn, hw = y.node, ratio
                lo = Edge(x.node, self.one.weight)
            he = hn.edges
            add = self._add
            scaled = self._scaled
            children = (
                add(scaled(he[0], hw), lo, cache, make_node, 4),
                scaled(he[1], hw),
                scaled(he[2], hw),
                add(scaled(he[3], hw), lo, cache, make_node, 4),
            )
            cached = make_node(hn.level, children)
        elif lx == -1:
            cached = self.terminal_edge(1 + ratio)
        else:
            xs = x.node.edges
            ys = y.node.edges
            add = self._add
            if arity == 2:
                children = (
                    add(xs[0], ys[0].scaled(ratio), cache, make_node, 2),
                    add(xs[1], ys[1].scaled(ratio), cache, make_node, 2),
                )
            else:
                children = (
                    add(xs[0], ys[0].scaled(ratio), cache, make_node, 4),
                    add(xs[1], ys[1].scaled(ratio), cache, make_node, 4),
                    add(xs[2], ys[2].scaled(ratio), cache, make_node, 4),
                    add(xs[3], ys[3].scaled(ratio), cache, make_node, 4),
                )
            cached = make_node(x.node.level, children)
        current = entries[slot]
        if current is None:
            cache._filled += 1
        elif current[0] != key:
            cache.collisions += 1
        entries[slot] = (key, cached)
        cache.inserts += 1
        return self._scaled(cached, x.weight)

    def _scaled(self, edge: Edge, factor: complex) -> Edge:
        """``edge`` scaled by ``factor`` with the weight re-canonicalised."""
        if factor == 0 or edge.weight == 0:
            return self.zero
        if factor == 1:
            return edge  # package edges already carry canonical weights
        ct = self.complex_table
        value = edge.weight * factor
        w = ct._exact.get(value)
        if w is None:
            w = ct.lookup(value)
        else:
            ct.hits += 1
        if w == 0:
            return self.zero
        return Edge(edge.node, w)

    # ------------------------------------------------------------------
    # multiplication (paper Fig. 3 and Sec. III)
    # ------------------------------------------------------------------

    def multiply_matrix_vector(self, m: Edge, v: Edge) -> Edge:
        """Apply matrix DD ``m`` to state DD ``v`` (one simulation step, Eq. 1)."""
        if type(v) is DenseState:
            v = v.to_flat()
        if type(v) is FlatEdge:
            if m.weight == 0 or v.weight == 0:
                return FlatEdge(self.flat, 0, 0j)
            mlevel = m.node.level
            vlevel = v.level
            if mlevel != vlevel and not (self.identity_edges
                                         and mlevel < vlevel):
                raise ValueError(
                    f"matrix level {mlevel} != vector level {vlevel}; "
                    "operands must cover the same qubits")
            return self.flat.mult_mv(m, v)
        w = m.weight * v.weight
        if w == 0:
            return self.zero
        mlevel = m.node.level
        vlevel = v.node.level
        if mlevel != vlevel and not (self.identity_edges
                                     and mlevel < vlevel):
            # With identity-skipping edges a matrix root below the state
            # root is legal: the skipped top levels act as identity.
            raise ValueError(
                f"matrix level {mlevel} != vector level {vlevel}; "
                "operands must cover the same qubits")
        result = self._mult_mv(m.node, v.node)
        return self._scaled(result, w)

    def _mult_mv(self, mn, vn) -> Edge:
        if mn.level == -1:
            # Scalar matrix: either both operands are terminal, or (with
            # identity-skipping edges) the matrix is identity on every
            # remaining level -- the product is the vector itself.
            return self.one if vn.level == -1 else Edge(vn, self.one.weight)
        self.counters.mult_mv_recursions += 1
        if id(mn) in self._mult_identity_ids:
            # I * v = v: identity padding resolves in this one call instead
            # of recursing through the whole sub-diagram.
            return Edge(vn, self.one.weight)
        key = (mn, vn)
        cache = self.tables.mult_mv
        cached = cache.get(key)
        if cached is not None:
            return cached
        if mn.level < vn.level:
            # Identity-skipped levels: the matrix acts as I here, so the
            # product is a structural copy one level down.
            children = []
            for vchild in vn.edges:
                if vchild.weight == 0:
                    children.append(self.zero)
                else:
                    children.append(self._scaled(
                        self._mult_mv(mn, vchild.node), vchild.weight))
            result = self.make_vector_node(vn.level,
                                           (children[0], children[1]))
            cache.put(key, result)
            return result
        level = mn.level
        me = mn.edges
        ve = vn.edges
        mult = self._mult_mv
        scaled = self._scaled
        children = []
        for row in (0, 1):
            parts = []
            for col in (0, 1):
                m_child = me[2 * row + col]
                v_child = ve[col]
                w = m_child.weight * v_child.weight
                if w == 0:
                    continue
                parts.append(scaled(mult(m_child.node, v_child.node), w))
            if not parts:
                children.append(self.zero)
            elif len(parts) == 1:
                children.append(parts[0])
            else:
                children.append(self.add_vectors(parts[0], parts[1]))
        result = self.make_vector_node(level, (children[0], children[1]))
        cache.put(key, result)
        return result

    def multiply_matrix_matrix(self, a: Edge, b: Edge) -> Edge:
        """Product ``a @ b`` of two matrix DDs (combining operations, Eq. 2)."""
        w = a.weight * b.weight
        if w == 0:
            return self.zero
        if a.node.level != b.node.level and not self.identity_edges:
            raise ValueError(
                f"matrix levels differ ({a.node.level} vs {b.node.level}); "
                "operands must cover the same qubits")
        result = self._mult_mm(a.node, b.node)
        return self._scaled(result, w)

    def _mult_mm(self, an, bn) -> Edge:
        if an.level == -1:
            # Scalar (or, with identity-skipping edges, identity-extended)
            # left operand: the product is the right operand itself.
            return self.one if bn.level == -1 else Edge(bn, self.one.weight)
        if bn.level == -1:
            return Edge(an, self.one.weight)
        self.counters.mult_mm_recursions += 1
        identity_ids = self._mult_identity_ids
        if id(an) in identity_ids:
            # I * B = B (and A * I = A below): combined products of
            # elementary gates are mostly identity padding -- resolve the
            # whole sub-product in this one call.
            return Edge(bn, self.one.weight)
        if id(bn) in identity_ids:
            return Edge(an, self.one.weight)
        key = (an, bn)
        cache = self.tables.mult_mm
        cached = cache.get(key)
        if cached is not None:
            return cached
        if an.level != bn.level:
            # Identity-skipping edges: the lower operand is identity on
            # the levels it skips, so it multiplies straight into each
            # quadrant of the higher operand (block-diagonal product).
            if an.level > bn.level:
                hn, other, a_side = an, bn, True
            else:
                hn, other, a_side = bn, an, False
            children = []
            for hchild in hn.edges:
                if hchild.weight == 0:
                    children.append(self.zero)
                else:
                    sub = self._mult_mm(hchild.node, other) if a_side \
                        else self._mult_mm(other, hchild.node)
                    children.append(self._scaled(sub, hchild.weight))
            result = self.make_matrix_node(
                hn.level,
                (children[0], children[1], children[2], children[3]))
            cache.put(key, result)
            return result
        level = an.level
        ae = an.edges
        be = bn.edges
        mult = self._mult_mm
        scaled = self._scaled
        children = []
        for row in (0, 1):
            for col in (0, 1):
                parts = []
                for k in (0, 1):
                    a_child = ae[2 * row + k]
                    b_child = be[2 * k + col]
                    w = a_child.weight * b_child.weight
                    if w == 0:
                        continue
                    parts.append(scaled(mult(a_child.node, b_child.node), w))
                if not parts:
                    children.append(self.zero)
                elif len(parts) == 1:
                    children.append(parts[0])
                else:
                    children.append(self.add_matrices(parts[0], parts[1]))
        result = self.make_matrix_node(
            level, (children[0], children[1], children[2], children[3]))
        cache.put(key, result)
        return result

    # ------------------------------------------------------------------
    # direct local-gate application (fast path for Eq. 1 simulation)
    # ------------------------------------------------------------------

    def apply_gate(self, v: Edge, matrix, target: int,
                   controls=None) -> Edge:
        """Apply a (multi-)controlled single-qubit gate directly to a state DD.

        This is the fast path for sequential (Eq. 1) simulation: instead of
        lifting the 2x2 ``matrix`` to an ``n``-qubit gate DD (identity
        padding on every other qubit) and running a full matrix-vector
        multiplication, the *state* DD is recursed directly.  Levels above
        the target are structural copies (or control splits), the 2x2 gate
        is applied once at the target level, and levels below are only
        touched when a control sits there.  Results are identical to
        ``multiply_matrix_vector(build_gate_dd(...), v)`` up to the complex
        table's tolerance, and node for node: every weight handed to the
        node constructor is a complex-table representative, so the two
        paths share nodes alike (``tests/dd/test_apply_gate.py`` compares
        their node counts after every gate of long Grover runs).

        Parameters
        ----------
        v:
            State DD the gate acts on.
        matrix:
            The 2x2 unitary acting on ``target`` (anything indexable as
            ``matrix[row][col]``).
        target:
            Qubit the gate acts on.
        controls:
            Mapping ``{qubit: active_value}`` (1 = positive, 0 = negative)
            or a sequence of qubits / ``(qubit, value)`` pairs.
        """
        prep_key = None
        if type(matrix) is tuple and (controls is None
                                      or type(controls) is tuple):
            prep_key = (matrix, target, controls)
            prep = self._gate_prep.get(prep_key)
        else:
            prep = None
        if prep is None:
            control_map = self._normalise_control_spec(controls)
            if target in control_map:
                raise ValueError(f"qubit {target} cannot be both target "
                                 "and control")
            lookup = self.complex_table.lookup
            u = tuple(lookup(complex(matrix[r][c])) for r in (0, 1)
                      for c in (0, 1))
            lower = {q: val for q, val in control_map.items() if q < target}
            gate_id = self._spec_id(
                (u, target, tuple(sorted(control_map.items()))))
            proj_id = self._spec_id(("proj", tuple(sorted(lower.items())))) \
                if lower else -1
            prep = (u, control_map, lower, gate_id, proj_id)
            if prep_key is not None:
                self._gate_prep[prep_key] = prep
        else:
            u, control_map, lower, gate_id, proj_id = prep
        if type(v) is DenseState:
            # Dense block: stay dense -- the gate is a strided numpy update.
            # This check must precede the weight check below (``weight`` on
            # a DenseState materialises the full DD).
            root_level = v.level
            if not 0 <= target <= root_level:
                raise ValueError(f"target {target} out of range for state of "
                                 f"{root_level + 1} qubits")
            for qubit in control_map:
                if not 0 <= qubit <= root_level:
                    raise ValueError(f"control {qubit} out of range for "
                                     f"state of {root_level + 1} qubits")
            kprep = self.flat.prepare_gate(u, control_map, lower,
                                           gate_id, proj_id, target)
            return self.flat.apply_dense(v, kprep)
        flat = type(v) is FlatEdge
        if v.weight == 0:
            return FlatEdge(self.flat, 0, 0j) if flat else self.zero
        root_level = v.level if flat else v.node.level
        if not 0 <= target <= root_level:
            raise ValueError(f"target {target} out of range for state of "
                             f"{root_level + 1} qubits")
        for qubit in control_map:
            if not 0 <= qubit <= root_level:
                raise ValueError(f"control {qubit} out of range for state of "
                                 f"{root_level + 1} qubits")
        if flat:
            kprep = self.flat.prepare_gate(u, control_map, lower,
                                           gate_id, proj_id, target)
            return self.flat.apply_gate(v, kprep)
        result = self._apply_gate_rec(v.node, u, target, control_map,
                                      lower, gate_id, proj_id)
        return self._scaled(result, v.weight)

    def _spec_id(self, spec: tuple) -> int:
        """Intern a gate/projection spec tuple to a unique small int."""
        sid = self._spec_ids.get(spec)
        if sid is None:
            sid = len(self._spec_ids)
            self._spec_ids[spec] = sid
        return sid

    @staticmethod
    def _normalise_control_spec(controls) -> dict[int, int]:
        """Normalise control specs to ``{qubit: active_value}``."""
        if not controls:
            return {}
        if isinstance(controls, dict):
            result = dict(controls)
        else:
            result = {}
            for item in controls:
                if isinstance(item, tuple):
                    qubit, value = item
                else:
                    qubit, value = item, 1
                result[int(qubit)] = int(value)
        for qubit, value in result.items():
            if value not in (0, 1):
                raise ValueError(f"control value for qubit {qubit} must be "
                                 f"0 or 1, got {value}")
        return result

    def _gate_term(self, factor: complex, edge: Edge) -> Edge:
        """``factor * edge`` with zero short-circuits (one gate-matrix term)."""
        if factor == 0 or edge.weight == 0:
            return self.zero
        return self._scaled(edge, factor)

    def _apply_gate_rec(self, vn, u, target: int, control_map: dict,
                        lower: dict, gate_id: int, proj_id: int) -> Edge:
        """Transform the sub-state below ``vn`` (weight-1 normal form)."""
        self.counters.apply_gate_recursions += 1
        # The compute-table probe is inlined (slot computed once, reused by
        # the store below); counters match ComputeTable.get/put exactly.
        cache = self.tables.apply_gate
        cache.lookups += 1
        key = (vn, gate_id)
        entries = cache._entries
        slot = hash(key) & cache._mask
        entry = entries[slot]
        if entry is not None and entry[0] == key:
            cache.hits += 1
            return entry[1]
        rec = self._apply_gate_rec
        e0, e1 = vn.edges
        level = vn.level
        if level > target:
            # Structural copy above the target.  Each child weight is
            # interned before it reaches make_vector_node, which snaps only
            # the ratio and the norm and so needs table representatives:
            # with raw products, two representatives of one value (e.g.
            # sqrt(1/2) and sqrt(1/2) - 1.6e-10) yield ratios just outside
            # the tolerance of 1, each becomes a new representative, and
            # nodes that should be shared stop comparing equal.
            active = control_map.get(level)
            if active is None:
                if e0.weight == 0:
                    t0 = self.zero
                else:
                    sub = rec(e0.node, u, target, control_map,
                              lower, gate_id, proj_id)
                    t0 = self._scaled(sub, e0.weight)
                if e1.weight == 0:
                    t1 = self.zero
                else:
                    sub = rec(e1.node, u, target, control_map,
                              lower, gate_id, proj_id)
                    t1 = self._scaled(sub, e1.weight)
            elif active == 1:
                t0 = e0
                if e1.weight == 0:
                    t1 = self.zero
                else:
                    sub = rec(e1.node, u, target, control_map,
                              lower, gate_id, proj_id)
                    t1 = self._scaled(sub, e1.weight)
            else:
                if e0.weight == 0:
                    t0 = self.zero
                else:
                    sub = rec(e0.node, u, target, control_map,
                              lower, gate_id, proj_id)
                    t0 = self._scaled(sub, e0.weight)
                t1 = e1
            result = self.make_vector_node(level, (t0, t1))
        elif not lower:
            # Target level, gate unconditioned below: one 2x2 application.
            n0 = self.add_vectors(self._gate_term(u[0], e0),
                                  self._gate_term(u[1], e1))
            n1 = self.add_vectors(self._gate_term(u[2], e0),
                                  self._gate_term(u[3], e1))
            result = self.make_vector_node(target, (n0, n1))
        else:
            # Controls below the target: project out the component where
            # all lower controls are active and add the gate's *correction*
            # to it -- new_v0 = v0 + (u00 - 1) P v0 + u01 P v1 (and
            # symmetrically for v1).  Diagonal entries equal to 1 (e.g. the
            # untouched row of a multi-controlled Z) then cost nothing.
            a0 = self._project_lower_controls(e0, lower, proj_id)
            a1 = self._project_lower_controls(e1, lower, proj_id)
            d0 = self.add_vectors(self._gate_term(u[0] - 1, a0),
                                  self._gate_term(u[1], a1))
            d1 = self.add_vectors(self._gate_term(u[2], a0),
                                  self._gate_term(u[3] - 1, a1))
            n0 = self.add_vectors(e0, d0)
            n1 = self.add_vectors(e1, d1)
            result = self.make_vector_node(target, (n0, n1))
        # Re-read the slot: nested recursions may have stored into it.
        current = entries[slot]
        if current is None:
            cache._filled += 1
        elif current[0] != key:
            cache.collisions += 1
        entries[slot] = (key, result)
        cache.inserts += 1
        return result

    def _project_lower_controls(self, edge: Edge, lower: dict,
                                proj_id: int) -> Edge:
        """Component of ``edge`` where every control in ``lower`` is active."""
        if edge.weight == 0:
            return self.zero
        return self._scaled(
            self._project_rec(edge.node, lower, min(lower), proj_id),
            edge.weight)

    def _project_rec(self, vn, lower: dict, lowest: int, proj_id: int) -> Edge:
        level = vn.level
        if level < lowest:
            # No controls remain below: the whole sub-state is active.
            return self.one if level == -1 else Edge(vn, self.one.weight)
        self.counters.apply_gate_recursions += 1
        cache = self.tables.apply_gate
        cache.lookups += 1
        key = (vn, proj_id)
        entries = cache._entries
        slot = hash(key) & cache._mask
        entry = entries[slot]
        if entry is not None and entry[0] == key:
            cache.hits += 1
            return entry[1]
        e0, e1 = vn.edges
        active = lower.get(level)
        rec = self._project_rec
        if active is None:
            if e0.weight == 0:
                t0 = self.zero
            else:
                sub = rec(e0.node, lower, lowest, proj_id)
                t0 = self._scaled(sub, e0.weight)
            if e1.weight == 0:
                t1 = self.zero
            else:
                sub = rec(e1.node, lower, lowest, proj_id)
                t1 = self._scaled(sub, e1.weight)
        elif active == 1:
            t0 = self.zero
            if e1.weight == 0:
                t1 = self.zero
            else:
                sub = rec(e1.node, lower, lowest, proj_id)
                t1 = self._scaled(sub, e1.weight)
        else:
            if e0.weight == 0:
                t0 = self.zero
            else:
                sub = rec(e0.node, lower, lowest, proj_id)
                t0 = self._scaled(sub, e0.weight)
            t1 = self.zero
        result = self.make_vector_node(level, (t0, t1))
        current = entries[slot]
        if current is None:
            cache._filled += 1
        elif current[0] != key:
            cache.collisions += 1
        entries[slot] = (key, result)
        cache.inserts += 1
        return result

    # ------------------------------------------------------------------
    # Kronecker products
    # ------------------------------------------------------------------

    def kron_vectors(self, top: Edge, bottom: Edge) -> Edge:
        """``top (x) bottom``: ``top`` becomes the more-significant qubits."""
        return self._kron(top, bottom, self.tables.kron_vec,
                          self.make_vector_node)

    def kron_matrices(self, top: Edge, bottom: Edge) -> Edge:
        """``top (x) bottom`` for matrix DDs."""
        return self._kron(top, bottom, self.tables.kron_mat,
                          self.make_matrix_node)

    def _kron(self, top: Edge, bottom: Edge, cache: ComputeTable,
              make_node) -> Edge:
        w = top.weight * bottom.weight
        if w == 0:
            return self.zero
        shift = bottom.node.level + 1
        result = self._kron_rec(top.node, bottom.node, shift, cache, make_node)
        return self._scaled(result, w)

    def _kron_rec(self, tn, bn, shift: int, cache: ComputeTable,
                  make_node) -> Edge:
        if tn.level == -1:
            return Edge(bn, self.one.weight) if bn.level != -1 else self.one
        self.counters.kron_recursions += 1
        key = (tn, bn)
        cached = cache.get(key)
        if cached is not None:
            return cached
        children = []
        for e in tn.edges:
            if e.weight == 0:
                children.append(self.zero)
            else:
                sub = self._kron_rec(e.node, bn, shift, cache, make_node)
                children.append(self._scaled(sub, e.weight))
        result = make_node(tn.level + shift, tuple(children))
        cache.put(key, result)
        return result

    # ------------------------------------------------------------------
    # adjoint, inner products, amplitudes
    # ------------------------------------------------------------------

    def conjugate_transpose(self, m: Edge) -> Edge:
        """The adjoint (dagger) of a matrix DD -- the inverse for unitaries."""
        if m.weight == 0:
            return self.zero
        result = self._conj_t(m.node)
        return self._scaled(result, m.weight.conjugate())

    def _conj_t(self, mn) -> Edge:
        if mn.level == -1:
            return self.one
        key = (mn,)
        cache = self.tables.conj_t
        cached = cache.get(key)
        if cached is not None:
            return cached
        e = mn.edges
        children = []
        for src in (0, 2, 1, 3):  # transpose swaps the off-diagonal quadrants
            child = e[src]
            if child.weight == 0:
                children.append(self.zero)
            else:
                sub = self._conj_t(child.node)
                children.append(self._scaled(sub, child.weight.conjugate()))
        result = self.make_matrix_node(
            mn.level, (children[0], children[1], children[2], children[3]))
        cache.put(key, result)
        return result

    def outer_product(self, ket: Edge, bra: Edge) -> Edge:
        """``|ket><bra|`` as a matrix DD (rank-1 operator).

        The density matrix of a pure state is ``outer_product(v, v)``;
        combined with a partial trace this yields reduced states and
        entanglement measures directly from a state DD.
        """
        if ket.weight == 0 or bra.weight == 0:
            return self.zero
        if ket.node.level != bra.node.level:
            raise ValueError("outer product of states with different "
                             "qubit counts")
        return self._scaled(self._outer(ket.node, bra.node),
                            ket.weight * bra.weight.conjugate())

    def _outer(self, kn, bn) -> Edge:
        # A method, not a nested closure: a self-calling closure forms a
        # function<->cell cycle that keeps the package alive until the
        # cyclic collector runs.
        if kn.level == -1:
            return self.one
        cache = self.tables.kron_mat  # reuse a matrix cache with a tag
        key = ("outer", kn, bn)
        cached = cache.get(key)
        if cached is not None:
            return cached
        children = []
        for row in (0, 1):
            for col in (0, 1):
                k_child = kn.edges[row]
                b_child = bn.edges[col]
                weight = k_child.weight * b_child.weight.conjugate()
                if weight == 0:
                    children.append(self.zero)
                else:
                    children.append(self._scaled(
                        self._outer(k_child.node, b_child.node), weight))
        result = self.make_matrix_node(kn.level, tuple(children))
        cache.put(key, result)
        return result

    def inner_product(self, a: Edge, b: Edge) -> complex:
        """``<a|b>`` of two state DDs of equal qubit count."""
        if type(a) is DenseState:
            a = a.to_flat()
        if type(b) is DenseState:
            b = b.to_flat()
        if a.weight == 0 or b.weight == 0:
            return 0j
        if a.node.level != b.node.level:
            raise ValueError("inner product of states with different qubit counts")
        return (a.weight.conjugate() * b.weight
                * self._inner(a.node, b.node))

    def _inner(self, an, bn) -> complex:
        if an.level == -1:
            return 1 + 0j
        key = (an, bn)
        cache = self.tables.inner
        cached = cache.get(key)
        if cached is not None:
            return cached
        total = 0j
        for ae, be in zip(an.edges, bn.edges):
            if ae.weight == 0 or be.weight == 0:
                continue
            total += (ae.weight.conjugate() * be.weight
                      * self._inner(ae.node, be.node))
        cache.put(key, total)
        return total

    def squared_norm(self, v: Edge) -> float:
        """``<v|v>`` -- 1.0 for a properly normalised quantum state."""
        return self.inner_product(v, v).real

    def fidelity(self, a: Edge, b: Edge) -> float:
        """``|<a|b>|^2``, the standard state-overlap measure."""
        return abs(self.inner_product(a, b)) ** 2

    def amplitude(self, v: Edge, basis_index: int) -> complex:
        """Amplitude of basis state ``|basis_index>`` (product of path weights)."""
        if type(v) is DenseState:
            return v.amplitude(basis_index)
        if type(v) is FlatEdge:
            return self.flat.amplitude(v, basis_index)
        w = v.weight
        node = v.node
        while node.level != -1:
            if w == 0:
                return 0j
            bit = (basis_index >> node.level) & 1
            edge = node.edges[bit]
            w *= edge.weight
            node = edge.node
        return w

    # ------------------------------------------------------------------
    # diagram metrics and housekeeping
    # ------------------------------------------------------------------

    def solidify(self, edge):
        """Materialise a dense block back into its canonical DD form.

        ``DenseState`` results become :class:`~repro.dd.kernel.FlatEdge`
        (through the kernel's canonical store, so the result is identical
        to never having gone dense); every other edge type passes through
        unchanged.  Call this before serialising, auditing, or comparing a
        state that may have taken the dense fast path.
        """
        if type(edge) is DenseState:
            return edge.to_flat()
        return edge

    def count_nodes(self, edge: Edge) -> int:
        """Number of internal nodes reachable from ``edge`` (terminal excluded).

        This is the size measure the *max-size* strategy is parametrised on.
        """
        if type(edge) is DenseState:
            # A dense block has no nodes; report its capacity (the
            # amplitude count it holds) as the state-size proxy --
            # materialising or scanning the block on every step would
            # defeat the dense fast path.
            return edge.size_proxy()
        if type(edge) is FlatEdge:
            return 0 if edge.weight == 0 else self.flat.count_nodes(edge.index)
        if edge.weight == 0 or edge.node.level == -1:
            return 0
        frontier = {edge.node}
        if self.identity_edges and type(edge.node) is MatrixNode:
            # Identity-skipping edges leave level gaps, so one node can
            # sit at two depths below the root: dedupe across levels.
            seen: set = set()
            while frontier:
                seen |= frontier
                frontier = {child.node for node in frontier
                            for child in node.edges}
                frontier.discard(TERMINAL)
                frontier -= seen
            return len(seen)
        # One level at a time: zero stubs point at the terminal and every
        # non-zero child sits exactly one level down (both audited by
        # check_invariants), so each frontier is exactly the set of nodes
        # on one level.  This runs after every simulation step; a set
        # comprehension per level beats a per-child Python walk.
        count = 0
        while frontier:
            count += len(frontier)
            frontier = {child.node for node in frontier
                        for child in node.edges}
            frontier.discard(TERMINAL)
        return count

    def clear_compute_tables(self) -> int:
        """Drop all memoisation caches; returns total entries dropped.

        Results stay valid; only speed is lost.
        """
        dropped = 0
        for cache in self.tables.compute_tables().values():
            dropped += cache.clear()
        if self.flat is not None:
            dropped += self.flat.clear_memos()
        return dropped

    def cache_stats(self) -> dict:
        """Hit/miss/collision statistics for every cache in the package.

        The ``compute`` section reports the slot-based memoisation tables
        (one per DD operation), ``unique`` the hash-consing tables and
        ``complex`` the weight-interning table.  perfbench's ``--trace 1``
        hit rates are read from this report.
        """
        unique = {}
        for name, table in (("vectors", self.tables.vectors),
                            ("matrices", self.tables.matrices)):
            lookups = table.lookups
            unique[name] = {
                "nodes": len(table),
                "lookups": lookups,
                "hits": table.hits,
                "hit_rate": round(table.hits / lookups, 6) if lookups else 0.0,
            }
        ct = self.complex_table
        total = ct.hits + ct.misses
        compute = {name: cache.stats() for name, cache
                   in self.tables.compute_tables().items()}
        stats = {
            "compute": compute,
            "unique": unique,
            "complex": {
                "entries": len(ct),
                "hits": ct.hits,
                "misses": ct.misses,
                "hit_rate": round(ct.hits / total, 6) if total else 0.0,
            },
            "gc": self.gc_stats.as_dict(),
        }
        if self.flat is not None:
            # The kernel's memo traffic is folded into the corresponding
            # compute-table rows (one logical operation, one row --
            # perfbench reads add_vec/apply_gate/mult_mv by name), and
            # also reported raw under "kernel".
            kernel_stats = self.flat.stats()
            stats["kernel"] = kernel_stats
            for name, k in kernel_stats.items():
                if name not in compute or not k["lookups"]:
                    continue
                base = compute[name]
                lookups = base["lookups"] + k["lookups"]
                hits = base["hits"] + k["hits"]
                merged = dict(base)
                merged["lookups"] = lookups
                merged["hits"] = hits
                merged["misses"] = lookups - hits
                merged["hit_rate"] = round(hits / lookups, 6) \
                    if lookups else 0.0
                merged["entries"] = base.get("entries", 0) + k["entries"]
                compute[name] = merged
        return stats

    def garbage_collect(self, roots: list[Edge]) -> int:
        """Free all nodes not reachable from ``roots``; returns nodes removed.

        The identity cache is treated as an implicit root.  Compute tables
        pin arbitrary nodes, so they are wiped whenever nodes are actually
        removed -- but an *ineffective* collection (everything reachable,
        nothing to free) leaves them untouched: entries can only reference
        live interned nodes then, and keeping them avoids both the wipe
        cost and the cold-cache restart that makes per-step re-collection
        so pathological.  Every collection updates :attr:`gc_stats`.
        """
        started = time.perf_counter()
        flat_freed = 0
        if self.flat is not None:
            # Compact the flat store first: it drops its materialisation
            # cache and matrix mirror, so object twins of dead flat nodes
            # become unreachable before the object mark-sweep below runs.
            # Dense blocks hold no node references at all -- they are
            # simply not roots (their cached flat mirror is invalidated by
            # the kernel's generation bump inside ``collect``).
            flat_roots = [e for e in roots if type(e) is FlatEdge]
            roots = [e for e in roots
                     if type(e) is not FlatEdge and type(e) is not DenseState]
            flat_freed = self.flat.collect(flat_roots)
        live: set[int] = set()
        stack = [e.node for e in roots if e.weight != 0]
        stack.extend(e.node for e in self._identity_cache if e.weight != 0)
        while stack:
            node = stack.pop()
            if node.level == -1:
                continue
            ident = id(node)
            if ident in live:
                continue
            live.add(ident)
            for child in node.edges:
                if child.weight != 0:
                    stack.append(child.node)
        removed = self.tables.vectors.remove_unreferenced(live)
        removed += self.tables.matrices.remove_unreferenced(live)
        dropped = 0
        if removed:
            # Entries may hold (or be keyed by) just-removed nodes; a later
            # hit could resurrect a node whose id has been reused.  Wipe.
            dropped = self.clear_compute_tables()
        stats = self.gc_stats
        stats.collections += 1
        stats.nodes_freed += removed
        stats.flat_slots_freed += flat_freed
        stats.compute_entries_dropped += dropped
        stats.pause_seconds += time.perf_counter() - started
        if not removed and not flat_freed:
            stats.ineffective += 1
        return removed + flat_freed

    def live_node_count(self) -> int:
        """Total nodes currently interned (vector + matrix tables), plus
        allocated flat-kernel slots when the iterative kernel is active."""
        count = len(self.tables.vectors) + len(self.tables.matrices)
        if self.flat is not None:
            count += self.flat.live_nodes
        return count

    # ------------------------------------------------------------------
    # integrity auditing
    # ------------------------------------------------------------------

    def interned_node_ids(self) -> set[int]:
        """Ids of every node currently interned (vector and matrix tables)."""
        ids = {id(node) for node in self.tables.vectors.nodes()}
        ids.update(id(node) for node in self.tables.matrices.nodes())
        return ids

    def check_invariants(self, roots: list[Edge] | None = None,
                         max_violations: int = 100) -> list[str]:
        """Audit the package's structural invariants; return violations.

        After thousands of GC cycles, cache overwrites and (with
        degradation enabled) in-place state pruning, a long run has no way
        to *know* its tables are still consistent -- this auditor makes
        the invariants checkable.  It verifies:

        * **unique-table canonicity** -- every interned node is stored
          under the key recomputed from its current ``(level, edges)``,
          and no two interned nodes share that key (no duplicates);
        * **normalisation** -- every node's dominant child weight has
          magnitude 1 (within the complex table's tolerance) and no child
          weight exceeds magnitude 1;
        * **level ordering / quasi-reducedness** -- every non-zero child
          edge of a level-``z`` node points to level ``z - 1`` (the
          terminal for ``z == 0``), zero-weight edges point at the
          terminal, and child nodes are themselves interned;
        * **compute-table liveness** -- every node referenced from a
          compute-table key or value is still interned (a dangling entry
          could resurrect a freed node id);
        * **root reachability** (when ``roots`` is given) -- every node
          reachable from the given roots is interned.

        Returns a list of human-readable violation messages, each naming
        the corruption site; an empty list means the audit passed.  The
        scan stops after ``max_violations`` findings.
        """
        violations: list[str] = []
        tolerance = max(self.complex_table.tolerance * 8, 1e-12)
        if roots:
            roots = [edge.to_flat() if type(edge) is DenseState else edge
                     for edge in roots]
            for edge in roots:
                if type(edge) is FlatEdge and edge.weight != 0:
                    edge.node  # materialise before snapshotting interned ids
        interned = self.interned_node_ids()

        def note(message: str) -> bool:
            violations.append(message)
            return len(violations) >= max_violations

        for species, table, arity in (
                ("vector", self.tables.vectors, 2),
                ("matrix", self.tables.matrices, 4)):
            by_canonical_key: dict[tuple, object] = {}
            for stored_key, node in table.items():
                name = f"{species} node {id(node):#x} (level {node.level})"
                if node.level < 0:
                    if note(f"{name}: interned node has terminal level"):
                        return violations
                    continue
                if len(node.edges) != arity:
                    if note(f"{name}: {len(node.edges)} successors, "
                            f"expected {arity}"):
                        return violations
                    continue
                canonical = table.canonical_key(node)
                if canonical != stored_key:
                    if note(f"{name}: stored under a key that no longer "
                            f"matches its (level, edges) -- edges or "
                            f"weights were mutated after interning"):
                        return violations
                twin = by_canonical_key.get(canonical)
                if twin is not None:
                    if note(f"duplicate unique-table entries: {species} "
                            f"nodes {id(twin):#x} and {id(node):#x} share "
                            f"(level, edges) at level {node.level}"):
                        return violations
                else:
                    by_canonical_key[canonical] = node
                max_magnitude = 0.0
                for position, child in enumerate(node.edges):
                    where = f"{name}, child {position}"
                    weight = child.weight
                    if weight == 0:
                        if child.node.level != -1:
                            if note(f"{where}: zero-weight edge does not "
                                    f"point at the terminal"):
                                return violations
                        continue
                    magnitude = abs(weight)
                    if magnitude > max_magnitude:
                        max_magnitude = magnitude
                    if magnitude > 1.0 + tolerance:
                        if note(f"{where}: denormalised edge weight "
                                f"{weight!r} (|w| = {magnitude:.12g} > 1)"):
                            return violations
                    expected = node.level - 1
                    child_level = child.node.level
                    # Identity-skipping edges make level *gaps* legal in
                    # matrix DDs (the skipped levels act as identity);
                    # children above their parent stay corrupt.
                    gap_ok = (self.identity_edges and species == "matrix"
                              and -1 <= child_level < expected)
                    if child_level != expected and not gap_ok:
                        if note(f"{where}: level ordering broken -- child "
                                f"at level {child_level}, expected "
                                f"{expected}"):
                            return violations
                    elif child_level != -1 and id(child.node) not in interned:
                        if note(f"{where}: child node {id(child.node):#x} "
                                f"is not interned in any unique table"):
                            return violations
                if max_magnitude and abs(max_magnitude - 1.0) > tolerance:
                    if note(f"{name}: denormalised node -- dominant child "
                            f"weight has magnitude {max_magnitude:.12g}, "
                            f"expected 1"):
                        return violations

        for table_name, cache in self.tables.compute_tables().items():
            for key, value in cache.entries():
                referenced = [part for part in key
                              if hasattr(part, "level")
                              and hasattr(part, "edges")]
                if isinstance(value, Edge) and value.weight != 0:
                    referenced.append(value.node)
                for node in referenced:
                    if node.level != -1 and id(node) not in interned:
                        if note(f"compute table {table_name!r}: entry "
                                f"references node {id(node):#x} (level "
                                f"{node.level}) that is no longer interned "
                                f"-- dangling entry could resurrect a "
                                f"freed id"):
                            return violations
                        break

        if roots:
            stack = [edge.node for edge in roots if edge.weight != 0]
            seen: set[int] = set()
            while stack:
                node = stack.pop()
                if node.level == -1 or id(node) in seen:
                    continue
                seen.add(id(node))
                if id(node) not in interned:
                    if note(f"root-reachable node {id(node):#x} (level "
                            f"{node.level}) is not interned"):
                        return violations
                    continue
                stack.extend(child.node for child in node.edges
                             if child.weight != 0)
        if self.flat is not None and len(violations) < max_violations:
            violations.extend(self.flat.check_invariants(
                max_violations - len(violations)))
        return violations

    def assert_invariants(self, roots: list[Edge] | None = None) -> None:
        """Run :meth:`check_invariants`; raise :class:`DDIntegrityError`
        when any violation is found."""
        violations = self.check_invariants(roots)
        if violations:
            raise DDIntegrityError(violations)
