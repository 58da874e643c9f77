"""Iterative flat-array DD kernel (the ``Package(kernel="iterative")`` path).

The recursive object kernel in :mod:`repro.dd.package` spends most of its
time on Python overhead that has nothing to do with DD arithmetic: one
:class:`~repro.dd.edge.Edge` allocation per visited child, a unique-table
tuple key per node, complex-table probes per weight, and a stack frame per
recursion.  This module re-implements the hot operations (local gate
application, vector addition, matrix-vector multiplication) over a *flat*
struct-of-arrays node store:

* a vector node is an **int index** into five parallel Python lists
  (``lvl``, ``c0``, ``c1``, ``w0``, ``w1``); index 0 is the terminal;
* children are created before parents, so child indices are always smaller
  than parent indices -- garbage collection compacts the arrays in one
  ascending pass and node identity survives as order;
* weights are canonicalised through the package's complex table (attractor
  semantics: the first value seen in a tolerance neighbourhood becomes the
  representative), exactly like the recursive kernel -- see ``_rnd`` for
  why pure grid rounding is not an option;
* traversals are explicit work-stacks, not Python recursion, so a frame is
  a two-slot list instead of an interpreter frame;
* memo tables are plain dicts keyed by ints / small tuples, and addition
  entries are canonical modulo weight normalisation *and sign* -- one
  fused entry answers both ``x + r*y`` and ``x - r*y`` (the butterfly pair
  every Hadamard-like gate generates), which is what turns the historical
  0% ``add_vec`` hit rate into real reuse.

Plain Python lists beat numpy arrays for the *node store*: element access
on a numpy complex array boxes a fresh ``complex`` per read (~90ns) while a
list read returns the cached object (~35ns), and the kernel reads weights
far more often than it writes them.

Numpy earns its keep one level up, as edge weights in numpy complex
arrays: when a state's DD becomes dense enough that per-node Python
traversal costs more than touching every amplitude once with vectorised
arithmetic, the kernel *cuts over* to a :class:`DenseState` -- the full
amplitude block as one contiguous ``complex128`` array, with gate
application as a handful of numpy slice operations.  The cutover is driven
by a measured cost model (worklist units per apply pass vs. the projected
dense-pass cost, see ``apply_gate``), is capped so large sparse registers
never densify, can be disabled with ``Package(dense_blocks=False)``, and
converts back to a flat DD on demand (``DenseState.to_flat``: numpy
passes over the block, then per level one ``np.lexsort`` and, for each
distinct node the result reaches, one unique-table probe and at most one
complex-table probe).  Supremacy-style workloads whose states approach
maximal DD width spend almost all their time on the dense path; genuinely
sparse workloads (large Grover registers past the cap) never leave the
flat DD path.

State DDs live in the flat store as :class:`FlatEdge` roots; matrix DDs
stay object-based (they are small) and are imported into a flat mirror on
first use by ``mult_mv``.  Measurement stays in the flat store too: the
outcome probability is one ascending pass (``norm_and_one_mass``) and the
collapse is the same projection ``apply_gate`` memoises for controls
below a target.  Results cross back into the object world only on demand
(serialisation, audits) via :meth:`FlatKernel.obj_node`, which interns
materialised nodes in the package's ordinary unique table.
"""

from __future__ import annotations

import numpy as np

from .edge import Edge
from .node import TERMINAL

__all__ = ["DenseState", "FlatEdge", "FlatKernel"]

#: Bits reserved for gate/projection spec ids in packed apply-memo keys
#: ``(node_index << _SPEC_BITS) | spec_id``.
_SPEC_BITS = 20
_SPEC_LIMIT = 1 << _SPEC_BITS

#: Gate kinds classified once per prepared gate (see ``prepare_gate``).
_DIAG, _ANTI, _BFLY, _GENERAL = 0, 1, 2, 3


class FlatEdge:
    """Root edge of a DD living in a :class:`FlatKernel`'s flat store.

    Mirrors the :class:`~repro.dd.edge.Edge` interface the engine and the
    serialisation / audit layers rely on (``.node``, ``.level``,
    ``.weight``, ``is_zero``); accessing ``.node`` materialises the flat
    sub-DD into ordinary interned object nodes.  Kernel GC compacts the
    store and *mutates* ``index`` in place, which is why roots must be
    registered with the engine (they are: the engine's GC roots are exactly
    the edges passed to ``Package.garbage_collect``).
    """

    __slots__ = ("kernel", "index", "weight")

    def __init__(self, kernel: "FlatKernel", index: int,
                 weight: complex) -> None:
        self.kernel = kernel
        self.index = index
        self.weight = weight

    @property
    def node(self):
        """Materialise (and intern) the object node for this root."""
        return self.kernel.obj_node(self.index)

    @property
    def level(self) -> int:
        return self.kernel.lvl[self.index]

    def is_zero(self) -> bool:
        return self.weight == 0

    def is_terminal(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return (f"FlatEdge(index={self.index}, level={self.level}, "
                f"weight={self.weight})")


class DenseState:
    """A state held as one contiguous amplitude block (``complex128``).

    Produced by the iterative kernel's density cutover (see
    :meth:`FlatKernel.apply_gate`); consumed transparently by
    ``Package.apply_gate``, which applies further gates with vectorised
    numpy slice arithmetic instead of DD traversal.  Everything that needs
    DD structure (addition, matrix products, serialisation, audits) goes
    through :meth:`to_flat`, which rebuilds the flat DD level by level
    (:meth:`FlatKernel.from_dense`) and caches the result.  The cache is
    tagged with the kernel's GC generation: a kernel collection compacts
    flat indices, so a cached root from an older generation is silently
    rebuilt instead of dereferencing remapped slots.

    Amplitude index bit ``q`` is qubit ``q`` (little-endian), matching
    ``Package.basis_state``.
    """

    __slots__ = ("kernel", "amps", "level", "_flat", "_flat_gen")

    def __init__(self, kernel: "FlatKernel", amps, level: int) -> None:
        self.kernel = kernel
        self.amps = amps
        self.level = level
        self._flat = None
        self._flat_gen = -1

    def to_flat(self) -> FlatEdge:
        """The equivalent flat-DD root (cached per kernel GC generation)."""
        if self._flat is None or self._flat_gen != self.kernel.generation:
            self._flat = self.kernel.from_dense(self.amps)
            self._flat_gen = self.kernel.generation
        return self._flat

    @property
    def node(self):
        """Materialise the object node (via the flat store)."""
        return self.to_flat().node

    @property
    def weight(self) -> complex:
        return self.to_flat().weight

    def amplitude(self, basis_index: int) -> complex:
        return complex(self.amps[basis_index])

    def size_proxy(self) -> int:
        """Cheap state-size stand-in: the amplitude-block length.

        Per-step size tracking must not rebuild the DD -- or even scan the
        block (a ``count_nonzero`` pass per gate measurably dents the dense
        fast path) -- so while a state is dense the engine records the
        block capacity, the memory the dense representation actually
        holds, in ``peak_dense_amps``; ``peak_state_nodes`` counts only DD
        states.  ``Package.count_nodes`` of a dense block returns this
        value too.  ``final_state_nodes`` is exact either way -- the
        engine solidifies the state back to a DD inside the timed region
        and counts it.
        """
        return self.amps.size

    def is_zero(self) -> bool:
        return False

    def is_terminal(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"DenseState(level={self.level}, amps={self.amps.size})"


class FlatKernel:
    """Iterative worklist kernel over a flat vector-node store."""

    # -- density-cutover cost model (see apply_gate) -------------------
    #: never densify a register larger than this many amplitudes
    DENSE_MAX_AMPS = 1 << 22
    #: cumulative worklist units before cutover is considered at all --
    #: gives the EWMA a stable estimate and guarantees every run records
    #: a real DD phase (compute-table stats, add_vec reuse) first
    DENSE_WARMUP_UNITS = 512
    #: estimated cost of one worklist unit (frame visit / add probe), us
    DENSE_UNIT_COST = 1.2
    #: estimated fixed + per-amplitude cost of one dense pass, us
    DENSE_FIXED_COST = 10.0
    DENSE_AMP_COST = 0.0015
    #: EWMA smoothing factor for the per-pass unit estimate
    DENSE_EWMA_ALPHA = 0.3

    def __init__(self, package) -> None:
        # The kernel keeps the package parts it reads, never the package
        # itself: a back-reference would put every iterative package in a
        # reference cycle that only the cyclic collector frees -- and the
        # engine and Shor's order finder pause that collector on purpose.
        self.counters = package.counters
        #: the package's vector unique table (obj_node interns into it)
        self.vectors = package.tables.vectors
        self.zero = package.zero
        #: object ids of identity matrix DDs (the I*v shortcut)
        self.identity_ids = package._mult_identity_ids
        self.tolerance = tol = package.complex_table.tolerance
        self._grid = 1.0 / tol
        #: canonical-representative lookup (attractor semantics, see _rnd)
        self._lookup = package.complex_table.lookup
        # -- flat vector store; slot 0 is the terminal ------------------
        self.lvl: list[int] = [-1]
        self.c0: list[int] = [0]
        self.c1: list[int] = [0]
        self.w0: list[complex] = [0j]
        self.w1: list[complex] = [0j]
        #: hash-consing for flat nodes: (level, i0, q0, i1, q1) -> index
        self.unique: dict[tuple, int] = {}
        # -- memo tables (unbounded dicts; cleared on kernel GC) --------
        #: packed (idx << _SPEC_BITS) | spec_id -> (idx, weight)
        self.apply_memo: dict[int, tuple] = {}
        #: canonical (i, j, rho) -> (plus_i, plus_w, minus_i, minus_w)
        self.pair_memo: dict[tuple, tuple] = {}
        #: (matrix_idx, vector_idx) -> (idx, weight)
        self.mult_memo: dict[tuple, tuple] = {}
        # -- operation statistics (merged into Package.cache_stats) -----
        self.add_lookups = 0
        self.add_hits = 0
        self.apply_lookups = 0
        self.apply_hits = 0
        self.mult_lookups = 0
        self.mult_hits = 0
        # -- flat matrix mirror (populated on demand by mult_mv) --------
        #: per matrix node: (i00, w00, i01, w01, i10, w10, i11, w11)
        self.ment: list[tuple] = [(0, 0j) * 4]
        #: flat matrix indices that are identity DDs (I*v shortcut)
        self.midn: set[int] = set()
        self._m_import: dict[int, int] = {}
        #: keeps imported object nodes alive so their ids cannot be reused
        self._m_keepalive: list = []
        # -- gate prep: package spec ids -> dense kernel spec ids -------
        self._kernel_ids: dict[int, int] = {}
        self._prep: dict[int, tuple] = {}
        # -- materialisation cache: flat index -> interned object node --
        self._obj_cache: dict[int, object] = {}
        #: stored reachable-node counts of counted roots (see count_nodes)
        self._sizes: dict[int, int] = {}
        # -- dense-block cutover state (see apply_gate) -----------------
        #: whether density cutover is allowed (Package(dense_blocks=...))
        self.dense_blocks = getattr(package, "dense_blocks", True)
        #: GC generation; bumped by collect() so DenseState caches expire
        self.generation = 0
        #: EWMA of worklist units (apply frames + add probes) per pass
        self._dense_ewma: float | None = None
        #: cumulative worklist units since kernel creation (warmup gate)
        self._dense_units = 0
        #: numpy control-selector cache: (kernel_id, num_amps) -> selectors
        self._dense_sel: dict[tuple, tuple] = {}
        #: telemetry: dense passes applied / cutovers taken
        self.dense_applies = 0
        self.dense_cutovers = 0

    # ------------------------------------------------------------------
    # weight canonicalisation and node construction
    # ------------------------------------------------------------------

    def _rnd(self, value: complex) -> complex:
        """Snap ``value`` to its canonical complex-table representative.

        Pure grid rounding is NOT enough here: two runs of the same logical
        amplitude computed through different operation orders differ by a
        few ULPs, and when such a pair straddles a grid boundary they round
        to *different* canonical values, so structurally identical subtrees
        stop unifying and the flat store (and every memo keyed on it) blows
        up combinatorially -- measured 47x node inflation on Grover-10.
        The package's :class:`ComplexTable` gives attractor semantics
        instead (first value in a tolerance neighbourhood becomes the
        representative, with neighbour-bucket probing), and its exact-value
        front cache makes the common repeat-lookup a single dict probe.
        """
        return self._lookup(value)

    def _make(self, level: int, i0: int, a0: complex,
              i1: int, a1: complex) -> tuple:
        """Intern the normalised node ``(level, a0*[i0], a1*[i1])``.

        Returns ``(index, norm)`` with the dominant child weight divided
        out, mirroring ``Package.make_vector_node``'s normalisation rule
        (the magnitude-dominant weight becomes exactly ``1+0j``).  Zero
        (or zero-rounding) children are snapped to the terminal so quasi-
        reducedness holds structurally.
        """
        if abs(a1) > abs(a0) + self.tolerance:
            norm = a1
        else:
            norm = a0
        if norm == 0:
            return 0, 0j
        lookup = self._lookup
        if a0 == 0:
            q0 = 0j
            i0 = 0
        elif a0 == norm:
            q0 = 1 + 0j
        else:
            q0 = lookup(a0 / norm)
            if q0 == 0:
                i0 = 0
        if a1 == 0:
            q1 = 0j
            i1 = 0
        elif a1 == norm:
            q1 = 1 + 0j
        else:
            q1 = lookup(a1 / norm)
            if q1 == 0:
                i1 = 0
        if q0 == 0 and q1 == 0:
            return 0, 0j
        key = (level, i0, q0, i1, q1)
        idx = self.unique.get(key)
        if idx is None:
            idx = len(self.lvl)
            self.lvl.append(level)
            self.c0.append(i0)
            self.c1.append(i1)
            self.w0.append(q0)
            self.w1.append(q1)
            self.unique[key] = idx
            self.counters.nodes_created += 1
        return idx, lookup(norm)

    # ------------------------------------------------------------------
    # state construction and interop with the object world
    # ------------------------------------------------------------------

    def basis_state(self, num_qubits: int, index: int) -> FlatEdge:
        """Flat computational basis state ``|index>`` (little-endian bits)."""
        idx = 0
        weight = 1 + 0j
        for level in range(num_qubits):
            if (index >> level) & 1:
                idx, w = self._make(level, 0, 0j, idx, weight)
            else:
                idx, w = self._make(level, idx, weight, 0, 0j)
            weight = w
        return FlatEdge(self, idx, weight)

    def import_vector(self, edge: Edge) -> FlatEdge:
        """Copy an object state DD into the flat store."""
        if edge.weight == 0:
            return FlatEdge(self, 0, 0j)
        idx, factor = self._import_vector_node(edge.node, {})
        return FlatEdge(self, idx, factor * edge.weight)

    # The import walks are methods, not nested closures: a closure that
    # calls itself would keep the kernel alive in a reference cycle until
    # the cyclic collector runs -- which the engine pauses on purpose.

    def _import_vector_node(self, node, memo: dict[int, tuple]) -> tuple:
        """``(index, factor)`` of the flat copy of object ``node``."""
        if node.level == -1:
            return 0, 1 + 0j
        got = memo.get(id(node))
        if got is not None:
            return got
        e0, e1 = node.edges
        if e0.weight == 0:
            i0, f0 = 0, 0j
        else:
            i0, f0 = self._import_vector_node(e0.node, memo)
            f0 *= e0.weight
        if e1.weight == 0:
            i1, f1 = 0, 0j
        else:
            i1, f1 = self._import_vector_node(e1.node, memo)
            f1 *= e1.weight
        result = self._make(node.level, i0, f0, i1, f1)
        memo[id(node)] = result
        return result

    def obj_node(self, idx: int):
        """Materialise flat node ``idx`` as an interned object node.

        Flat child weights already satisfy the normalisation invariant
        (dominant weight exactly ``1+0j``), so the nodes are interned via
        the unique table *directly* -- re-normalising through
        ``make_vector_node`` could pick a different representative and
        introduce a root factor, which callers of ``.node`` cannot absorb.
        """
        if idx == 0:
            return TERMINAL
        cache = self._obj_cache
        node = cache.get(idx)
        if node is not None:
            return node
        c0 = self.c0
        c1 = self.c1
        w0 = self.w0
        w1 = self.w1
        need: set[int] = set()
        stack = [idx]
        while stack:
            i = stack.pop()
            if i in need:
                continue
            need.add(i)
            ch = c0[i]
            if ch and w0[i] != 0 and ch not in need and ch not in cache:
                stack.append(ch)
            ch = c1[i]
            if ch and w1[i] != 0 and ch not in need and ch not in cache:
                stack.append(ch)
        zero = self.zero
        table = self.vectors
        lvl = self.lvl
        # Children always have smaller indices, so one ascending pass
        # materialises every dependency before its parents.
        for i in sorted(need):
            if i in cache:
                continue
            q0 = w0[i]
            q1 = w1[i]
            e0 = zero if q0 == 0 else Edge(cache.get(c0[i], TERMINAL), q0)
            e1 = zero if q1 == 0 else Edge(cache.get(c1[i], TERMINAL), q1)
            node = table.get_or_insert(lvl[i], (e0, e1))
            if table.created:
                self.counters.nodes_created += 1
            cache[i] = node
        return cache[idx]

    def amplitude(self, edge: FlatEdge, basis_index: int) -> complex:
        """Amplitude of ``|basis_index>`` (product of flat path weights)."""
        w = edge.weight
        i = edge.index
        lvl = self.lvl
        while i and w != 0:
            if (basis_index >> lvl[i]) & 1:
                w *= self.w1[i]
                i = self.c1[i]
            else:
                w *= self.w0[i]
                i = self.c0[i]
        return w

    def _levels(self, idx: int) -> list[set[int]]:
        """The internal nodes ``idx`` reaches, one set per level, top first.

        A zero stub points at the terminal and every non-zero child sits
        exactly one level down (both audited by ``check_invariants``), so
        each frontier is exactly the set of nodes on one level.
        """
        c0 = self.c0
        c1 = self.c1
        levels = []
        frontier = {idx} if idx else set()
        while frontier:
            levels.append(frontier)
            below = {c0[i] for i in frontier}
            below.update([c1[i] for i in frontier])
            below.discard(0)
            frontier = below
        return levels

    def count_nodes(self, idx: int) -> int:
        """Internal flat nodes reachable from ``idx`` (terminal excluded).

        This runs after every simulation step, so a root is walked once,
        one level at a time, and its count stored in ``_sizes``: flat
        nodes never change, but ``collect`` renumbers them and so clears
        the stored counts.
        """
        count = self._sizes.get(idx)
        if count is None:
            count = sum(map(len, self._levels(idx)))
            self._sizes[idx] = count
        return count

    def norm_and_one_mass(self, idx: int,
                          qubit: int) -> tuple[float, float]:
        """``(squared norm, mass with qubit = 1)`` of the vector ``[idx]``.

        The sums measurement needs, formed as on object nodes (a node's
        value is ``|w0|^2 * value(c0) + |w1|^2 * value(c1)``) in one
        ascending pass over the levels ``idx`` reaches, from the lowest
        up, so every child is done before its parents.
        """
        w0 = self.w0
        w1 = self.w1
        c0 = self.c0
        c1 = self.c1
        levels = self._levels(idx)
        # Slot 0 is the terminal: every zero stub points there (weight 0),
        # and so does each non-zero child of a level-0 node (norm 1).
        norm = {0: 1.0}
        one = {0: 0.0}
        level = self.lvl[idx] - len(levels)
        for frontier in reversed(levels):
            level += 1
            for i in frontier:
                m0 = abs(w0[i]) ** 2
                m1 = abs(w1[i]) ** 2
                norm[i] = m0 * norm[c0[i]] + m1 * norm[c1[i]]
                if level > qubit:
                    one[i] = m0 * one[c0[i]] + m1 * one[c1[i]]
                elif level == qubit:
                    one[i] = m1 * norm[c1[i]]
        return norm[idx], one[idx]

    @property
    def live_nodes(self) -> int:
        """Flat slots currently allocated (vector + matrix, sans terminals)."""
        return len(self.lvl) - 1 + len(self.ment) - 1

    # ------------------------------------------------------------------
    # garbage collection: mark, compact ascending, remap roots
    # ------------------------------------------------------------------

    def collect(self, roots: list[FlatEdge]) -> int:
        """Compact the flat store down to what ``roots`` reach.

        Root edges are remapped *in place* (their ``index`` mutates).  All
        memo tables, the materialisation cache and the flat matrix mirror
        are dropped wholesale -- they key on indices / object ids that the
        compaction invalidates.  Returns the number of slots freed.
        """
        before = len(self.lvl) - 1
        c0 = self.c0
        c1 = self.c1
        w0 = self.w0
        w1 = self.w1
        live: set[int] = set()
        stack = [r.index for r in roots if r.weight != 0 and r.index]
        while stack:
            i = stack.pop()
            if i in live:
                continue
            live.add(i)
            ch = c0[i]
            if ch and w0[i] != 0:
                stack.append(ch)
            ch = c1[i]
            if ch and w1[i] != 0:
                stack.append(ch)
        # Ascending compaction keeps the child-before-parent ordering.
        remap: dict[int, int] = {0: 0}
        lvl = self.lvl
        new_lvl = [-1]
        new_c0 = [0]
        new_c1 = [0]
        new_w0 = [0j]
        new_w1 = [0j]
        new_unique: dict[tuple, int] = {}
        for i in sorted(live):
            new = len(new_lvl)
            remap[i] = new
            level = lvl[i]
            q0 = w0[i]
            q1 = w1[i]
            i0 = remap[c0[i]] if q0 != 0 else 0
            i1 = remap[c1[i]] if q1 != 0 else 0
            new_lvl.append(level)
            new_c0.append(i0)
            new_c1.append(i1)
            new_w0.append(q0)
            new_w1.append(q1)
            new_unique[(level, i0, q0, i1, q1)] = new
        self.lvl = new_lvl
        self.c0 = new_c0
        self.c1 = new_c1
        self.w0 = new_w0
        self.w1 = new_w1
        self.unique = new_unique
        for r in roots:
            if r.weight != 0 and r.index:
                r.index = remap[r.index]
            elif r.index:
                r.index = 0
        freed = before - (len(new_lvl) - 1)
        freed += len(self.ment) - 1
        self.clear_memos()
        self._obj_cache.clear()
        self._sizes.clear()
        self.ment = [(0, 0j) * 4]
        self.midn.clear()
        self._m_import.clear()
        self._m_keepalive.clear()
        self.generation += 1
        return freed

    def clear_memos(self) -> int:
        """Drop all memo tables; returns total entries dropped."""
        dropped = (len(self.apply_memo) + len(self.pair_memo)
                   + len(self.mult_memo))
        self.apply_memo.clear()
        self.pair_memo.clear()
        self.mult_memo.clear()
        return dropped

    def stats(self) -> dict:
        """Kernel memo statistics, shaped like ``ComputeTable.stats()``."""
        def table(lookups: int, hits: int, entries: int) -> dict:
            return {
                "lookups": lookups,
                "hits": hits,
                "misses": lookups - hits,
                "hit_rate": round(hits / lookups, 6) if lookups else 0.0,
                "entries": entries,
                "capacity": None,  # unbounded dict, cleared on kernel GC
            }

        return {
            "add_vec": table(self.add_lookups, self.add_hits,
                             len(self.pair_memo)),
            "apply_gate": table(self.apply_lookups, self.apply_hits,
                                len(self.apply_memo)),
            "mult_mv": table(self.mult_lookups, self.mult_hits,
                             len(self.mult_memo)),
            "dense": {
                "applies": self.dense_applies,
                "cutovers": self.dense_cutovers,
                "ewma_units": round(self._dense_ewma, 2)
                if self._dense_ewma is not None else None,
            },
        }

    def check_invariants(self, max_violations: int = 100) -> list[str]:
        """Audit the flat store's structural invariants."""
        violations: list[str] = []
        tol = max(self.tolerance * 8, 1e-12)
        lvl = self.lvl
        for i in range(1, len(lvl)):
            level = lvl[i]
            name = f"flat node {i} (level {level})"
            dominant = 0.0
            for ch, w in ((self.c0[i], self.w0[i]), (self.c1[i], self.w1[i])):
                mag = abs(w)
                if mag > dominant:
                    dominant = mag
                if w == 0:
                    if ch != 0:
                        violations.append(
                            f"{name}: zero-weight child not terminal")
                    continue
                if mag > 1.0 + tol:
                    violations.append(
                        f"{name}: denormalised child weight {w!r}")
                if ch >= i:
                    violations.append(
                        f"{name}: child index {ch} >= parent index")
                elif lvl[ch] != level - 1:
                    violations.append(
                        f"{name}: child at level {lvl[ch]}, "
                        f"expected {level - 1}")
            if dominant and abs(dominant - 1.0) > tol:
                violations.append(
                    f"{name}: dominant child weight magnitude "
                    f"{dominant:.12g}, expected 1")
            if self.unique.get((level, self.c0[i], self.w0[i],
                                self.c1[i], self.w1[i])) != i:
                violations.append(f"{name}: not interned under its own key")
            if len(violations) >= max_violations:
                break
        return violations

    # ------------------------------------------------------------------
    # fused +/- addition with sign-canonical memo keys
    # ------------------------------------------------------------------
    #
    # The memo entry for canonical key ``(i, j, rho)`` (``i < j``, ``rho``
    # sign-positive) is the 4-tuple ``(plus_i, plus_w, minus_i, minus_w)``
    # for *both* ``[i] + rho*[j]`` and ``[i] - rho*[j]`` on weight-1
    # inputs.  Any addition of two distinct nodes reduces to this key:
    # common weights are divided out into ``rho`` (canonical modulo
    # normalisation), operand order is fixed by index (``x + r*y`` ==
    # ``r*(y + (1/r)*x)``), and the ratio's sign is folded into which half
    # of the entry is read.  The butterfly gates (H and friends) produce
    # exactly such +/- sibling pairs, which is what lifts ``add_vec`` off
    # its historical 0% hit rate.
    #
    # Accounting: a fused probe serves two logical additions, so it counts
    # 2 lookups; a miss still counts 1 hit (the entry's other half answers
    # the second addition without recomputation).

    def _canon(self, i: int, j: int, rho: complex) -> tuple:
        """Canonical key + read-back transform for ``[i] + rho*[j]``.

        Returns ``(key, xf)`` where ``xf`` is ``None`` (entry applies
        directly) or ``(plus_scale, minus_scale, swapped)``: the caller's
        plus result is the entry's plus (minus when ``swapped``) scaled by
        ``plus_scale``, and symmetrically for minus.
        """
        if i > j:
            # x + r*y == r*(y + (1/r)*x): swap operands, invert the ratio.
            inv = self._rnd(1 / rho)
            if inv.real < 0 or (inv.real == 0 and inv.imag < 0):
                return (j, i, -inv), (rho, -rho, True)
            return (j, i, inv), (rho, -rho, False)
        if rho.real < 0 or (rho.real == 0 and rho.imag < 0):
            return (i, j, -rho), (1 + 0j, 1 + 0j, True)
        return (i, j, rho), None

    def _pair_compute(self, root_key: tuple) -> None:
        """Compute (and memoise) the fused entry for canonical ``root_key``."""
        memo = self.pair_memo
        lvl = self.lvl
        c0 = self.c0
        c1 = self.c1
        w0 = self.w0
        w1 = self.w1
        counters = self.counters
        stack = [[root_key, None]]
        while stack:
            frame = stack[-1]
            key = frame[0]
            if key in memo:
                stack.pop()
                continue
            recs = frame[1]
            if recs is None:
                i, j, rho = key
                recs = []
                missing = []
                pushed = set()
                for xi, xw, yi, yw in ((c0[i], w0[i], c0[j], w0[j]),
                                       (c1[i], w1[i], c1[j], w1[j])):
                    if yw == 0:
                        recs.append((None, xi, xw, xi, xw))
                        continue
                    ryw = rho * yw
                    if xw == 0:
                        recs.append((None, yi, ryw, yi, -ryw))
                        continue
                    if xi == yi:
                        recs.append((None, xi, xw + ryw, xi, xw - ryw))
                        continue
                    sub = self._rnd(ryw / xw)
                    if sub == 0:
                        recs.append((None, xi, xw, xi, xw))
                        continue
                    ck, xf = self._canon(xi, yi, sub)
                    recs.append((ck, xf, xw))
                    self.add_lookups += 2
                    if ck in memo or ck in pushed:
                        self.add_hits += 2
                    else:
                        self.add_hits += 1
                        pushed.add(ck)
                        missing.append(ck)
                frame[1] = recs
                if missing:
                    for ck in missing:
                        stack.append([ck, None])
                continue
            parts = []
            for rec in recs:
                if rec[0] is None:
                    parts.append(rec[1:])
                    continue
                ck, xf, scale = rec
                e = memo[ck]
                if xf is None:
                    parts.append((e[0], e[1] * scale, e[2], e[3] * scale))
                else:
                    ps, ms, swapped = xf
                    if swapped:
                        parts.append((e[2], e[3] * ps * scale,
                                      e[0], e[1] * ms * scale))
                    else:
                        parts.append((e[0], e[1] * ps * scale,
                                      e[2], e[3] * ms * scale))
            (p0i, p0w, m0i, m0w), (p1i, p1w, m1i, m1w) = parts
            level = lvl[key[0]]
            pi, pw = self._make(level, p0i, p0w, p1i, p1w)
            mi, mw = self._make(level, m0i, m0w, m1i, m1w)
            counters.add_recursions += 1
            memo[key] = (pi, pw, mi, mw)
            stack.pop()

    def _pair_both(self, i: int, j: int, rho: complex) -> tuple:
        """Fused ``([i] + rho*[j], [i] - rho*[j])`` on weight-1 inputs.

        Requires ``i != j``, ``rho != 0``.  Returns
        ``(plus_i, plus_w, minus_i, minus_w)``.
        """
        key, xf = self._canon(i, j, rho)
        memo = self.pair_memo
        self.add_lookups += 2
        entry = memo.get(key)
        if entry is None:
            self.add_hits += 1
            self._pair_compute(key)
            entry = memo[key]
        else:
            self.add_hits += 2
        if xf is None:
            return entry
        ps, ms, swapped = xf
        if swapped:
            return entry[2], entry[3] * ps, entry[0], entry[1] * ms
        return entry[0], entry[1] * ps, entry[2], entry[3] * ms

    def _add2(self, xi: int, xw: complex, yi: int, yw: complex) -> tuple:
        """Plain sum ``xw*[xi] + yw*[yi]`` as ``(idx, weight)``."""
        if xw == 0:
            return yi, yw
        if yw == 0:
            return xi, xw
        if xi == yi:
            return xi, xw + yw
        rho = self._rnd(yw / xw)
        if rho == 0:
            return xi, xw
        key, xf = self._canon(xi, yi, rho)
        memo = self.pair_memo
        self.add_lookups += 1
        entry = memo.get(key)
        if entry is None:
            self._pair_compute(key)
            entry = memo[key]
        else:
            self.add_hits += 1
        if xf is None:
            return entry[0], entry[1] * xw
        ps, ms, swapped = xf
        if swapped:
            return entry[2], entry[3] * ps * xw
        return entry[0], entry[1] * ps * xw

    def add(self, x: FlatEdge, y: FlatEdge) -> FlatEdge:
        """Sum of two flat state DDs (public ``add_vectors`` route)."""
        ri, rw = self._add2(x.index, x.weight, y.index, y.weight)
        return FlatEdge(self, ri, rw)

    # ------------------------------------------------------------------
    # gate preparation and application
    # ------------------------------------------------------------------

    def _kernel_id(self, spec_id: int) -> int:
        """Map a package spec id to a dense kernel id < 2**_SPEC_BITS."""
        kid = self._kernel_ids.get(spec_id)
        if kid is None:
            kid = len(self._kernel_ids)
            if kid >= _SPEC_LIMIT:
                raise RuntimeError(
                    f"kernel gate-spec space exhausted ({_SPEC_LIMIT} "
                    "distinct specs); packed memo keys cannot grow further")
            self._kernel_ids[spec_id] = kid
        return kid

    def prepare_gate(self, u: tuple, control_map: dict, lower: dict,
                     gate_id: int, proj_id: int, target: int) -> tuple:
        """Kernel-side gate spec for a package-prepared gate (cached).

        Classifies the 2x2 so application dispatches without re-testing:
        diagonal and anti-diagonal gates are weight-only / child-swap
        (zero additions), *butterflies* (all entries non-zero with
        ``u11/u10 == -u01/u00``, e.g. Hadamard) compute both output
        children from one fused +/- pair, everything else falls back to
        two plain additions.
        """
        prep = self._prep.get(gate_id)
        if prep is not None:
            return prep
        kid = self._kernel_id(gate_id)
        pid = self._kernel_id(proj_id) if proj_id >= 0 else -1
        above = {q: val for q, val in control_map.items() if q > target}
        u00, u01, u10, u11 = u
        if u01 == 0 and u10 == 0:
            kind = _DIAG
        elif u00 == 0 and u11 == 0:
            kind = _ANTI
        elif (u00 != 0 and u01 != 0 and u10 != 0 and u11 != 0
              and abs(u11 / u10 + u01 / u00) < 1e-12):
            kind = _BFLY
        else:
            kind = _GENERAL
        lowest = min(lower) if lower else 0
        prep = (kid, target, above, kind, u, pid, lowest, lower)
        self._prep[gate_id] = prep
        return prep

    def apply_gate(self, edge: FlatEdge, prep: tuple):
        """Apply a prepared gate to a flat state root.

        Tracks a cost model over the DD pass it just ran: ``units`` is the
        number of worklist probes (apply frames plus addition probes) the
        pass consumed, smoothed into an EWMA.  Once past a warmup volume,
        if the estimated DD cost per pass exceeds the projected dense-pass
        cost for this register size (and the register fits the dense cap),
        the state cuts over to a :class:`DenseState` and later gates run as
        vectorised numpy arithmetic instead.  Sparse states stay on the DD
        path forever: their per-pass unit count never approaches the
        amplitude count.

        The units are counts, not clock readings, so the cutover step --
        and every scheduling count downstream of it -- is a pure function
        of the operation stream.
        """
        if edge.weight == 0:
            return FlatEdge(self, 0, 0j)
        units0 = self.apply_lookups + self.add_lookups
        ri, rw = self._apply_root(edge.index, prep)
        result = FlatEdge(self, ri, rw * edge.weight)
        if not self.dense_blocks or ri == 0:
            return result
        units = self.apply_lookups + self.add_lookups - units0
        self._dense_units += units
        ewma = self._dense_ewma
        if ewma is None:
            ewma = float(units)
        else:
            ewma += self.DENSE_EWMA_ALPHA * (units - ewma)
        self._dense_ewma = ewma
        if self._dense_units >= self.DENSE_WARMUP_UNITS:
            amps = 1 << (self.lvl[ri] + 1)
            if amps <= self.DENSE_MAX_AMPS \
                    and ewma * self.DENSE_UNIT_COST \
                    >= self.DENSE_FIXED_COST + amps * self.DENSE_AMP_COST:
                self.dense_cutovers += 1
                return self.to_dense(result)
        return result

    def _apply_root(self, root: int, prep: tuple) -> tuple:
        kid, target, above, kind, u, pid, lowest, lower = prep
        memo = self.apply_memo
        counters = self.counters
        pk = (root << _SPEC_BITS) | kid
        got = memo.get(pk)
        if got is not None:
            self.apply_lookups += 1
            self.apply_hits += 1
            counters.apply_gate_recursions += 1
            return got
        lvl = self.lvl
        c0 = self.c0
        c1 = self.c1
        w0 = self.w0
        w1 = self.w1
        get = above.get
        lookups = 1
        hits = 0
        stack = [[root, False]]
        while stack:
            frame = stack[-1]
            i = frame[0]
            pk_i = (i << _SPEC_BITS) | kid
            if pk_i in memo:
                stack.pop()
                continue
            level = lvl[i]
            if level == target:
                memo[pk_i] = self._apply_target(i, prep)
                stack.pop()
                continue
            # Above the target: structural copy, or control split.
            active = get(level)
            i0 = c0[i]
            a0 = w0[i]
            i1 = c1[i]
            a1 = w1[i]
            counted = frame[1]
            frame[1] = True
            need0 = active != 1 and a0 != 0
            need1 = active != 0 and a1 != 0
            pending = False
            sub0 = sub1 = None
            if need0:
                sub0 = memo.get((i0 << _SPEC_BITS) | kid)
                if not counted:
                    lookups += 1
                    if sub0 is not None:
                        hits += 1
                if sub0 is None:
                    stack.append([i0, False])
                    pending = True
            if need1:
                same = need0 and i1 == i0
                sub1 = memo.get((i1 << _SPEC_BITS) | kid)
                if not counted:
                    lookups += 1
                    if sub1 is not None or same:
                        hits += 1
                if sub1 is None:
                    if not same:
                        stack.append([i1, False])
                    pending = True
            if pending:
                continue
            if active is None:
                t0i, t0w = (sub0[0], sub0[1] * a0) if need0 else (0, 0j)
                t1i, t1w = (sub1[0], sub1[1] * a1) if need1 else (0, 0j)
            elif active == 1:
                t0i, t0w = i0, a0
                t1i, t1w = (sub1[0], sub1[1] * a1) if need1 else (0, 0j)
            else:
                t0i, t0w = (sub0[0], sub0[1] * a0) if need0 else (0, 0j)
                t1i, t1w = i1, a1
            memo[pk_i] = self._make(level, t0i, t0w, t1i, t1w)
            stack.pop()
        self.apply_lookups += lookups
        self.apply_hits += hits
        counters.apply_gate_recursions += lookups
        return memo[pk]

    def _apply_target(self, i: int, prep: tuple) -> tuple:
        """One 2x2 application at the target level of flat node ``i``."""
        kind = prep[3]
        u00, u01, u10, u11 = prep[4]
        target = prep[1]
        i0 = self.c0[i]
        a0 = self.w0[i]
        i1 = self.c1[i]
        a1 = self.w1[i]
        lower = prep[7]
        if lower:
            # Controls below the target: add the gate's correction on the
            # all-controls-active projection -- new0 = v0 + (u00-1)*P(v0)
            # + u01*P(v1) (and symmetrically).  Diagonal 1-entries (the
            # untouched rows of a multi-controlled Z) then cost nothing.
            pid = prep[5]
            lowest = prep[6]
            if a0 != 0:
                p0i, p0w = self._project_root(i0, pid, lower, lowest)
                p0w *= a0
            else:
                p0i, p0w = 0, 0j
            if a1 != 0:
                p1i, p1w = self._project_root(i1, pid, lower, lowest)
                p1w *= a1
            else:
                p1i, p1w = 0, 0j
            d0i, d0w = self._add2(p0i, (u00 - 1) * p0w, p1i, u01 * p1w)
            n0i, n0w = self._add2(i0, a0, d0i, d0w)
            d1i, d1w = self._add2(p0i, u10 * p0w, p1i, (u11 - 1) * p1w)
            n1i, n1w = self._add2(i1, a1, d1i, d1w)
            return self._make(target, n0i, n0w, n1i, n1w)
        if kind == _DIAG:
            return self._make(target, i0, u00 * a0, i1, u11 * a1)
        if kind == _ANTI:
            return self._make(target, i1, u01 * a1, i0, u10 * a0)
        if kind == _BFLY:
            if a0 == 0:
                return self._make(target, i1, u01 * a1, i1, u11 * a1)
            if a1 == 0 or i0 == i1:
                if i0 == i1 and a1 != 0:
                    return self._make(target, i0, u00 * a0 + u01 * a1,
                                      i0, u10 * a0 + u11 * a1)
                return self._make(target, i0, u00 * a0, i0, u10 * a0)
            rho = self._rnd((u01 * a1) / (u00 * a0))
            if rho == 0:
                return self._make(target, i0, u00 * a0, i0, u10 * a0)
            pi, pw, mi, mw = self._pair_both(i0, i1, rho)
            # new1 = u10*a0*(v0 - rho*v1): the butterfly condition makes
            # the minus half of the fused pair the second output child.
            return self._make(target, pi, u00 * a0 * pw, mi, u10 * a0 * mw)
        n0i, n0w = self._add2(i0, u00 * a0, i1, u01 * a1)
        n1i, n1w = self._add2(i0, u10 * a0, i1, u11 * a1)
        return self._make(target, n0i, n0w, n1i, n1w)

    def _project_root(self, root: int, pid: int, lower: dict,
                      lowest: int) -> tuple:
        """Component of ``[root]`` where every control in ``lower`` is active."""
        lvl = self.lvl
        if lvl[root] < lowest:
            return root, 1 + 0j
        memo = self.apply_memo
        counters = self.counters
        pk = (root << _SPEC_BITS) | pid
        got = memo.get(pk)
        if got is not None:
            self.apply_lookups += 1
            self.apply_hits += 1
            counters.apply_gate_recursions += 1
            return got
        c0 = self.c0
        c1 = self.c1
        w0 = self.w0
        w1 = self.w1
        get = lower.get
        lookups = 1
        hits = 0
        stack = [[root, False]]
        while stack:
            frame = stack[-1]
            i = frame[0]
            pk_i = (i << _SPEC_BITS) | pid
            if pk_i in memo:
                stack.pop()
                continue
            level = lvl[i]
            active = get(level)
            i0 = c0[i]
            a0 = w0[i]
            i1 = c1[i]
            a1 = w1[i]
            counted = frame[1]
            frame[1] = True
            need0 = active != 1 and a0 != 0
            need1 = active != 0 and a1 != 0
            pending = False
            sub0 = sub1 = None
            if need0:
                if lvl[i0] < lowest:
                    sub0 = (i0, 1 + 0j)
                else:
                    sub0 = memo.get((i0 << _SPEC_BITS) | pid)
                    if not counted:
                        lookups += 1
                        if sub0 is not None:
                            hits += 1
                    if sub0 is None:
                        stack.append([i0, False])
                        pending = True
            if need1:
                if lvl[i1] < lowest:
                    sub1 = (i1, 1 + 0j)
                else:
                    same = need0 and i1 == i0 and lvl[i0] >= lowest
                    sub1 = memo.get((i1 << _SPEC_BITS) | pid)
                    if not counted:
                        lookups += 1
                        if sub1 is not None or same:
                            hits += 1
                    if sub1 is None:
                        if not same:
                            stack.append([i1, False])
                        pending = True
            if pending:
                continue
            t0i, t0w = (sub0[0], sub0[1] * a0) if need0 else (0, 0j)
            t1i, t1w = (sub1[0], sub1[1] * a1) if need1 else (0, 0j)
            memo[pk_i] = self._make(level, t0i, t0w, t1i, t1w)
            stack.pop()
        self.apply_lookups += lookups
        self.apply_hits += hits
        counters.apply_gate_recursions += lookups
        return memo[pk]

    # ------------------------------------------------------------------
    # dense amplitude blocks (density cutover)
    # ------------------------------------------------------------------

    def to_dense(self, edge: FlatEdge) -> DenseState:
        """Expand a flat state root into a :class:`DenseState`.

        Bottom-up over the reachable sub-DAG: each node's dense subvector
        is the weighted concatenation of its children's, memoised per node,
        so the total work is the sum of subvector sizes over *distinct*
        nodes, not over paths.
        """
        lvl = self.lvl
        c0 = self.c0
        c1 = self.c1
        w0 = self.w0
        w1 = self.w1
        root = edge.index
        reach = set()
        stack = [root]
        while stack:
            i = stack.pop()
            if i == 0 or i in reach:
                continue
            reach.add(i)
            stack.append(c0[i])
            stack.append(c1[i])
        vecs: dict[int, np.ndarray] = {}
        for i in sorted(reach):
            half = 1 << lvl[i]
            out = np.zeros(half * 2, dtype=np.complex128)
            q0 = w0[i]
            if q0 != 0:
                lo = c0[i]
                if lo == 0:
                    out[0] = q0
                else:
                    np.multiply(vecs[lo], q0, out=out[:half])
            q1 = w1[i]
            if q1 != 0:
                hi = c1[i]
                if hi == 0:
                    out[half] = q1
                else:
                    np.multiply(vecs[hi], q1, out=out[half:])
            vecs[i] = out
        amps = vecs[root] * edge.weight
        return DenseState(self, amps, lvl[root])

    def from_dense(self, amps) -> FlatEdge:
        """Rebuild a flat DD from an amplitude block, interning only the
        nodes the result reaches.

        Position ``p`` of level ``L`` pairs positions ``2p`` and ``2p + 1``
        of the level below (amplitudes, at level 0).  Its *norm*, the
        member that dominates under ``_make``'s rule
        (``|a1| > |a0| + tol``), is its amplitude one level up.  Three
        passes:

        1. bottom-up in numpy over the whole block: every position's norm
           and its two weight ratios (member / norm);
        2. top-down from the root: which positions are reached.  A ratio
           below tolerance in both components (``ComplexTable.is_zero``)
           is a zero edge, and nothing below it is reached;
        3. bottom-up over the reached positions only, interning them.  One
           stable ``np.lexsort`` on the child indices and tolerance-rounded
           ratios groups equal pairs, and each group is interned through
           its last member in sorted order: the dominant child gets weight
           exactly 1, the other one complex-table ``lookup`` unless it is a
           zero edge.

        So the work is per node of the result, apart from the numpy passes:
        noise under zero edges costs no node and no probe.  A position of
        weight zero is never reached and never groups with a reached one,
        so a block whose nonzero positions are all reached is grouped and
        interned as if every position took part.  Each position passes its
        raw norm upward; no norm is interned.  The ratios stay float64: for
        two sub-tolerance children they reach about tol/|tiny|, which
        overflows int64 on the grid.  Pairs split across groups near a
        rounding boundary still unify in the unique table.
        """
        size = int(amps.size)
        n = size.bit_length() - 1
        if size != 1 << n:
            raise ValueError("amplitude block length must be a power of 2")
        tol = self.tolerance
        levels = []
        wts = np.asarray(amps, dtype=np.complex128)
        for _ in range(n):
            pair = wts.reshape(-1, 2)
            hi = np.abs(pair[:, 1]) > np.abs(pair[:, 0]) + tol
            wts = np.where(hi, pair[:, 1], pair[:, 0])
            ratio = pair / np.where(wts == 0, 1, wts)[:, None]
            # not ComplexTable.is_zero, so a NaN ratio stays live and its
            # lookup rejects it
            live = ~((np.abs(ratio.real) < tol) & (np.abs(ratio.imag) < tol))
            levels.append((pair, hi, ratio, live))
        weight = complex(wts[0])
        if weight == 0:
            return FlatEdge(self, 0, 0j)
        reached = [None] * n
        reach = np.ones(1, dtype=bool)
        for level in range(n - 1, -1, -1):
            reached[level] = reach.nonzero()[0]
            if level:
                reach = reach.repeat(2) & levels[level][3].ravel()
        grid = self._grid
        lookup = self._lookup
        unique = self.unique
        counters = self.counters
        lvl, c0, c1, w0, w1 = self.lvl, self.c0, self.c1, self.w0, self.w1
        one = 1 + 0j
        idx = np.zeros(size, dtype=np.int64)
        for level in range(n):
            pair, hi, ratio, live = levels[level]
            sel = reached[level]
            kids = idx.reshape(-1, 2).take(sel, axis=0)
            grid_ratio = ratio.take(sel, axis=0).view(np.float64) * grid
            # Columns i0, i1, then the rounded q0.real, q0.imag, q1.real,
            # q1.imag; lexsort takes its primary key last.
            keys = np.concatenate((kids, grid_ratio.round()), axis=1)
            order = np.lexsort(keys.T[::-1])
            ordered = keys.take(order, axis=0)
            last = np.empty(order.size, dtype=bool)
            last[-1] = True
            np.logical_or.reduce(ordered[1:] != ordered[:-1], axis=1,
                                 out=last[:-1])
            reps = order[last]
            at = sel[reps]
            x0s, x1s = kids[reps].T.tolist()
            b0s, b1s = pair[at].T.tolist()
            l0s, l1s = live[at].T.tolist()
            nodes = []
            # A child over a zero edge was not reached, so its index is
            # already 0; level-0 children are the terminal.  The ratios
            # are divided again in Python, as ``_make`` divides them, and
            # may differ from numpy's in the last bit: a lookup at the
            # tolerance boundary can still return 0.
            for x0, b0, x1, b1, h, l0, l1 in zip(x0s, b0s, x1s, b1s,
                                                 hi[at].tolist(), l0s, l1s):
                if h:
                    r1 = one
                    if l0:
                        r0 = lookup(b0 / b1)
                        if r0 == 0:
                            x0 = 0
                    else:
                        r0 = 0j
                else:
                    r0 = one
                    if not l1:
                        r1 = 0j
                    elif b1 == b0:
                        r1 = one
                    else:
                        r1 = lookup(b1 / b0)
                        if r1 == 0:
                            x1 = 0
                key = (level, x0, r0, x1, r1)
                node = unique.get(key)
                if node is None:
                    node = len(lvl)
                    lvl.append(level)
                    c0.append(x0)
                    c1.append(x1)
                    w0.append(r0)
                    w1.append(r1)
                    unique[key] = node
                    counters.nodes_created += 1
                nodes.append(node)
            idx = np.zeros(len(pair), dtype=np.int64)
            idx[sel.take(order)] = np.array(nodes, dtype=np.int64)[
                last.cumsum() - last]
        return FlatEdge(self, int(idx[0]), weight)

    def _dense_selectors(self, prep: tuple, num_amps: int) -> tuple:
        """Cached ``(low_span, high_sel, low_sel)`` for a prepared gate."""
        kid = prep[0]
        key = (kid, num_amps)
        sel = self._dense_sel.get(key)
        if sel is not None:
            return sel
        target = prep[1]
        above = prep[2]
        lower = prep[7]
        low_span = 1 << target
        high_span = num_amps >> (target + 1)
        hsel = None
        if above:
            bits = np.arange(high_span)
            keep = np.ones(high_span, dtype=bool)
            for q, val in above.items():
                keep &= ((bits >> (q - target - 1)) & 1) == val
            hsel = np.nonzero(keep)[0]
        lsel = None
        if lower:
            bits = np.arange(low_span)
            keep = np.ones(low_span, dtype=bool)
            for q, val in lower.items():
                keep &= ((bits >> q) & 1) == val
            lsel = np.nonzero(keep)[0]
        sel = (low_span, hsel, lsel)
        self._dense_sel[key] = sel
        return sel

    def apply_dense(self, state: DenseState, prep: tuple) -> DenseState:
        """Apply a prepared gate to a dense amplitude block.

        The register reshapes to ``(high, 2, low)`` with the target qubit
        as the middle axis; the 2x2 acts on that axis.  Controls restrict
        the high/low axes through cached index selectors, so a
        multi-controlled gate touches exactly the amplitudes whose control
        bits are active (a 9-control Toffoli-style gate moves just two
        amplitudes).
        """
        amps = state.amps
        kind = prep[3]
        u00, u01, u10, u11 = prep[4]
        low_span, hsel, lsel = self._dense_selectors(prep, amps.size)
        self.dense_applies += 1
        if hsel is None and lsel is None:
            view = amps.reshape(-1, 2, low_span)
            if kind == _DIAG:
                # Phase-type gates scale the two halves in place on a copy
                # -- at most two passes over the block instead of four.
                out = amps.copy()
                ov = out.reshape(-1, 2, low_span)
                if u00 != 1:
                    ov[:, 0, :] *= u00
                if u11 != 1:
                    ov[:, 1, :] *= u11
            elif kind == _ANTI:
                # X-type gates: one reversed-axis copy (a single strided C
                # call) plus at most two in-place coefficient scalings.
                out = np.ascontiguousarray(view[:, ::-1, :]).reshape(-1)
                if u01 != 1 or u10 != 1:
                    if u01 == u10:
                        out *= u01
                    else:
                        ov = out.reshape(-1, 2, low_span)
                        if u01 != 1:
                            ov[:, 0, :] *= u01
                        if u10 != 1:
                            ov[:, 1, :] *= u10
            elif 1 < low_span <= 64:
                # Mid-range strides pay heavy per-row ufunc overhead on the
                # (high, low) slices; gather both halves contiguous first,
                # compute there, and scatter back in one strided assignment.
                tc = np.ascontiguousarray(view.transpose(1, 0, 2))
                a = tc[0]
                b = tc[1]
                res = np.empty_like(tc)
                np.multiply(a, u00, out=res[0])
                res[0] += u01 * b
                np.multiply(a, u10, out=res[1])
                res[1] += u11 * b
                out = np.empty_like(amps)
                out.reshape(-1, 2, low_span)[...] = res.transpose(1, 0, 2)
            else:
                a = view[:, 0, :]
                b = view[:, 1, :]
                out = np.empty_like(amps)
                ov = out.reshape(-1, 2, low_span)
                np.multiply(a, u00, out=ov[:, 0, :])
                ov[:, 0, :] += u01 * b
                np.multiply(a, u10, out=ov[:, 1, :])
                ov[:, 1, :] += u11 * b
            return DenseState(self, out, state.level)
        out = amps.copy()
        ov = out.reshape(-1, 2, low_span)
        if kind == _DIAG:
            # Controlled phase gates touch only the active control block's
            # two target slices, scaled in place (scatter assignment).
            for bit, factor in ((0, u00), (1, u11)):
                if factor == 1:
                    continue
                if hsel is None:
                    ov[:, bit, lsel] *= factor
                elif lsel is None:
                    ov[hsel, bit, :] *= factor
                else:
                    ov[np.ix_(hsel, (bit,), lsel)] *= factor
            return DenseState(self, out, state.level)
        if hsel is None:
            block = ov[:, :, lsel]
        elif lsel is None:
            block = ov[hsel, :, :]
        else:
            block = ov[np.ix_(hsel, np.arange(2), lsel)]
        a = block[:, 0, :]
        b = block[:, 1, :]
        na = u00 * a + u01 * b
        nb = u10 * a + u11 * b
        block[:, 0, :] = na
        block[:, 1, :] = nb
        if hsel is None:
            ov[:, :, lsel] = block
        elif lsel is None:
            ov[hsel, :, :] = block
        else:
            ov[np.ix_(hsel, np.arange(2), lsel)] = block
        return DenseState(self, out, state.level)

    # ------------------------------------------------------------------
    # matrix-vector multiplication (object matrix DD x flat state)
    # ------------------------------------------------------------------

    def import_matrix(self, edge: Edge) -> int:
        """Mirror an object matrix DD into the flat matrix store.

        Matrix DDs are small (gate DDs are linear in qubit count), so a
        per-multiplication import is cheap and memoised by object id.
        Imported object nodes are pinned in ``_m_keepalive`` so their ids
        cannot be reused while the mirror is alive; kernel GC drops the
        whole mirror.
        """
        return self._import_matrix_node(edge.node)

    def _import_matrix_node(self, node) -> int:
        """Flat matrix index of object ``node`` (memo: ``_m_import``)."""
        if node.level == -1:
            return 0
        mi = self._m_import.get(id(node))
        if mi is not None:
            return mi
        entry = []
        for child in node.edges:
            if child.weight == 0:
                entry.append(0)
                entry.append(0j)
            else:
                entry.append(self._import_matrix_node(child.node))
                entry.append(child.weight)
        mi = len(self.ment)
        self.ment.append(tuple(entry))
        if id(node) in self.identity_ids:
            self.midn.add(mi)
        self._m_import[id(node)] = mi
        self._m_keepalive.append(node)
        return mi

    def mult_mv(self, m: Edge, v: FlatEdge) -> FlatEdge:
        """Product of an object matrix DD with a flat state DD.

        Level compatibility is validated by the caller
        (``Package.multiply_matrix_vector``).
        """
        w = m.weight * v.weight
        if w == 0:
            return FlatEdge(self, 0, 0j)
        mi = self.import_matrix(m)
        ri, rw = self._mult(mi, v.index)
        return FlatEdge(self, ri, rw * w)

    def _mult(self, mroot: int, vroot: int) -> tuple:
        memo = self.mult_memo
        counters = self.counters
        key = (mroot, vroot)
        self.mult_lookups += 1
        got = memo.get(key)
        if got is not None:
            self.mult_hits += 1
            counters.mult_mv_recursions += 1
            return got
        lvl = self.lvl
        ment = self.ment
        c0 = self.c0
        c1 = self.c1
        w0 = self.w0
        w1 = self.w1
        midn = self.midn
        stack = [[key, None]]
        while stack:
            frame = stack[-1]
            k = frame[0]
            if k in memo:
                stack.pop()
                continue
            mi, vi = k
            terms = frame[1]
            if terms is None:
                counters.mult_mv_recursions += 1
                if vi == 0 or mi in midn:
                    # Terminal product or the I*v shortcut: both resolve
                    # to v itself.
                    memo[k] = (vi, 1 + 0j)
                    stack.pop()
                    continue
                m00, q00, m01, q01, m10, q10, m11, q11 = ment[mi]
                va0 = w0[vi]
                va1 = w1[vi]
                vc0 = c0[vi]
                vc1 = c1[vi]
                pairs = (((m00, vc0), 0, q00 * va0),
                         ((m01, vc1), 0, q01 * va1),
                         ((m10, vc0), 1, q10 * va0),
                         ((m11, vc1), 1, q11 * va1))
                terms = []
                pending = []
                pushed = set()
                for ck, row, tw in pairs:
                    if tw == 0:
                        continue
                    cmi, cvi = ck
                    if cvi == 0 or cmi in midn:
                        terms.append((row, None, cvi, tw))
                        continue
                    self.mult_lookups += 1
                    if ck in memo or ck in pushed:
                        self.mult_hits += 1
                    else:
                        pushed.add(ck)
                        pending.append(ck)
                    terms.append((row, ck, 0, tw))
                frame[1] = terms
                if pending:
                    for ck in pending:
                        stack.append([ck, None])
                continue
            r0i = 0
            r0w = 0j
            r1i = 0
            r1w = 0j
            for row, ck, li, tw in terms:
                if ck is None:
                    si, sw = li, tw
                else:
                    e = memo[ck]
                    si = e[0]
                    sw = e[1] * tw
                if row == 0:
                    r0i, r0w = self._add2(r0i, r0w, si, sw)
                else:
                    r1i, r1w = self._add2(r1i, r1w, si, sw)
            memo[k] = self._make(lvl[vi], r0i, r0w, r1i, r1w)
            stack.pop()
        return memo[key]
