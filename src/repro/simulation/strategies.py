"""Operation-combining strategies (the paper's Section IV).

A strategy decides *when* accumulated gate matrices are applied to the state
vector.  All strategies consume the same stream of elementary operations and
produce the same final state; they differ only in how they interleave
matrix-matrix multiplications (combining operations, Eq. 2) with
matrix-vector multiplications (simulation steps, Eq. 1):

* :class:`SequentialStrategy` -- the state of the art the paper improves on:
  one matrix-vector multiplication per gate (pure Eq. 1).
* :class:`KOperationsStrategy` -- combine every ``k`` consecutive gates into
  one matrix before touching the state (Sec. IV-A, Fig. 8).
* :class:`MaxSizeStrategy` -- combine gates until the product DD exceeds
  ``s_max`` nodes, then apply it (Sec. IV-A, Fig. 9).
* :class:`RepeatingBlockStrategy` -- *DD-repeating* (Sec. IV-B): combine the
  body of a :class:`~repro.circuit.circuit.RepeatedBlock` once and re-use the
  resulting matrix DD for every repetition.

Strategies are streaming objects: the engine calls :meth:`feed` per
elementary operation and :meth:`flush` at the end, so they compose (the
repeating strategy delegates non-block segments to any inner strategy).
A strategy that reuses blocks defines ``apply_pass``; the engine then hands
it each pass of a top-level repeated block as one unit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..circuit.circuit import RepeatedBlock
from ..dd.edge import Edge

if TYPE_CHECKING:  # pragma: no cover
    from .engine import _Run

__all__ = [
    "AdaptiveStrategy",
    "SimulationStrategy",
    "SequentialStrategy",
    "KOperationsStrategy",
    "MaxSizeStrategy",
    "RepeatingBlockStrategy",
    "strategy_from_spec",
]


class SimulationStrategy:
    """Base class: consumes a run's operations, one at a time."""

    name = "abstract"

    #: ``apply_pass(run, block, size)`` on strategies that apply one pass
    #: of a :class:`~repro.circuit.circuit.RepeatedBlock` (``size``
    #: elementary operations) as a unit; ``None`` makes the engine feed
    #: block operations one by one.
    apply_pass = None

    def describe(self) -> str:
        """Parametrised display name (e.g. ``k-operations(k=4)``)."""
        return self.name

    # -- checkpoint interface ------------------------------------------

    def spec(self) -> str:
        """A spec string :func:`strategy_from_spec` re-parses into an
        equivalent strategy.  Checkpoints store this instead of pickling
        the strategy object."""
        raise NotImplementedError(
            f"strategy {self.name!r} has no checkpoint spec")

    def state_dict(self) -> dict:
        """JSON-compatible mid-run state (scalars only -- any pending
        product DD is checkpointed separately by the engine)."""
        return {}

    def load_state_dict(self, payload: dict) -> None:
        """Restore :meth:`state_dict` output.  Call after :meth:`begin`."""

    def restore_pending(self, run: "_Run", pending: Edge) -> None:
        """Re-adopt a deserialised pending product DD on resume.

        Strategies that never accumulate reject a non-``None`` pending
        product: such a checkpoint cannot have come from them.
        """
        raise ValueError(f"strategy {self.name!r} does not accumulate "
                         "products; checkpoint carries a pending DD")

    # -- streaming interface -------------------------------------------

    def begin(self, run: "_Run") -> None:
        """Reset per-run state.  Called once before the first operation."""

    def on_reorder(self, run: "_Run") -> None:
        """The engine reordered the run's variables mid-flight.

        Called after a governed sift permuted the state, the pending
        product and the run's cumulative permutation.  Strategies holding
        references to DDs built under the old order must re-adopt the
        permuted versions from the run (or drop their caches) here; the
        default is a no-op for strategies that hold no DDs of their own.
        """

    def feed(self, run: "_Run", operation) -> None:
        """Consume one elementary operation."""
        raise NotImplementedError

    def flush(self, run: "_Run") -> None:
        """Apply any pending combined matrix to the state."""


class SequentialStrategy(SimulationStrategy):
    """State-of-the-art baseline: one state update per gate (pure Eq. 1).

    Every gate builds its full-register matrix DD and runs one
    matrix-vector multiplication, exactly as in the paper -- except that
    on engines with ``use_local_apply`` (the default), the iterative
    kernel's states take its local-gate path instead.
    """

    name = "sequential"

    def spec(self) -> str:
        return "sequential"

    def feed(self, run: "_Run", operation) -> None:
        run.apply_operation(operation)
        run.note_operation()


class _AccumulatingStrategy(SimulationStrategy):
    """Shared machinery for strategies that build up a product matrix.

    Size-bounded strategies re-read ``count_nodes(product)`` on every feed:
    the count of a product :meth:`_Run.combine` returned is stored on its
    root, so that is one slot read, not a walk.
    """

    def begin(self, run: "_Run") -> None:
        self._product: Edge | None = None
        run.set_pending(None)

    def restore_pending(self, run: "_Run", pending: Edge) -> None:
        self._product = pending
        run.set_pending(pending)

    def on_reorder(self, run: "_Run") -> None:
        """Re-adopt the (engine-permuted) pending product after a sift."""
        if self._product is not None:
            self._product = run._pending

    def flush(self, run: "_Run") -> None:
        if self._product is not None:
            run.apply_matrix(self._product)
            self._product = None
            run.set_pending(None)

    def _absorb(self, run: "_Run", operation) -> Edge:
        """Multiply the operation's DD onto the pending product (left side)."""
        gate = run.gate_dd(operation)
        if self._product is None:
            self._product = gate
        else:
            # Later operations act later: M_new @ M_accumulated.
            self._product = run.combine(gate, self._product)
        run.set_pending(self._product)
        run.note_operation()
        return self._product


class KOperationsStrategy(_AccumulatingStrategy):
    """Combine every ``k`` consecutive operations before a simulation step.

    ``k = 1`` degenerates to the sequential baseline (every gate is applied
    immediately); very large ``k`` approaches pure Eq. 2.
    """

    name = "k-operations"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.k = k

    def describe(self) -> str:
        return f"k-operations(k={self.k})"

    def spec(self) -> str:
        return f"k={self.k}"

    def state_dict(self) -> dict:
        return {"pending_count": self._pending_count}

    def load_state_dict(self, payload: dict) -> None:
        self._pending_count = int(payload.get("pending_count", 0))

    def begin(self, run: "_Run") -> None:
        super().begin(run)
        self._pending_count = 0

    def feed(self, run: "_Run", operation) -> None:
        self._absorb(run, operation)
        self._pending_count += 1
        if self._pending_count >= self.k:
            self.flush(run)
            self._pending_count = 0

    def flush(self, run: "_Run") -> None:
        super().flush(run)
        self._pending_count = 0


class MaxSizeStrategy(_AccumulatingStrategy):
    """Combine operations until the product DD exceeds ``s_max`` nodes.

    Parametrising on the DD size rather than the operation count adapts to
    how expensive the product actually became (Sec. IV-A, second strategy).
    The product that first exceeds the bound is applied, so progress is
    guaranteed even when a single gate is larger than ``s_max``.
    """

    name = "max-size"

    def __init__(self, s_max: int) -> None:
        if s_max < 1:
            raise ValueError(f"s_max must be at least 1, got {s_max}")
        self.s_max = s_max

    def describe(self) -> str:
        return f"max-size(s_max={self.s_max})"

    def spec(self) -> str:
        return f"smax={self.s_max}"

    def feed(self, run: "_Run", operation) -> None:
        product = self._absorb(run, operation)
        if run.package.count_nodes(product) > self.s_max:
            self.flush(run)


class AdaptiveStrategy(_AccumulatingStrategy):
    """Combine operations while the product stays small *relative to the
    state DD* -- an extension beyond the paper's fixed parametrisations.

    The paper's cost analysis (Sec. III) says combining pays off while the
    product DD is small compared to the state DD it spares from repeated
    multiplication.  This strategy measures exactly that: operations are
    combined while ``|product| <= ratio * |state|`` (clamped to
    ``[floor, ceiling]``), so the threshold adapts as the state grows or
    shrinks during simulation -- no manual ``k`` / ``s_max`` tuning.
    """

    name = "adaptive"

    def __init__(self, ratio: float = 0.5, floor: int = 4,
                 ceiling: int = 4096) -> None:
        if ratio <= 0:
            raise ValueError(f"ratio must be positive, got {ratio}")
        if floor < 1 or ceiling < floor:
            raise ValueError("need 1 <= floor <= ceiling")
        self.ratio = ratio
        self.floor = floor
        self.ceiling = ceiling

    def describe(self) -> str:
        return f"adaptive(ratio={self.ratio:g})"

    def spec(self) -> str:
        return f"adaptive={self.ratio:g}"

    def state_dict(self) -> dict:
        # floor/ceiling are not representable in the spec string, so the
        # state dict carries them; ``state_nodes`` keeps the combining
        # threshold identical across a checkpoint/resume boundary (it is
        # only re-measured at flushes).
        return {"state_nodes": self._state_nodes,
                "floor": self.floor, "ceiling": self.ceiling}

    def load_state_dict(self, payload: dict) -> None:
        self.floor = int(payload.get("floor", self.floor))
        self.ceiling = int(payload.get("ceiling", self.ceiling))
        if "state_nodes" in payload:
            self._state_nodes = int(payload["state_nodes"])

    def begin(self, run: "_Run") -> None:
        super().begin(run)
        self._state_nodes = run.package.count_nodes(run.state)

    def on_reorder(self, run: "_Run") -> None:
        super().on_reorder(run)
        # A sift usually shrinks the state; the combining threshold should
        # track the new size, not the pre-reorder one.
        self._state_nodes = run.package.count_nodes(run.state)

    def _threshold(self) -> int:
        scaled = int(self.ratio * self._state_nodes)
        return min(self.ceiling, max(self.floor, scaled))

    def feed(self, run: "_Run", operation) -> None:
        product = self._absorb(run, operation)
        if run.package.count_nodes(product) > self._threshold():
            self.flush(run)

    def flush(self, run: "_Run") -> None:
        super().flush(run)
        # The state only changes when a product is applied; re-measure here
        # instead of on every feed (which would cost as much as the
        # multiplication it tries to avoid).
        self._state_nodes = run.package.count_nodes(run.state)


class RepeatingBlockStrategy(SimulationStrategy):
    """*DD-repeating*: combine a repeated block once, re-use it every pass.

    Non-block segments are delegated to ``inner`` (any other strategy; the
    sequential baseline by default).  The combined matrix DD of each distinct
    block is cached, so a Grover iteration costs matrix-matrix combination
    work exactly once and one matrix-vector multiplication per repetition
    afterwards -- with no further combining (Sec. IV-B).
    """

    name = "dd-repeating"

    def __init__(self, inner: SimulationStrategy | None = None) -> None:
        self.inner = inner or SequentialStrategy()
        if isinstance(self.inner, RepeatingBlockStrategy):
            raise ValueError("inner strategy must not itself be "
                             "a RepeatingBlockStrategy")

    def describe(self) -> str:
        return f"dd-repeating(inner={self.inner.describe()})"

    def spec(self) -> str:
        return f"repeating:{self.inner.spec()}"

    def state_dict(self) -> dict:
        # The block cache is keyed by object identity and rebuilt lazily
        # (a resumed run re-combines each block it reaches once); only the
        # inner strategy carries resumable state.
        return self.inner.state_dict()

    def load_state_dict(self, payload: dict) -> None:
        self.inner.load_state_dict(payload)

    def restore_pending(self, run: "_Run", pending: Edge) -> None:
        self.inner.restore_pending(run, pending)

    def begin(self, run: "_Run") -> None:
        self.inner.begin(run)
        self._block_cache: dict[int, Edge] = {}

    def feed(self, run: "_Run", operation) -> None:
        self.inner.feed(run, operation)

    def flush(self, run: "_Run") -> None:
        self.inner.flush(run)

    def on_reorder(self, run: "_Run") -> None:
        """Drop the block cache: its DDs were combined under the old order.

        The cached matrices (and their pins among the run's extra roots)
        would silently apply old-order blocks to the reordered state;
        clearing both makes the next repetition re-combine under the new
        order (through :meth:`_Run.gate_dd`, which remaps the operations).
        """
        self.inner.on_reorder(run)
        self._block_cache.clear()
        run._extra_roots.clear()

    def apply_pass(self, run: "_Run", block: RepeatedBlock,
                   size: int) -> None:
        """Apply one pass of ``block`` (``size`` elementary operations).

        The first pass combines the block into one matrix DD; later passes
        re-use it -- one MxV each.  The cache is read per pass: a governed
        reorder clears it (the combined DD belongs to the old variable
        order), and the next pass re-combines under the new order.
        """
        # The pending inner product (if any) must hit the state first; the
        # block matrix is re-used across passes and cannot absorb it.
        self.inner.flush(run)
        # A pass logically consumes the block's operations, even though
        # only a cache miss does multiplication work.
        run.note_operation(size)
        combined = self._block_cache.get(id(block))
        if combined is None:
            combined = self._combine_block(run, block)
            self._block_cache[id(block)] = combined
            run.add_root(combined)
        else:
            run.statistics.reused_block_applications += 1
        run.apply_matrix(combined)

    def _combine_block(self, run: "_Run", block: RepeatedBlock) -> Edge:
        product: Edge | None = None
        for operation in block.operations():
            gate = run.gate_dd(operation)
            product = gate if product is None else run.combine(gate, product)
        if product is None:  # empty block body: identity
            return run.package.identity(run.num_qubits)
        return product


def _spec_number(spec: str, text: str, parse, kind: str):
    """Parse a spec parameter, raising a ValueError that names the spec."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"malformed strategy spec {spec!r}: expected "
                         f"{kind} after '=', got {text!r}") from None


def strategy_from_spec(spec: str) -> SimulationStrategy:
    """Parse strategy specs like ``sequential``, ``k=8``, ``smax=128``,
    ``repeating`` or ``repeating:k=8`` (inner strategy after the colon).

    Malformed parameters (``k=abc``, ``smax=``, ``adaptive=x``) raise a
    :class:`ValueError` naming the offending spec.
    """
    spec = spec.strip().lower()
    if spec in ("sequential", "sota", "baseline"):
        return SequentialStrategy()
    if spec.startswith("repeating"):
        _, _, inner = spec.partition(":")
        return RepeatingBlockStrategy(strategy_from_spec(inner) if inner
                                      else None)
    if spec.startswith("k="):
        return KOperationsStrategy(
            _spec_number(spec, spec[2:], int, "an integer"))
    if spec.startswith("smax="):
        return MaxSizeStrategy(
            _spec_number(spec, spec[5:], int, "an integer"))
    if spec == "adaptive":
        return AdaptiveStrategy()
    if spec.startswith("adaptive="):
        return AdaptiveStrategy(ratio=_spec_number(
            spec, spec[len("adaptive="):], float, "a number"))
    raise ValueError(f"unknown strategy spec {spec!r}")
