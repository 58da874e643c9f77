"""Runtime variable-reordering policy for the simulation engine.

The DD sizes every cost in the paper hinges on are hostage to the variable
order; "A Reorder Trick for Decision Diagram Based Quantum Circuit
Simulation" (arXiv 2211.07110) shows mid-run sifting shrinks intermediate
state DDs dramatically.  :class:`ReorderPolicy` decides *when* the engine
runs :func:`repro.dd.reordering.sift` on the state:

* ``"off"`` (no policy object) -- never reorder.
* ``"governor"`` -- reorder on memory pressure: after a garbage collection
  either left the live working set over the governor's hard ``max_nodes``
  budget or proved futile (the collection threshold had to grow because
  the working set itself outgrew it).  The engine runs the sift *before*
  degradation, so a cheaper variable order is tried before any lossy
  pruning.
* ``"every=K"`` -- reorder unconditionally every ``K`` consumed elementary
  operations (the cadence mode for studies and tests).

The policy carries the trigger bookkeeping only; the mechanics (sifting,
remapping the remaining operations, permuting pending products, fixing up
measurement indices and checkpoints) live in
:class:`~repro.simulation.engine.SimulationEngine`.
"""

from __future__ import annotations

__all__ = ["ReorderPolicy", "reorder_from_spec"]


class ReorderPolicy:
    """When-to-sift policy plus per-run reorder telemetry.

    Parameters
    ----------
    mode:
        ``"governor"`` (sift on memory pressure, before degradation) or
        ``"every"`` (sift every ``every`` operations).
    every:
        Operation cadence; required (and only meaningful) for
        ``mode="every"``.
    max_growth:
        Passed through to :func:`repro.dd.reordering.sift`: a sifting move
        is abandoned once the diagram exceeds this multiple of its best
        size.
    min_interval:
        Minimum number of consumed operations between two governor-pressure
        sifts (0 = no cooldown).  Guards against re-sifting every step when
        sifting cannot get the working set under budget anyway.
    min_nodes:
        States smaller than this are never sifted -- the bookkeeping would
        cost more than any conceivable saving.
    """

    def __init__(self, mode: str = "governor", every: int | None = None,
                 max_growth: float = 2.0, min_interval: int = 0,
                 min_nodes: int = 8) -> None:
        if mode not in ("governor", "every"):
            raise ValueError(f"reorder mode must be 'governor' or 'every', "
                             f"got {mode!r}")
        if mode == "every":
            if every is None or every < 1:
                raise ValueError(f"mode='every' needs every >= 1, "
                                 f"got {every!r}")
        elif every is not None:
            raise ValueError("every= is only meaningful with mode='every'")
        if max_growth < 1.0:
            raise ValueError(f"max_growth must be >= 1.0, got {max_growth}")
        if min_interval < 0:
            raise ValueError(f"min_interval must be >= 0, "
                             f"got {min_interval}")
        self.mode = mode
        self.every = every
        self.max_growth = max_growth
        self.min_interval = min_interval
        self.min_nodes = min_nodes
        #: operations consumed when the last sift ran (None = never)
        self.last_sift_ops: int | None = None
        self.sifts = 0
        self.nodes_before_total = 0
        self.nodes_after_total = 0

    def spec(self) -> str:
        """Spec string :func:`reorder_from_spec` re-parses equivalently."""
        return "governor" if self.mode == "governor" else f"every={self.every}"

    def describe(self) -> str:
        if self.mode == "governor":
            return "reorder(on governor pressure)"
        return f"reorder(every {self.every} ops)"

    # -- trigger decision ----------------------------------------------

    def should_reorder(self, ops_done: int, pressure: bool) -> bool:
        """Whether the engine should sift now.

        ``ops_done`` is the count of consumed elementary operations;
        ``pressure`` is the governor's memory-pressure signal (over the
        hard budget after a collection, or a futile collection).  Called
        on every governed step, possibly more than once per operation --
        the cadence/cooldown arithmetic makes repeats within one
        operation no-ops.
        """
        last = self.last_sift_ops
        if self.mode == "every":
            if last is None:
                return ops_done >= self.every
            return ops_done - last >= self.every
        if not pressure:
            return False
        return last is None or ops_done - last > self.min_interval

    def note_sift(self, ops_done: int, nodes_before: int,
                  nodes_after: int) -> None:
        """Record one executed (or skipped-as-too-small) sift."""
        self.last_sift_ops = ops_done
        self.sifts += 1
        self.nodes_before_total += nodes_before
        self.nodes_after_total += nodes_after


def reorder_from_spec(spec: "str | ReorderPolicy | None"
                      ) -> ReorderPolicy | None:
    """Parse a reorder spec: ``off``/``none``, ``governor`` or ``every=K``.

    Accepts an already constructed :class:`ReorderPolicy` (returned as-is)
    and ``None``/``"off"`` (returns ``None`` -- reordering disabled), so
    engine entry points can take either form.
    """
    if spec is None or isinstance(spec, ReorderPolicy):
        return spec
    text = spec.strip().lower()
    if text in ("", "off", "none"):
        return None
    if text in ("governor", "pressure"):
        return ReorderPolicy(mode="governor")
    if text.startswith("every="):
        raw = text[len("every="):]
        try:
            every = int(raw)
        except ValueError:
            raise ValueError(f"malformed reorder spec {spec!r}: expected "
                             f"an integer after 'every=', got {raw!r}") \
                from None
        return ReorderPolicy(mode="every", every=every)
    raise ValueError(f"unknown reorder spec {spec!r} (expected 'off', "
                     f"'governor' or 'every=K')")
