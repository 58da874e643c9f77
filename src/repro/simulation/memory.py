"""Memory governance for long-running simulations.

The engine keeps a DD package's unique tables bounded by garbage-collecting
past a node limit.  A *fixed* limit has a pathological failure mode: once
the reachable working set itself exceeds the limit, every simulation step
re-triggers a collection that frees nothing -- each one a full mark-sweep
plus (historically) a wholesale compute-table wipe.  Exactly the large
instances the paper targets (Shor, supremacy) hit this thrash regime first.

:class:`MemoryGovernor` turns the limit into a policy: after an ineffective
collection the threshold grows geometrically past the surviving working set
(``limit = max(limit, GROWTH_FACTOR * surviving)``), so a mostly-reachable
package stops re-triggering wipes and collection frequency stays
proportional to actual garbage production.  An optional hard ``max_nodes``
budget converts "grind until the machine swaps" into a clean
:class:`MemoryBudgetExceeded`.
"""

from __future__ import annotations

__all__ = ["DEFAULT_NODE_LIMIT", "DegradationPolicy", "MemoryBudgetExceeded",
           "MemoryGovernor"]

#: the collection threshold a run starts from unless it names one
DEFAULT_NODE_LIMIT = 500_000

#: after a futile collection the threshold grows to this multiple of the
#: surviving working set ...
GROWTH_FACTOR = 1.5

#: ... and at least this many nodes past it.  Geometric growth alone
#: leaves only ``(GROWTH_FACTOR - 1) * surviving`` nodes of slack, which
#: for a *small* working set above a tiny limit is a handful of nodes --
#: consumed within a step or two, re-triggering collection almost as fast
#: as a fixed threshold.  4096 nodes is ~1 MB of DD nodes.
MIN_HEADROOM = 4096


class MemoryBudgetExceeded(MemoryError):
    """The reachable working set exceeds the configured hard node budget.

    Raised by :class:`MemoryGovernor` after a garbage collection (and, when
    a :class:`DegradationPolicy` is active, fidelity-bounded pruning) could
    not bring the package under ``max_nodes``: every surviving node is
    needed by the run, so continuing would only grind.  The simulation
    state is consistent when this is raised (the partial state remains
    queryable), and when the engine was checkpointing, ``checkpoint_path``
    names the checkpoint written just before raising -- the run can be
    resumed on a bigger budget.
    """

    def __init__(self, live_nodes: int, max_nodes: int) -> None:
        super().__init__(
            f"DD package holds {live_nodes} reachable nodes, exceeding the "
            f"hard budget of {max_nodes}; the circuit's working set does "
            "not fit the configured memory budget")
        self.live_nodes = live_nodes
        self.max_nodes = max_nodes
        #: set by the engine when an on-failure checkpoint was written
        self.checkpoint_path: str | None = None


class DegradationPolicy:
    """Let the engine prune the state instead of giving up on the budget.

    When the governor's hard ``max_nodes`` budget is still exceeded after
    a collection, an engine with a degradation policy cuts negligible
    state-DD branches with
    :func:`~repro.dd.approximation.prune_to_node_budget` down to half the
    budget, never letting the *cumulative* fidelity across all prunes fall
    below ``fidelity_floor``.  When that cannot bring the package under
    the budget, :class:`MemoryBudgetExceeded` propagates (the engine
    writes a checkpoint first when one was requested).

    Every prune is recorded here, in the run's
    :class:`~repro.simulation.statistics.SimulationStatistics`, and as a
    ``degrade`` trace event.  The policy is stateful per run sequence: a
    resumed run restores ``cumulative_fidelity`` from its checkpoint so the
    floor is enforced across the whole logical run, not per segment.

    Parameters
    ----------
    fidelity_floor:
        Lower bound on the product of all pruning fidelities.  ``1.0``
        forbids pruning, so an over-budget run aborts as without a policy.
    """

    def __init__(self, fidelity_floor: float = 0.99) -> None:
        if not 0.0 < fidelity_floor <= 1.0:
            raise ValueError(f"fidelity_floor must be in (0, 1], "
                             f"got {fidelity_floor}")
        self.fidelity_floor = fidelity_floor
        #: product of all pruning fidelities so far (1.0 = still exact)
        self.cumulative_fidelity = 1.0
        #: every action taken, in order (dicts mirroring the trace events)
        self.actions: list[dict] = []

    def allows_prune(self) -> bool:
        """Whether any fidelity headroom remains above the floor."""
        return self.cumulative_fidelity > self.fidelity_floor

    def record(self, action: dict) -> None:
        """Record one prune; fold its ``fidelity`` into the cumulative
        product."""
        self.actions.append(action)
        self.cumulative_fidelity *= action["fidelity"]

    # -- checkpoint round trip -----------------------------------------

    def state_dict(self) -> dict:
        return {
            "fidelity_floor": self.fidelity_floor,
            "cumulative_fidelity": self.cumulative_fidelity,
            "actions_taken": len(self.actions),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore the cumulative fidelity from a checkpoint.

        The action log itself lives in the checkpointed statistics; only
        what changes future decisions is restored here.  Keys this policy
        does not use (older checkpoints carry ``tables_shrunk``) are
        ignored.
        """
        self.cumulative_fidelity = float(
            payload.get("cumulative_fidelity", 1.0))

    def describe(self) -> str:
        return f"degrade(floor={self.fidelity_floor:g})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DegradationPolicy({self.describe()})"


class MemoryGovernor:
    """Adaptive garbage-collection policy for a simulation engine.

    Parameters
    ----------
    node_limit:
        Initial collection threshold: a collection is requested when the
        package holds more interned nodes than this.  ``None`` disables
        collection entirely (``max_nodes`` is still enforced).  After a
        collection that leaves the package above the current limit (the
        reachable working set alone exceeds it), the limit grows to
        ``max(GROWTH_FACTOR * surviving, surviving + MIN_HEADROOM)``.
    max_nodes:
        Optional hard budget: when even a collection cannot bring the live
        node count under this, :class:`MemoryBudgetExceeded` is raised
        instead of grinding on.

    The governor is stateful per engine, not per run: a long-lived engine
    keeps its grown threshold across circuits.
    """

    def __init__(self, node_limit: int | None = DEFAULT_NODE_LIMIT,
                 max_nodes: int | None = None) -> None:
        if node_limit is not None and node_limit < 1:
            raise ValueError(f"node_limit must be positive or None, "
                             f"got {node_limit}")
        if max_nodes is not None and max_nodes < 1:
            raise ValueError(f"max_nodes must be positive or None, "
                             f"got {max_nodes}")
        self.initial_limit = node_limit
        self.limit = node_limit
        self.max_nodes = max_nodes
        #: collections this governor requested
        self.collections_requested = 0
        #: times the limit was grown after an ineffective collection
        self.limit_growths = 0

    # ------------------------------------------------------------------

    def should_collect(self, live_nodes: int) -> bool:
        """Whether the engine should garbage-collect at ``live_nodes``."""
        return self.limit is not None and live_nodes > self.limit

    def note_collection(self, freed: int, surviving: int) -> bool:
        """Record a collection's outcome; grow the limit if it was futile.

        Returns ``True`` when the threshold was grown -- the signal that
        the surviving working set exceeds the old limit, so re-collecting
        next step would free (almost) nothing again.
        """
        self.collections_requested += 1
        if self.limit is None or surviving <= self.limit:
            return False
        self.limit = max(self.limit + 1, int(GROWTH_FACTOR * surviving),
                         surviving + MIN_HEADROOM)
        self.limit_growths += 1
        return True

    def check_budget(self, live_nodes: int) -> None:
        """Raise :class:`MemoryBudgetExceeded` past the hard budget."""
        if self.max_nodes is not None and live_nodes > self.max_nodes:
            raise MemoryBudgetExceeded(live_nodes, self.max_nodes)

    # ------------------------------------------------------------------

    def describe(self) -> str:
        limit = "off" if self.limit is None else str(self.limit)
        budget = "" if self.max_nodes is None \
            else f", max_nodes={self.max_nodes}"
        return f"governor(limit={limit}{budget})"

    def stats(self) -> dict:
        """Machine-readable policy counters (for benchmarks and traces)."""
        return {
            "initial_limit": self.initial_limit,
            "limit": self.limit,
            "max_nodes": self.max_nodes,
            "collections_requested": self.collections_requested,
            "limit_growths": self.limit_growths,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryGovernor({self.describe()})"
