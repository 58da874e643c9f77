"""Run plans: the option surface the fuzzer drives.

Blind circuit fuzzing only ever exercises the engine's happy path; the
risky machinery -- mid-run reordering, checkpoint/resume, the hard node
budget, the iterative kernel's representation switches -- activates only
under specific *run options*.  A :class:`RunPlan` is a serialisable bundle
of those options (the "option-plan grammar" in docs/architecture.md):

=================  =====================================================
field              meaning
=================  =====================================================
``kernel``         ``recursive`` | ``iterative`` (flat-array worklist)
``dense_blocks``   iterative-kernel dense cutover allowed
``strategy``       any :func:`strategy_from_spec` string (``k=4``, ...)
``reorder``        ``None`` | ``governor`` | ``every=K`` mid-run sifting
``max_nodes``      hard node budget; an overrun aborts the run
``checkpoint_at``  interrupt after op K, then ``SimulationEngine.resume``
=================  =====================================================

:func:`execute_plan` runs a circuit under a plan through a *fresh* engine
and returns the result; the fuzzer compares it against the dense oracle.
Plans never prune, so every completed plan run -- interrupted, collected
under a budget, sifted, or all three -- must still match the oracle at
the full ``1 - 1e-9`` floor.  A budget that collection and sifting cannot
satisfy aborts the run; that is an expected outcome (``budget_aborted``),
not a failure.

The module also hosts :class:`BrokenReorderEngine`, the planted
reorder-path bug behind ``fuzz --plan-options --inject-broken``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, fields
from random import Random

from ..baseline import simulate_statevector
from ..circuit.circuit import QuantumCircuit
from ..dd.package import Package
from ..simulation.engine import SimulationEngine, SimulationResult
from ..simulation.memory import MemoryBudgetExceeded, MemoryGovernor
from ..simulation.reorder import ReorderPolicy
from ..simulation.statistics import SimulationStatistics
from ..simulation.strategies import strategy_from_spec

__all__ = ["BrokenReorderEngine", "PlanOutcome", "RunPlan", "dense_fidelity",
           "draw_plan", "engine_class", "execute_plan"]

#: plan runs sift states this small; the default (8) would exempt the
#: 2-4 qubit registers fuzz circuits live on, leaving the reorder path
#: untested exactly where minimized reproducers need it to fire
PLAN_REORDER_MIN_NODES = 4

#: governor collection threshold forced by ``reorder="governor"`` plans
#: with no ``max_nodes``: small enough that collections on any non-trivial
#: state are futile, which is the pressure signal governor sifting keys on
PLAN_PRESSURE_NODE_LIMIT = 16


@dataclass(frozen=True)
class RunPlan:
    """One run-option schedule; every default is the engine's plain path."""

    kernel: str = "recursive"
    dense_blocks: bool = True
    strategy: str = "sequential"
    reorder: str | None = None
    max_nodes: int | None = None
    checkpoint_at: int | None = None

    def validate(self) -> None:
        if self.kernel not in ("recursive", "iterative"):
            raise ValueError(f"plan kernel must be 'recursive' or "
                             f"'iterative', got {self.kernel!r}")
        strategy_from_spec(self.strategy)       # raises on a bad spec
        if self.reorder is not None:
            _reorder_policy(self.reorder)       # raises on a bad spec
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"plan max_nodes must be positive, "
                             f"got {self.max_nodes}")
        if self.checkpoint_at is not None and self.checkpoint_at < 1:
            raise ValueError(f"plan checkpoint_at must be positive, "
                             f"got {self.checkpoint_at}")

    # -- the plan as a list of steps -----------------------------------

    def options(self) -> list[str]:
        """The non-default options, as ``name=value`` steps.

        This is the unit the plan minimizer shrinks: a plan's size is
        ``len(plan.options())`` and dropping a step means resetting that
        field to its default.
        """
        steps = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value != spec.default:
                steps.append(f"{spec.name}={value}")
        return steps

    def describe(self) -> str:
        return " ".join(self.options()) or "plain"

    def without(self, option: str) -> "RunPlan":
        """A copy with one option (``name`` or ``name=value``) reset."""
        name = option.split("=", 1)[0]
        by_name = {spec.name: spec for spec in fields(self)}
        if name not in by_name:
            raise ValueError(f"unknown plan option {option!r}")
        return _replace(self, name, by_name[name].default)

    # -- serialisation --------------------------------------------------

    def as_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunPlan":
        known = {spec.name for spec in fields(cls)}
        plan = cls(**{key: value for key, value in payload.items()
                      if key in known})
        plan.validate()
        return plan


def _replace(plan: RunPlan, name: str, value: object) -> RunPlan:
    payload = plan.as_dict()
    payload[name] = value
    return RunPlan(**payload)


def draw_plan(rng: Random, block: bool = False) -> RunPlan:
    """One random plan from the option-surface distribution.

    Weighted toward combinations that activate the risky machinery: about
    half the plans reorder, a third carry a node budget tight enough to
    force collections (or an abort), and 40% interrupt-and-resume mid-run.

    ``block=True`` marks the circuit as carrying a repeated block: the
    strategy draw then favours the ``repeating`` family (the only consumer
    of the block-cache reorder invalidation) and the reorder draw favours
    cadence sifting, which is what can fire between two visits to the same
    cached block.
    """
    kernel = "iterative" if rng.random() < 0.5 else "recursive"
    dense_blocks = not (kernel == "iterative" and rng.random() < 0.3)
    roll = rng.random()
    if block and roll < 0.6:
        strategy = rng.choice(("repeating", "repeating:k=2"))
    elif roll < 0.35:
        strategy = "sequential"
    elif roll < 0.75:
        strategy = rng.choice(("k=2", "k=3", "k=4", "smax=8", "smax=32"))
    else:
        strategy = rng.choice(("adaptive", "repeating:k=2"))
    roll = rng.random()
    if block and roll < 0.55:
        reorder: str | None = f"every={rng.randint(1, 4)}"
    elif roll < 0.45:
        reorder = None
    elif roll < 0.8:
        reorder = f"every={rng.randint(1, 6)}"
    else:
        reorder = "governor"
    return RunPlan(
        kernel=kernel,
        dense_blocks=dense_blocks,
        strategy=strategy,
        reorder=reorder,
        max_nodes=rng.choice((48, 96, 192, 384))
        if rng.random() < 0.3 else None,
        checkpoint_at=rng.randint(1, 30) if rng.random() < 0.4 else None,
    )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

@dataclass
class PlanOutcome:
    """What happened when a circuit ran under a plan."""

    result: SimulationResult | None
    #: ``"ExcType: message"`` when the engine raised (a fuzz failure)
    error: str | None = None
    #: the reachable working set exceeded ``max_nodes`` after a collection
    #: (expected under tight budgets; the case is skipped, not failed)
    budget_aborted: bool = False
    #: the run was interrupted at ``checkpoint_at`` and resumed
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def statistics(self) -> SimulationStatistics | None:
        return self.result.statistics if self.result is not None else None


def _reorder_policy(spec: str) -> ReorderPolicy:
    """A fresh policy for one engine leg (policies carry run state)."""
    if spec == "governor":
        return ReorderPolicy("governor", min_nodes=PLAN_REORDER_MIN_NODES)
    if spec.startswith("every="):
        return ReorderPolicy("every", every=int(spec[len("every="):]),
                             min_nodes=PLAN_REORDER_MIN_NODES)
    raise ValueError(f"plan reorder must be 'governor' or 'every=K', "
                     f"got {spec!r}")


def _make_engine(plan: RunPlan,
                 engine_cls: type[SimulationEngine]) -> SimulationEngine:
    package = Package(kernel=plan.kernel, dense_blocks=plan.dense_blocks)
    if plan.max_nodes is not None:
        governor = MemoryGovernor(node_limit=max(8, plan.max_nodes // 2),
                                  max_nodes=plan.max_nodes)
        return engine_cls(package=package, governor=governor)
    if plan.reorder == "governor":
        # Governor sifting keys on memory pressure; without a budget the
        # default threshold (DEFAULT_NODE_LIMIT) would never trip on
        # fuzz-sized registers and the plan would silently test nothing.
        governor = MemoryGovernor(node_limit=PLAN_PRESSURE_NODE_LIMIT)
        return engine_cls(package=package, governor=governor)
    return engine_cls(package=package)


def execute_plan(circuit: QuantumCircuit, plan: RunPlan,
                 engine_cls: type[SimulationEngine] = SimulationEngine
                 ) -> PlanOutcome:
    """Run ``circuit`` under ``plan`` on a fresh engine.

    ``checkpoint_at=K`` is realised exactly the way production runs are
    interrupted: the per-op hook raises ``KeyboardInterrupt`` after op K,
    the engine writes its on-failure checkpoint, and a *second* fresh
    engine resumes from it -- so the resumed half replays the
    complex-table state, the strategy's pending product and any
    accumulated permutation.
    """
    plan.validate()
    strategy = strategy_from_spec(plan.strategy)
    reorder = _reorder_policy(plan.reorder) \
        if plan.reorder is not None else None
    engine = _make_engine(plan, engine_cls)
    stop_at = plan.checkpoint_at
    try:
        if stop_at is None:
            result = engine.simulate(circuit, strategy, reorder=reorder)
            return PlanOutcome(result=result)
        with tempfile.TemporaryDirectory(prefix="fuzz-plan-") as tmp:
            path = os.path.join(tmp, "plan.ckpt")

            def interrupt(index: int) -> None:
                if index + 1 == stop_at:
                    raise KeyboardInterrupt

            try:
                result = engine.simulate(circuit, strategy,
                                         checkpoint_path=path,
                                         reorder=reorder,
                                         on_op=interrupt)
                return PlanOutcome(result=result)
            except KeyboardInterrupt:
                resumed_engine = _make_engine(plan, engine_cls)
                resumed_reorder = _reorder_policy(plan.reorder) \
                    if plan.reorder is not None else None
                result = resumed_engine.resume(path, circuit,
                                               reorder=resumed_reorder)
                return PlanOutcome(result=result, resumed=True)
    except MemoryBudgetExceeded:
        return PlanOutcome(result=None, budget_aborted=True)
    except Exception as exc:  # noqa: BLE001 -- any engine crash is evidence
        return PlanOutcome(result=None,
                           error=f"{type(exc).__name__}: {exc}")


def dense_fidelity(result: SimulationResult,
                   circuit: QuantumCircuit) -> float:
    """``|<result|dense oracle>|^2`` (permutation-aware amplitudes)."""
    oracle = simulate_statevector(circuit)
    inner = 0j
    for index in range(len(oracle)):
        inner += result.amplitude(index).conjugate() * oracle[index]
    return abs(inner) ** 2


# ----------------------------------------------------------------------
# the planted reorder-path bug
# ----------------------------------------------------------------------

class BrokenReorderEngine(SimulationEngine):
    """Engine that "forgets" to notify the strategy after a mid-run sift.

    :meth:`SimulationEngine._reorder` permutes the run's pending product
    to the new variable order and then calls
    :meth:`SimulationEngine._notify_reorder` so accumulating strategies
    re-adopt it.  This subclass drops the notification -- the strategy
    keeps combining new-order gate DDs into its stale old-order product,
    which silently corrupts results but *only* when an accumulating
    strategy, a reorder trigger and a non-identity sift line up.  Blind
    circuit fuzzing can never reach it; the option-surface fuzzer must
    (``python -m repro fuzz --plan-options --inject-broken``).
    """

    def _notify_reorder(self, run: object) -> None:
        return None


#: engine implementations a :class:`~repro.verification.fuzz.FuzzConfig`
#: can name (plain data crosses worker processes; classes do not)
_ENGINES: dict[str, type[SimulationEngine]] = {
    "default": SimulationEngine,
    "broken-reorder": BrokenReorderEngine,
}


def engine_class(name: str) -> type[SimulationEngine]:
    """Resolve a config-level engine name to an engine class."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown plan engine {name!r}; "
                         f"expected one of {sorted(_ENGINES)}") from None
