"""The ``auto`` backend selector: cheap predictors pick the simulator.

Scoring is intentionally transparent: every registered built-in gets a
score in ``[0, 1]`` from the O(gates) feature vector of
:func:`repro.analysis.predictors.circuit_features`, the argmax wins, and
the full decision record -- chosen backend, features, per-backend scores,
and a one-line reason -- is returned as a :class:`Selection` so callers
can log it into :class:`~repro.simulation.statistics.SimulationStatistics`
(``simulate --backend auto`` does exactly that).

The heuristics encode what the bench data shows:

* Lightly entangling / structured circuits keep their DDs small -- the DD
  family wins regardless of width, and past a few hundred gates the
  iterative flat kernel beats the recursive core.
* Heavily entangling rotation circuits densify their DDs; on registers
  that fit in memory, a flat array with O(2^m) per-gate slicing (dense)
  is faster than pushing a near-dense DD around.
* The matrix pathway never wins ``auto`` -- it exists for strategy
  studies and as an independent oracle in the fuzz pool -- so it is
  scored but pinned to the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.predictors import CircuitFeatures, circuit_features
from ..circuit.circuit import QuantumCircuit
from .base import Backend
from .registry import available_backends, create_backend

__all__ = ["Selection", "resolve_backend", "score_backends",
           "select_backend"]

#: dense only competes below this width (beyond it DD compression
#: usually wins)
_DENSE_MAX_QUBITS = 10

#: operation count past which the iterative kernel's lower per-node
#: overhead and local-gate path beat the recursive core's gate-DD steps
_ITERATIVE_CUTOVER_OPS = 64


@dataclass(frozen=True)
class Selection:
    """The selector's decision record (logged for observability)."""

    backend: str
    features: CircuitFeatures
    scores: dict[str, float] = field(default_factory=dict)
    reason: str = ""

    def as_dict(self) -> dict:
        """JSON payload stored in ``SimulationStatistics.backend_selection``."""
        return {
            "backend": self.backend,
            "features": self.features.as_dict(),
            "scores": {name: round(score, 4)
                       for name, score in sorted(self.scores.items())},
            "reason": self.reason,
        }


def _density_signal(features: CircuitFeatures) -> float:
    """How 'dense' the final state likely is, in ``[0, ~1.5]``.

    The entanglement bound (normalised by the cut size) says whether DD
    compression can survive; the rotation fraction says whether the
    amplitudes densify even at modest entanglement.
    """
    cut = max(1, features.num_qubits // 2)
    entanglement_ratio = features.entanglement_estimate / cut
    return entanglement_ratio * (0.5 + features.rotation_fraction)


def score_backends(features: CircuitFeatures) -> dict[str, float]:
    """Score every registered built-in for this feature vector."""
    density = _density_signal(features)
    ops = features.num_operations
    fits_dense = features.num_qubits <= _DENSE_MAX_QUBITS
    scores = {
        # cached gate DDs times the state: cheap on short, structured
        # circuits
        "dd": 0.55 - 0.25 * min(1.0, ops / _ITERATIVE_CUTOVER_OPS),
        # the flat kernel takes over as the gate stream grows
        "dd-iterative": 0.45 + 0.25 * min(1.0, ops / (4
                                          * _ITERATIVE_CUTOVER_OPS)),
        # strategy-study pathway: scored for the record, never the winner
        "dd-matrix": 0.05,
        "dense": density if fits_dense else 0.0,
    }
    return {name: score for name, score in scores.items()
            if name in available_backends()}


def select_backend(circuit: QuantumCircuit) -> Selection:
    """Pick the best registered backend for ``circuit``."""
    features = circuit_features(circuit)
    scores = score_backends(features)
    if not scores:
        raise ValueError("no scorable backends registered; "
                         "import repro.backends to register the built-ins")
    winner = max(sorted(scores), key=lambda name: scores[name])
    density = _density_signal(features)
    reason = (
        f"{features.num_qubits} qubits, {features.num_operations} ops, "
        f"entanglement bound {features.entanglement_estimate} ebit(s), "
        f"rotation fraction {features.rotation_fraction:.2f} "
        f"-> density signal {density:.2f}: "
        + ("dense wins (near-dense state on a small register)"
           if winner == "dense"
           else "DD family wins (structured/lightly-entangling circuit)"))
    return Selection(backend=winner, features=features, scores=scores,
                     reason=reason)


def resolve_backend(name: str, circuit: QuantumCircuit,
                    **options) -> tuple[Backend, Selection | None]:
    """Resolve ``name`` (a registry name or ``"auto"``) to an instance.

    Returns the backend plus the :class:`Selection` when ``auto`` decided
    (``None`` for explicit names -- an explicit choice always beats
    ``auto``).
    """
    if name == "auto":
        selection = select_backend(circuit)
        return create_backend(selection.backend, **options), selection
    return create_backend(name, **options), None
