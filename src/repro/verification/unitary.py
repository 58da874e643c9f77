"""Full-circuit unitary construction and DD-based equivalence checking.

A direct application of the machinery the paper studies: multiplying *all*
of a circuit's gate matrices together (pure Eq. 2) yields the circuit's
functionality as one matrix DD.  That is rarely the fastest way to simulate
a single input state -- but it is exactly how DD-based *equivalence
checking* works: two circuits are equivalent iff their unitary DDs coincide
(up to global phase), and the canonicity of the diagrams makes the final
comparison a pointer check.

The module also supports the classic "G then inverse of G'" scheme: build
``U_good^dagger @ U_candidate`` and verify it is the identity, which keeps
the intermediate diagrams close to the (linear-sized) identity whenever the
two circuits are similar.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from ..circuit.circuit import QuantumCircuit
from ..dd.edge import Edge
from ..dd.package import Package
from ..simulation.engine import SimulationEngine

__all__ = ["circuit_unitary_dd", "EquivalenceResult", "check_equivalence"]


def circuit_unitary_dd(engine: SimulationEngine,
                       circuit: QuantumCircuit) -> Edge:
    """The whole circuit as one matrix DD (identity for an empty circuit)."""
    package = engine.package
    unitary = package.identity(circuit.num_qubits)
    for operation in circuit.operations():
        gate = engine.gate_dd(operation, circuit.num_qubits)
        unitary = package.multiply_matrix_matrix(gate, unitary)
    return unitary


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    #: the relative global phase between the two circuits (when equivalent)
    global_phase: complex | None
    #: which scheme decided: "pointer" (canonical DD comparison) or
    #: "miter" (U_a^dagger U_b vs identity)
    method: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.equivalent


#: Slack of the node comparison, in complex-table tolerances (the
#: integrity auditor allows the same).  The table snaps only values below
#: the tolerance, so a miter ``U_b U_a^dagger`` of two equal circuits can
#: keep off-diagonal weights of exactly the tolerance: its node is then
#: not the identity's, though the two agree to working precision.
_SLACK_TOLERANCES = 8


def _phase_between(package: Package, a: Edge, b: Edge) -> complex | None:
    """If ``a = c * b`` for a unit-magnitude scalar ``c``, return ``c``.

    Canonical diagrams make this a pointer check.  When the root nodes
    differ, a lockstep walk still accepts them if every pair of
    corresponding child weights agrees to within a few tolerances.
    """
    if b.weight == 0:
        return 1 + 0j if a.weight == 0 else None
    ratio = a.weight / b.weight
    if abs(abs(ratio) - 1.0) > 1e-9:
        return None
    slack = _SLACK_TOLERANCES * package.complex_table.tolerance
    if not _nodes_close(a.node, b.node, slack, set()):
        return None
    return ratio


def _nodes_close(x, y, slack: float, close: set[tuple[int, int]]) -> bool:
    """Whether nodes ``x`` and ``y`` agree child weight by child weight to
    within ``slack``; ``close`` memoises the pairs already found to agree.

    Module level, with the memo as an argument: a self-calling closure
    would sit in a reference cycle.
    """
    if x is y:
        return True
    if x.level != y.level:
        return False
    key = (id(x), id(y))
    if key in close:
        return True
    for ex, ey in zip(x.edges, y.edges):
        if abs(ex.weight - ey.weight) > slack:
            return False
        if ex.weight != 0 and ey.weight != 0 \
                and not _nodes_close(ex.node, ey.node, slack, close):
            return False
    close.add(key)
    return True


def check_equivalence(circuit_a: QuantumCircuit, circuit_b: QuantumCircuit,
                      up_to_global_phase: bool = True,
                      method: str = "miter",
                      engine: SimulationEngine | None = None) -> EquivalenceResult:
    """Decide whether two circuits implement the same unitary.

    Parameters
    ----------
    up_to_global_phase:
        Quantum-mechanically, circuits differing only in a global phase are
        indistinguishable; with ``False`` exact matrix equality is required.
    method:
        ``"miter"`` (default) multiplies ``circuit_b``'s gates and the
        *inverted* ``circuit_a`` gates and compares against the identity --
        cheap when the circuits are close.  ``"pointer"`` builds both
        unitaries independently and compares the canonical diagrams.
    """
    if circuit_a.num_qubits != circuit_b.num_qubits:
        return EquivalenceResult(False, None, method)
    engine = engine or SimulationEngine()
    package = engine.package

    if method == "pointer":
        unitary_a = circuit_unitary_dd(engine, circuit_a)
        unitary_b = circuit_unitary_dd(engine, circuit_b)
        phase = _phase_between(package, unitary_a, unitary_b)
    elif method == "miter":
        combined = QuantumCircuit(circuit_a.num_qubits, name="miter")
        combined.compose(circuit_b)
        combined.compose(circuit_a.inverse())
        miter = circuit_unitary_dd(engine, combined)
        identity = package.identity(circuit_a.num_qubits)
        phase = _phase_between(package, miter, identity)
        if phase is not None:
            # miter = U_a^dagger U_b = conj(c) I when U_a = c U_b; report c
            # so both methods agree on the meaning of the phase.
            phase = phase.conjugate()
    else:
        raise ValueError(f"unknown method {method!r}; use 'miter' or "
                         "'pointer'")

    if phase is None:
        return EquivalenceResult(False, None, method)
    if not up_to_global_phase and abs(phase - 1) > 1e-9:
        return EquivalenceResult(False, phase, method)
    return EquivalenceResult(True, phase, method)
