"""Fuzz cases: a circuit *and* the run options it executes under.

The blind fuzzer's unit of work is a circuit; the option-surface fuzzer's
unit is a :class:`FuzzCase` -- a flat operation list, an optional repeated
block, and a :class:`~repro.verification.plans.RunPlan`.  The block is
structural, not just notation: the ``repeating`` strategy caches the
combined block DD and re-uses it on every later visit, so a case can
express "apply this block, reshape the state, apply the same block again"
-- the exact shape that distinguishes a correct engine from one that
forgets to invalidate caches across a mid-run reorder.  QASM cannot (it
unrolls blocks), which is why cases serialise operations structurally and
keep QASM only as a human-readable rendering.

:func:`check_case` runs the case's plan on a fresh engine and compares
the outcome against the dense statevector oracle; :func:`minimize_case`
shrinks a failing case greedily -- gates, then qubits, then the block
shape, then the option plan -- re-verifying the failure at every step.
The minimizer takes its oracle as a ``fails(case)`` predicate, so the
option-surface campaigns and the differential fuzzer (a plain circuit is
a case with no block and the default plan) share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from random import Random
from typing import Callable

from ..circuit.circuit import QuantumCircuit, RepeatedBlock
from ..circuit.operation import Operation
from ..circuit.qasm import to_qasm
from ..simulation.engine import SimulationEngine
from .plans import (PlanOutcome, RunPlan, dense_fidelity, draw_plan,
                    execute_plan)

__all__ = ["CaseVerdict", "FuzzCase", "case_qasm", "check_case",
           "draw_case", "draw_operations", "minimize_case"]

#: agreement threshold, identical to the differential fuzzer's
FIDELITY_FLOOR = 1 - 1e-9

_CLIFFORD_T_1Q = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
_ROTATIONS = ("rx", "ry", "rz", "p")


# ----------------------------------------------------------------------
# operation drawing (shared with the blind fuzzer's fuzz_circuit)
# ----------------------------------------------------------------------

def draw_operations(rng: Random, num_qubits: int, num_operations: int,
                    rotation_probability: float = 0.4) -> list[Operation]:
    """Random operations from the fuzzing distribution.

    Clifford+T single-qubit gates, CX/CZ/CCX entanglers, and continuous
    rotations with angles that are not nice dyadic fractions of pi --
    exactly the amplitudes where a normalisation or phase bug hides.
    """
    operations = []
    for _ in range(num_operations):
        roll = rng.random()
        if roll < rotation_probability:
            gate = rng.choice(_ROTATIONS)
            angle = rng.uniform(0, 2 * math.pi)
            operations.append(Operation(gate, rng.randrange(num_qubits),
                                        params=(angle,)))
        elif roll < rotation_probability + 0.35 and num_qubits >= 2:
            control, target = rng.sample(range(num_qubits), 2)
            if num_qubits >= 3 and rng.random() < 0.25:
                second = rng.choice([q for q in range(num_qubits)
                                     if q not in (control, target)])
                operations.append(Operation("x", target,
                                            ((control, 1), (second, 1))))
            elif rng.random() < 0.5:
                operations.append(Operation("x", target, ((control, 1),)))
            else:
                operations.append(Operation("z", target, ((control, 1),)))
        else:
            gate = rng.choice(_CLIFFORD_T_1Q)
            operations.append(Operation(gate, rng.randrange(num_qubits)))
    return operations


# ----------------------------------------------------------------------
# the case
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzCase:
    """One circuit-plus-options fuzzing input.

    ``operations`` is the flat single-pass gate list.  When ``block`` is
    set to ``(start, length, repetitions)``, the slice
    ``operations[start:start+length]`` becomes the body of one
    :class:`~repro.circuit.circuit.RepeatedBlock` at that position; with
    ``block_again`` the *same* block object is appended once more at the
    end of the circuit, after the remaining operations -- the engine then
    revisits its cached combined DD after the state (and possibly the
    variable order) changed.
    """

    num_qubits: int
    operations: tuple
    plan: RunPlan
    block: tuple | None = None
    block_again: bool = False
    seed: int = 0

    def validate(self) -> None:
        self.plan.validate()
        if self.num_qubits < 1:
            raise ValueError(f"case needs >= 1 qubit, got {self.num_qubits}")
        for operation in self.operations:
            if operation.max_qubit() >= self.num_qubits:
                raise ValueError(f"operation {operation} exceeds "
                                 f"{self.num_qubits} qubits")
        if self.block is not None:
            start, length, repetitions = self.block
            if not (0 <= start and length >= 1 and repetitions >= 1
                    and start + length <= len(self.operations)):
                raise ValueError(f"block spec {self.block} does not fit "
                                 f"{len(self.operations)} operations")
        elif self.block_again:
            raise ValueError("block_again without a block")

    def circuit(self, name: str | None = None) -> QuantumCircuit:
        """The case as a circuit (block instantiated, possibly twice)."""
        circuit = QuantumCircuit(self.num_qubits,
                                 name=name or f"case-{self.seed}")
        if self.block is None:
            for operation in self.operations:
                circuit.append(operation)
            return circuit
        start, length, repetitions = self.block
        body = tuple(self.operations[start:start + length])
        block = RepeatedBlock(body, repetitions)
        for operation in self.operations[:start]:
            circuit.append(operation)
        circuit.append(block)
        for operation in self.operations[start + length:]:
            circuit.append(operation)
        if self.block_again:
            circuit.append(block)
        return circuit

    def gate_count(self) -> int:
        """Distinct gates in the case (the minimizer's size metric)."""
        return len(self.operations)

    def describe(self) -> str:
        block = ""
        if self.block is not None:
            start, length, repetitions = self.block
            block = (f", block ops[{start}:{start + length}] x{repetitions}"
                     f"{' (revisited)' if self.block_again else ''}")
        return (f"{len(self.operations)} gate(s) on {self.num_qubits} "
                f"qubit(s){block}, plan: {self.plan.describe()}")

    # -- serialisation (corpus schema 2) --------------------------------

    def as_dict(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "operations": [_operation_dict(op) for op in self.operations],
            "plan": self.plan.as_dict(),
            "block": list(self.block) if self.block is not None else None,
            "block_again": self.block_again,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCase":
        block = payload.get("block")
        case = cls(
            num_qubits=int(payload["num_qubits"]),
            operations=tuple(_operation_from_dict(op)
                             for op in payload["operations"]),
            plan=RunPlan.from_dict(payload.get("plan") or {}),
            block=tuple(block) if block is not None else None,
            block_again=bool(payload.get("block_again", False)),
            seed=int(payload.get("seed", 0)),
        )
        case.validate()
        return case


def _operation_dict(operation: Operation) -> dict:
    return {
        "gate": operation.gate,
        "target": operation.target,
        "controls": [list(control) for control in operation.controls],
        "params": list(operation.params),
    }


def _operation_from_dict(payload: dict) -> Operation:
    return Operation(payload["gate"], int(payload["target"]),
                     tuple((int(q), int(v))
                           for q, v in payload.get("controls", ())),
                     tuple(float(p) for p in payload.get("params", ())))


# ----------------------------------------------------------------------
# drawing
# ----------------------------------------------------------------------

def draw_case(rng: Random, min_qubits: int = 2, max_qubits: int = 6,
              min_operations: int = 5, max_operations: int = 40,
              rotation_probability: float = 0.4,
              block_probability: float = 0.45, seed: int = 0) -> FuzzCase:
    """One random case: operations, an optional repeated block, a plan.

    Half the blocked cases revisit the block after the trailing
    operations (``block_again``): the trailing gates reshape the state
    between the two visits, which is the only circuit shape that can
    catch stale block-cache bugs across a mid-run reorder.
    """
    num_qubits = rng.randint(min_qubits, max_qubits)
    num_operations = rng.randint(min_operations, max_operations)
    operations = draw_operations(rng, num_qubits, num_operations,
                                 rotation_probability)
    block: tuple | None = None
    block_again = False
    if len(operations) >= 2 and rng.random() < block_probability:
        length = rng.randint(1, min(4, len(operations) - 1))
        start = rng.randint(0, len(operations) - length)
        block = (start, length, rng.randint(1, 3))
        block_again = rng.random() < 0.5 and start + length < len(operations)
    plan = draw_plan(rng, block=block is not None)
    return FuzzCase(num_qubits=num_qubits, operations=tuple(operations),
                    plan=plan, block=block, block_again=block_again,
                    seed=seed)


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------

@dataclass
class CaseVerdict:
    """One case run judged against the dense oracle."""

    #: "ok" (matched), "skip" (budget abort), "fail" (mismatch or crash)
    status: str
    outcome: PlanOutcome
    fidelity: float | None = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def check_case(case: FuzzCase,
               engine_cls: type[SimulationEngine] = SimulationEngine,
               fidelity_floor: float = FIDELITY_FLOOR) -> CaseVerdict:
    """Run the case's plan on a fresh engine, compare to the dense oracle.

    Budget aborts are skips (a plan run is *allowed* to give up under a
    tight ``max_nodes``); crashes and sub-floor fidelities are failures.
    """
    circuit = case.circuit()
    outcome = execute_plan(circuit, case.plan, engine_cls=engine_cls)
    if outcome.budget_aborted:
        return CaseVerdict(status="skip", outcome=outcome)
    if outcome.error is not None or outcome.result is None:
        return CaseVerdict(status="fail", outcome=outcome,
                           error=outcome.error)
    fidelity = dense_fidelity(outcome.result, circuit)
    if fidelity < fidelity_floor:
        return CaseVerdict(status="fail", outcome=outcome,
                           fidelity=fidelity)
    return CaseVerdict(status="ok", outcome=outcome, fidelity=fidelity)


# ----------------------------------------------------------------------
# minimization
# ----------------------------------------------------------------------

def _delete_operation(case: FuzzCase, index: int) -> FuzzCase | None:
    """The case with one operation removed (block indices adjusted)."""
    operations = case.operations[:index] + case.operations[index + 1:]
    block = case.block
    block_again = case.block_again
    if block is not None:
        start, length, repetitions = block
        if index < start:
            start -= 1
        elif index < start + length:
            length -= 1
        if length < 1:
            block = None
            block_again = False
        else:
            block = (start, length, repetitions)
            block_again = block_again and start + length < len(operations)
    if not operations:
        return None
    return replace(case, operations=operations, block=block,
                   block_again=block_again)


def _delete_qubit(case: FuzzCase, qubit: int) -> FuzzCase | None:
    """The case with one qubit (and every gate touching it) removed."""
    if case.num_qubits <= 1:
        return None
    operations = []
    removed = []
    for index, operation in enumerate(case.operations):
        if qubit in operation.qubits():
            removed.append(index)
            continue
        operations.append(_shift_qubit(operation, qubit))
    block = case.block
    block_again = case.block_again
    if block is not None:
        start, length, repetitions = block
        start -= sum(1 for index in removed if index < start)
        length -= sum(1 for index in removed
                      if block[0] <= index < block[0] + block[1])
        if length < 1:
            block = None
            block_again = False
        else:
            block = (start, length, repetitions)
            block_again = block_again and start + length < len(operations)
    if not operations:
        return None
    return replace(case, num_qubits=case.num_qubits - 1,
                   operations=tuple(operations), block=block,
                   block_again=block_again)


def _shift_qubit(operation: Operation, qubit: int) -> Operation:
    def shift(q: int) -> int:
        return q - 1 if q > qubit else q
    return Operation(operation.gate, shift(operation.target),
                     tuple((shift(q), value)
                           for q, value in operation.controls),
                     operation.params)


def _block_variants(case: FuzzCase) -> list[FuzzCase]:
    """Simpler block shapes to try (fewer repetitions, no revisit)."""
    variants = []
    if case.block is not None:
        start, length, repetitions = case.block
        if repetitions > 1:
            variants.append(replace(case, block=(start, length, 1)))
        if case.block_again:
            variants.append(replace(case, block_again=False))
        variants.append(replace(case, block=None, block_again=False))
    return variants


def _plan_variants(case: FuzzCase) -> list[FuzzCase]:
    """Plans with one option dropped, plus canonical small values."""
    variants = []
    for option in case.plan.options():
        variants.append(replace(case, plan=case.plan.without(option)))
    reorder = case.plan.reorder
    if reorder is not None and reorder.startswith("every=") \
            and reorder != "every=1":
        payload = case.plan.as_dict()
        payload["reorder"] = "every=1"
        variants.append(replace(case, plan=RunPlan(**payload)))
    return variants


def minimize_case(case: FuzzCase,
                  fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    """Shrink a failing case while ``fails(case)`` stays true.

    Greedy and deterministic: gate deletion to a fixpoint, qubit
    deletion, block simplification (fewer repetitions, drop the revisit,
    drop the block), then option-plan shrinking (drop each non-default
    option, canonicalise ``every=K`` to ``every=1``), all repeated until
    nothing shrinks.  Every accepted step re-verifies the failure, so the
    result is a true reproducer.  The plan campaigns pass
    ``lambda c: check_case(c, engine_cls, floor).failed``.
    """

    def still_fails(candidate: FuzzCase | None) -> bool:
        if candidate is None:
            return False
        try:
            candidate.validate()
        except ValueError:
            return False
        return fails(candidate)

    progress = True
    while progress:
        before = (case.gate_count(), case.num_qubits, case.block,
                  case.block_again, case.plan)
        changed = True
        while changed:
            changed = False
            for index in range(len(case.operations) - 1, -1, -1):
                trial = _delete_operation(case, index)
                if still_fails(trial):
                    assert trial is not None
                    case = trial
                    changed = True
        changed = True
        while changed and case.num_qubits > 1:
            changed = False
            for qubit in range(case.num_qubits - 1, -1, -1):
                trial = _delete_qubit(case, qubit)
                if still_fails(trial):
                    assert trial is not None
                    case = trial
                    changed = True
                    break
        changed = True
        while changed:
            changed = False
            for trial in _block_variants(case):
                if still_fails(trial):
                    case = trial
                    changed = True
                    break
        changed = True
        while changed:
            changed = False
            for trial in _plan_variants(case):
                if still_fails(trial):
                    case = trial
                    changed = True
                    break
        # plan and block shrinking can unlock further gate deletions
        # (e.g. dropping checkpoint_at makes a shorter circuit still
        # reach the bug), so iterate the whole pipeline to a fixpoint
        progress = (case.gate_count(), case.num_qubits, case.block,
                    case.block_again, case.plan) != before
    return case


def case_qasm(case: FuzzCase) -> str:
    """Human-readable QASM of the built circuit (blocks unrolled)."""
    return to_qasm(case.circuit())
