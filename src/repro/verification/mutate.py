"""Mutation operators for coverage-guided fuzzing.

The mutation campaign (``fuzz --mutate``) does not draw every case from
scratch: it keeps a pool of *interesting* cases (those whose run lit up
new :mod:`~repro.verification.coverage` buckets) and derives new cases
from them by small mutations.  Each operator changes exactly one thing --
one gate, one block parameter, one plan option -- so novelty found by a
mutant is attributable, and the greedy minimizer can later walk the same
lattice downward.

Operators keep the case well-formed by construction (block indices are
adjusted on insert/delete, targets stay inside the register); callers
never need to re-validate beyond :meth:`FuzzCase.validate`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from random import Random

from ..circuit.operation import Operation
from .cases import FuzzCase, draw_operations
from .plans import RunPlan

__all__ = ["mutate_case"]


def _insert_operation(case: FuzzCase, rng: Random) -> FuzzCase:
    operation = draw_operations(rng, case.num_qubits, 1)[0]
    index = rng.randint(0, len(case.operations))
    operations = (case.operations[:index] + (operation,)
                  + case.operations[index:])
    block = case.block
    if block is not None:
        start, length, repetitions = block
        if index <= start:
            start += 1
        elif index < start + length:
            length += 1
        block = (start, length, repetitions)
    return replace(case, operations=operations, block=block)


def _delete_operation(case: FuzzCase, rng: Random) -> FuzzCase:
    if len(case.operations) <= 1:
        return case
    index = rng.randrange(len(case.operations))
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
    return replace(case, operations=operations, block=block,
                   block_again=block_again)


def _swap_operations(case: FuzzCase, rng: Random) -> FuzzCase:
    if len(case.operations) < 2:
        return case
    index = rng.randrange(len(case.operations) - 1)
    operations = list(case.operations)
    operations[index], operations[index + 1] = \
        operations[index + 1], operations[index]
    return replace(case, operations=tuple(operations))


def _perturb_angle(case: FuzzCase, rng: Random) -> FuzzCase:
    candidates = [index for index, op in enumerate(case.operations)
                  if op.params]
    if not candidates:
        return case
    index = rng.choice(candidates)
    operation = case.operations[index]
    params = tuple(p + rng.uniform(-math.pi / 4, math.pi / 4)
                   for p in operation.params)
    operations = list(case.operations)
    operations[index] = Operation(operation.gate, operation.target,
                                  operation.controls, params)
    return replace(case, operations=tuple(operations))


def _retarget(case: FuzzCase, rng: Random) -> FuzzCase:
    if case.num_qubits < 2:
        return case
    index = rng.randrange(len(case.operations))
    operation = case.operations[index]
    free = [q for q in range(case.num_qubits)
            if q not in operation.qubits()]
    if not free:
        return case
    operations = list(case.operations)
    operations[index] = Operation(operation.gate, rng.choice(free),
                                  operation.controls, operation.params)
    return replace(case, operations=tuple(operations))


def _add_qubit(case: FuzzCase, rng: Random) -> FuzzCase:
    if case.num_qubits >= 8:
        return case
    return _insert_operation(replace(case, num_qubits=case.num_qubits + 1),
                             rng)


def _mutate_block(case: FuzzCase, rng: Random) -> FuzzCase:
    if case.block is None:
        if len(case.operations) < 2:
            return case
        length = rng.randint(1, min(4, len(case.operations) - 1))
        start = rng.randint(0, len(case.operations) - length)
        again = rng.random() < 0.5 and \
            start + length < len(case.operations)
        return replace(case, block=(start, length, rng.randint(1, 3)),
                       block_again=again)
    start, length, repetitions = case.block
    roll = rng.random()
    if roll < 0.3:
        return replace(case, block=None, block_again=False)
    if roll < 0.6:
        return replace(case,
                       block=(start, length, max(1, repetitions
                                                 + rng.choice((-1, 1)))))
    if start + length < len(case.operations):
        return replace(case, block_again=not case.block_again)
    return case


def _mutate_plan(case: FuzzCase, rng: Random) -> FuzzCase:
    payload = case.plan.as_dict()
    field = rng.choice(("kernel", "dense_blocks", "strategy", "reorder",
                        "max_nodes", "checkpoint_at"))
    if field == "kernel":
        payload["kernel"] = "iterative" \
            if payload["kernel"] == "recursive" else "recursive"
    elif field == "dense_blocks":
        payload["dense_blocks"] = not payload["dense_blocks"]
    elif field == "strategy":
        payload["strategy"] = rng.choice(
            ("sequential", "k=2", "k=4", "smax=8", "adaptive",
             "repeating", "repeating:k=2"))
    elif field == "reorder":
        payload["reorder"] = rng.choice(
            (None, "governor", f"every={rng.randint(1, 6)}"))
    elif field == "max_nodes":
        payload["max_nodes"] = rng.choice(
            (None, 48, 96, 192, 384))
    else:
        payload["checkpoint_at"] = rng.choice(
            (None, rng.randint(1, 30)))
    return replace(case, plan=RunPlan(**payload))


_MUTATIONS = (
    _insert_operation,
    _delete_operation,
    _swap_operations,
    _perturb_angle,
    _retarget,
    _add_qubit,
    _mutate_block,
    _mutate_plan,
    _mutate_plan,       # plan mutations twice as likely: the option
                        # surface is what this fuzzer exists to explore
)


def mutate_case(case: FuzzCase, rng: Random) -> FuzzCase:
    """One random single-step mutation of ``case`` (always well-formed).

    Falls back to inserting a gate when the drawn operator does not apply
    (e.g. angle perturbation on a rotation-free case), so a mutation
    never silently returns the parent unchanged.
    """
    mutated = rng.choice(_MUTATIONS)(case, rng)
    if mutated is case:
        mutated = _insert_operation(case, rng)
    mutated.validate()
    return mutated
