"""One engine driver: a run's options never change its schedule.

Plain, audited, checkpointed and resumed runs all go through
``SimulationEngine._run_ops``.  A strategy that does not reuse blocks gets
one unit (and one boundary) per elementary operation; DD-repeating gets one
per pass of a repeated block.  So the MxV / MxM / reused schedule -- the
paper's result -- is the same with or without ``audit_every``,
``checkpoint_every`` and ``on_op``, on both kernels.  A resumed
DD-repeating run re-combines each block it reaches once more: the block
cache is not checkpointed.
"""

import os
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.algorithms.grover import grover_circuit
from repro.baseline import simulate_statevector
from repro.circuit import RepeatedBlock
from repro.dd import vector_to_numpy
from repro.dd.package import Package
from repro.simulation import (SimulationEngine, load_checkpoint,
                              strategy_from_spec)

from ..test_differential import random_circuit

SPECS = ["sequential", "k=3", "smax=16", "adaptive", "repeating",
         "repeating:k=4"]
KERNELS = ["recursive", "iterative"]
CIRCUITS = {
    # 6 H gates, then 6 passes of a 32-operation Grover iteration
    "grover6": grover_circuit(6, 13).circuit,
    # no blocks; short, since a per-operation audit costs ~12 ms
    "random4": random_circuit(4, 40, seed=101, rotations=True),
}


def schedule(statistics) -> tuple[int, int, int, int]:
    return (statistics.matrix_vector_mults, statistics.matrix_matrix_mults,
            statistics.reused_block_applications,
            statistics.operations_applied)


def simulate(kernel, circuit, spec, **options):
    engine = SimulationEngine(Package(kernel=kernel))
    return engine.simulate(circuit, strategy_from_spec(spec), **options)


@lru_cache(maxsize=None)
def plain_schedule(name, spec, kernel):
    return schedule(simulate(kernel, CIRCUITS[name], spec).statistics)


def block_passes(circuit):
    """``(first, end)`` of every pass of the circuit's one repeated block."""
    position = 0
    for instruction in circuit.instructions:
        if not isinstance(instruction, RepeatedBlock):
            position += 1
            continue
        size = sum(1 for _ in instruction.operations())
        return [(position + size * rep, position + size * (rep + 1))
                for rep in range(instruction.repetitions)]
    return []


def matches_oracle(result, circuit) -> bool:
    amplitudes = vector_to_numpy(result.state, circuit.num_qubits)
    return np.allclose(amplitudes, simulate_statevector(circuit), atol=1e-8)


GRID = [pytest.param(name, spec, kernel, id=f"{name}-{spec}-{kernel}")
        for name in CIRCUITS for spec in SPECS for kernel in KERNELS]


class TestOptionsKeepTheSchedule:
    def test_grover_repeating_reads(self, tmp_path):
        # the paper's DD-repeating result on Grover-6, plain and audited;
        # a resume after a mid-block interrupt combines the block again
        circuit = CIRCUITS["grover6"]
        for spec, expected in (("repeating", (12, 31, 5, 198)),
                               ("repeating:k=4", (8, 35, 5, 198))):
            for options in ({}, {"audit_every": 1}):
                result = simulate("recursive", circuit, spec, **options)
                assert schedule(result.statistics) == expected, options
        path = str(tmp_path / "run.ckpt")

        def interrupt(index: int) -> None:
            if index == 40:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            simulate("recursive", circuit, "repeating",
                     checkpoint_path=path, on_op=interrupt)
        resumed = SimulationEngine().resume(path, circuit)
        assert schedule(resumed.statistics) == (12, 62, 4, 198)

    @pytest.mark.parametrize("name,spec,kernel", GRID)
    def test_audited_run(self, name, spec, kernel):
        audited = simulate(kernel, CIRCUITS[name], spec,
                           audit_every=1).statistics
        assert schedule(audited) == plain_schedule(name, spec, kernel)
        assert audited.audits_run > 0

    @pytest.mark.parametrize("name,spec,kernel", GRID)
    def test_checkpointed_run(self, name, spec, kernel, tmp_path):
        checkpointed = simulate(kernel, CIRCUITS[name], spec,
                                checkpoint_path=str(tmp_path / "run.ckpt"),
                                checkpoint_every=10).statistics
        assert schedule(checkpointed) == plain_schedule(name, spec, kernel)
        assert checkpointed.checkpoints_written > 0


class TestInterruptAndResume:
    @pytest.mark.parametrize("stop", [5, 40, 100, 150])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("spec", SPECS)
    def test_resume_follows_the_block_cache_rule(self, spec, kernel, stop,
                                                 tmp_path):
        circuit = CIRCUITS["grover6"]
        path = str(tmp_path / "run.ckpt")

        def interrupt(index: int) -> None:
            if index == stop:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            simulate(kernel, circuit, spec, checkpoint_path=path,
                     on_op=interrupt)
        checkpoint = load_checkpoint(path)
        resumed = SimulationEngine(Package(kernel=kernel)).resume(
            checkpoint, circuit)
        assert matches_oracle(resumed, circuit)

        mxv, mxm, reused, operations = plain_schedule("grover6", spec,
                                                      kernel)
        passes = block_passes(circuit)
        holding = [p for p in passes if p[0] <= stop < p[1]]
        if spec.startswith("repeating") and holding:
            # a pass is one unit: the checkpoint falls at its end
            assert checkpoint.op_index == holding[0][1]
        else:
            assert checkpoint.op_index == stop + 1
        if (spec.startswith("repeating") and passes
                and passes[0][1] <= checkpoint.op_index < passes[-1][1]):
            # combined before the checkpoint and reached again after it:
            # the resumed run combines the block once more
            size = passes[0][1] - passes[0][0]
            mxm, reused = mxm + size - 1, reused - 1
        assert schedule(resumed.statistics) == (mxv, mxm, reused,
                                                operations)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("inner", ["sequential", "k=4"])
    def test_resume_inside_a_pass_feeds_its_rest(self, inner, kernel,
                                                 tmp_path):
        # The op-by-op driver of older releases wrote DD-repeating
        # checkpoints anywhere, with the inner strategy's state: the same
        # checkpoint as the inner strategy alone, under the repeating spec.
        circuit = CIRCUITS["grover6"]
        first, end = block_passes(circuit)[0]
        stop = first + 13
        path = str(tmp_path / "old.ckpt")

        def interrupt(index: int) -> None:
            if index == stop:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            simulate(kernel, circuit, inner, checkpoint_path=path,
                     on_op=interrupt)
        checkpoint = load_checkpoint(path)
        assert first < checkpoint.op_index < end
        old = replace(checkpoint, strategy_spec=f"repeating:{inner}")
        resumed = SimulationEngine(Package(kernel=kernel)).resume(old,
                                                                  circuit)
        assert matches_oracle(resumed, circuit)
        statistics = resumed.statistics
        assert statistics.operations_applied == circuit.num_operations()
        # the rest of the first pass went through the inner strategy; the
        # other five passes combine the block once and re-use it four times
        assert statistics.reused_block_applications == 4
        if inner == "sequential":
            assert statistics.matrix_vector_mults == end + 5


class TestOnOp:
    @pytest.mark.parametrize("spec", ["sequential", "k=3", "repeating"])
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_fires_once_per_operation_in_order(self, name, spec, tmp_path):
        circuit = CIRCUITS[name]
        expected = list(range(circuit.num_operations()))
        for options in ({}, {"checkpoint_path": str(tmp_path / "r.ckpt"),
                             "checkpoint_every": 10}):
            seen: list[int] = []
            simulate("recursive", circuit, spec, on_op=seen.append,
                     **options)
            assert seen == expected, options
        assert os.path.exists(tmp_path / "r.ckpt")
