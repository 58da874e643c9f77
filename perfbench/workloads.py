"""Seeded inputs, strategy arms and per-sample checks of the workloads.

Each sample runs one input on one arm with a fresh engine (and so a fresh
DD package, whose counters then describe the sample alone).  An arm is a
strategy on a kernel: the recursive core that ``SimulationEngine()``
builds by default, or ``Package(kernel="iterative")`` with its defaults,
which is what ``--backend dd-iterative`` builds.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from random import Random

import numpy as np

from repro.algorithms.grover import grover_circuit
from repro.algorithms.number_theory import (factors_from_order,
                                            multiplicative_order)
from repro.algorithms.shor import ShorOrderFinder
from repro.algorithms.supremacy import supremacy_circuit
from repro.baseline.statevector import simulate_statevector
from repro.dd.convert import vector_to_numpy
from repro.dd.package import Package
from repro.simulation.engine import SimulationEngine
from repro.simulation.strategies import (MaxSizeStrategy,
                                         RepeatingBlockStrategy,
                                         SequentialStrategy)

KERNELS = ("recursive", "iterative")
#: arms whose batch times are the end-to-end metrics, on every workload
TIMED_STRATEGIES = ("sota", "general", "knowledge")
#: s_max = 16 is the Fig. 9 optimum in EXPERIMENTS.md
S_MAX = 16
FIDELITY_FLOOR = 1 - 1e-9

GROVER_QUBITS = 11
GROVER_DRAWS = 12
#: Odd marked elements in [1025, 1431].  Enumerating all 2048 marked
#: elements of Grover-11 showed that the default sota path loses node
#: sharing (> 200 state nodes, against <= 30) on exactly 197 of them, all
#: in this band; how far a state grows, and so what the run costs, differs
#: from one band member to the next (244 to 2047 nodes, 0.3 to 15 s).
GROVER_BAND = range(1025, 1432, 2)
#: A band member that a uniform draw hit: its states grow to ~2040 nodes
#: and the default sota run takes ~35x as long as a typical one.  Every
#: batch carries it, so the defect shows in every run at one severity.
#: The seeded draws come from outside the band: with i.i.d. draws the
#: number (0-3 in 13 draws) and severity of blowups would dominate the
#: spread of every Grover metric across seeds.
GROVER_PINNED = 1331

SUPREMACY_GRID = (4, 4)
SUPREMACY_DEPTH = 10
#: On 4x4 depth-10 circuits the kind of the last single-qubit gate on
#: these qubits decides the work: a final T (diagonal) on qubit 14 means a
#: 19.4k-node state instead of 12.2k-12.3k, one on qubit 11 a quarter
#: fewer add recursions.  Within such a class the work varies by < 1 %,
#: across classes by up to 1.5x, and the two effects add up.  A batch is
#: two circuits, one with and one without each final T: classes (T, T)
#: and (-, -), or (T, -) and (-, T), as the seed decides.  Both pairs do
#: the same work to 1 %, so the batch's work does not depend on the seed;
#: with i.i.d. draws it varied by +-15 % across seeds.
SUPREMACY_CLASS_QUBITS = (14, 11)
SUPREMACY_PAIRS = (((True, True), (False, False)),
                   ((True, False), (False, True)))
#: the resilient arm's supervision settings
CHECKPOINT_EVERY = 25
REORDER = "every=25"

SHOR_MODULI = (15, 21, 33)

#: Back-to-back fresh runs per sample for arms whose single run is short
#: (DD-construct: 4-80 ms; Grover-11 on the iterative kernel: ~30 ms; the
#: iterative kernel on supremacy: ~0.25 s), which otherwise spread by
#: 12-17 % across seeds.  The sample's time is divided by the count.
REPEATS = {
    ("grover_table1", "sota", "iterative"): 5,
    ("shor_table2", "knowledge", "recursive"): 20,
    ("shor_table2", "knowledge", "iterative"): 20,
    ("supremacy_random", "sota", "iterative"): 3,
    ("supremacy_random", "knowledge", "iterative"): 3,
}


@dataclass(frozen=True)
class Arm:
    strategy: str   # "sota" | "general" | "knowledge" | "resilient"
    kernel: str     # "recursive" | "iterative"
    repeats: int = 1

    @property
    def name(self) -> str:
        suffix = "_iterative" if self.kernel == "iterative" else ""
        return f"t_{self.strategy}{suffix}_s"


@dataclass
class Input:
    label: str
    #: a ``QuantumCircuit``, or ``(modulus, base, measurement seed)``
    payload: object
    #: dense oracle amplitudes (circuit workloads)
    reference: np.ndarray | None = None
    #: seeded op at which the resilient arm is interrupted
    interrupt_at: int = 0


def arms(workload: str, traced: bool) -> list[Arm]:
    """The arms of a run; the resilient pair runs in supremacy traces."""
    strategies = list(TIMED_STRATEGIES)
    if traced and workload == "supremacy_random":
        strategies.append("resilient")
    return [Arm(s, k, REPEATS.get((workload, s, k), 1))
            for s in strategies for k in KERNELS]


class _HookedEngine(SimulationEngine):
    """An engine whose every ``simulate`` call passes ``on_op``.

    A Shor sample calls ``simulate`` once per segment from inside
    ``ShorOrderFinder``; this is how its host readings get in.
    """

    def __init__(self, package: Package | None, on_op) -> None:
        super().__init__(package)
        self._on_op = on_op

    def simulate(self, circuit, strategy=None, initial_state=None,
                 **options):
        return super().simulate(circuit, strategy, initial_state,
                                on_op=self._on_op, **options)


def make_engine(kernel: str, on_op=None) -> SimulationEngine:
    """A fresh engine with the kernel's defaults; ``on_op`` (the host
    probe of ``run.py``) is passed to every ``simulate`` call."""
    package = Package(kernel="iterative") if kernel == "iterative" else None
    if on_op is None:
        return SimulationEngine(package)
    return _HookedEngine(package, on_op)


def _shor_bases(modulus: int) -> list[int]:
    """Bases of full (hence even) order that yield nontrivial factors.

    Bases of smaller order make all but the last few oracles trivial and
    cost a third as much; mixing them in would make the batch bimodal
    across seeds.
    """
    candidates = [a for a in range(2, modulus)
                  if math.gcd(a, modulus) == 1]
    full = max(multiplicative_order(a, modulus) for a in candidates)
    return [a for a in candidates
            if multiplicative_order(a, modulus) == full and full % 2 == 0
            and factors_from_order(a, full, modulus) is not None]


def make_inputs(workload: str, seed: int, call=None) -> list[Input]:
    """The workload's inputs, a pure function of ``seed``.

    ``call(layer, fn, *args)`` lets a traced run attribute the circuit
    generators to the ``algorithms`` layer.
    """
    call = call or (lambda layer, fn, *args: fn(*args))
    rng = Random(f"{workload}:{seed}")
    if workload == "grover_table1":
        band = set(GROVER_BAND)
        outside = [m for m in range(1 << GROVER_QUBITS) if m not in band]
        marked = rng.sample(outside, GROVER_DRAWS)
        marked.insert(rng.randrange(GROVER_DRAWS + 1), GROVER_PINNED)
        return [Input(f"marked={m}",
                      call("algorithms", grover_circuit, GROVER_QUBITS,
                           m).circuit)
                for m in marked]
    if workload == "supremacy_random":
        wanted = rng.choice(SUPREMACY_PAIRS)
        by_class: dict[tuple[bool, ...], Input] = {}
        while len(by_class) < len(wanted):
            circuit_seed = rng.randrange(1 << 31)
            circuit = call("algorithms", supremacy_circuit, *SUPREMACY_GRID,
                           SUPREMACY_DEPTH, circuit_seed).circuit
            ops = list(circuit.operations())
            last = {op.target: op.gate for op in ops if not op.controls}
            key = tuple(last[q] == "t" for q in SUPREMACY_CLASS_QUBITS)
            interrupt_at = rng.randrange(1, len(ops))
            if key in wanted and key not in by_class:
                by_class[key] = Input(f"circuit_seed={circuit_seed}",
                                      circuit, interrupt_at=interrupt_at)
        return [by_class[key] for key in wanted]
    if workload == "shor_table2":
        return [Input(f"N={n}", (n, rng.choice(_shor_bases(n)),
                                 rng.randrange(1 << 31)))
                for n in SHOR_MODULI]
    raise ValueError(f"unknown workload {workload!r}")


def add_references(inputs: list[Input]) -> None:
    """Dense oracle amplitudes for circuit inputs (untimed)."""
    for inp in inputs:
        if not isinstance(inp.payload, tuple):
            inp.reference = simulate_statevector(inp.payload)


# ----------------------------------------------------------------------
# running one sample
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What a run produced: packages for counts, results for checks."""

    packages: list
    statistics: object           # SimulationStatistics of the whole run
    result: object               # SimulationResult or ShorResult


def run_sample(arm: Arm, inp: Input, workdir: str,
               on_op=None) -> Outcome:
    """One run of ``inp`` on ``arm``; ``on_op`` goes to every
    ``simulate`` call."""
    if isinstance(inp.payload, tuple):
        return _run_shor(arm, *inp.payload, on_op)
    circuit = inp.payload
    if arm.strategy == "resilient":
        return _run_resilient(arm, circuit, inp.interrupt_at, workdir)
    engine = make_engine(arm.kernel, on_op)
    strategy = {"sota": SequentialStrategy,
                "general": lambda: MaxSizeStrategy(S_MAX),
                "knowledge": RepeatingBlockStrategy}[arm.strategy]()
    result = engine.simulate(circuit, strategy)
    return Outcome([engine.package], result.statistics, result)


def _run_resilient(arm: Arm, circuit, interrupt_at: int,
                   workdir: str) -> Outcome:
    """Sota as a supervised job runs it: checkpointed, reordered, killed
    once at a seeded op by an ``on_op`` that raises ``KeyboardInterrupt``
    (as ``verification.plans.execute_plan`` does) and resumed on a fresh
    engine."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = os.path.join(tmp, "run.ckpt")

        def interrupt(index: int) -> None:
            if index + 1 == interrupt_at:
                raise KeyboardInterrupt

        engine = make_engine(arm.kernel)
        try:
            engine.simulate(circuit, SequentialStrategy(),
                            checkpoint_path=path,
                            checkpoint_every=CHECKPOINT_EVERY,
                            reorder=REORDER, on_op=interrupt)
            raise RuntimeError("resilient run was not interrupted")
        except KeyboardInterrupt:
            pass
        resumed = make_engine(arm.kernel)
        result = resumed.resume(path, circuit, checkpoint_path=path,
                                checkpoint_every=CHECKPOINT_EVERY,
                                reorder=REORDER)
    return Outcome([engine.package, resumed.package], result.statistics,
                   result)


def _run_shor(arm: Arm, modulus: int, base: int, seed: int,
              on_op) -> Outcome:
    if arm.strategy == "knowledge":
        engine = make_engine(arm.kernel)
        result = ShorOrderFinder(modulus, base, mode="construct",
                                 seed=seed, engine=engine).run()
        return Outcome([engine.package], result.statistics, result)
    strategy = SequentialStrategy() if arm.strategy == "sota" \
        else MaxSizeStrategy(S_MAX)
    engine = make_engine(arm.kernel, on_op)
    result = ShorOrderFinder(modulus, base, mode="gates", strategy=strategy,
                             seed=seed, engine=engine).run()
    return Outcome([engine.package], result.statistics, result)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def schedule(statistics) -> tuple[int, int, int, int]:
    """The paper's result: (MxV, MxM, reused, direct) of a sample."""
    return (statistics.matrix_vector_mults, statistics.matrix_matrix_mults,
            statistics.reused_block_applications,
            statistics.direct_constructions)


class Checker:
    """Per-sample correctness, including the cross-sample invariants.

    The schedule of an (input, strategy) pair must be identical across
    kernels and repeats; the phase bits of a Shor input identical across
    every arm.
    """

    def __init__(self) -> None:
        self._schedules: dict[tuple[str, str], tuple] = {}
        self._phase_bits: dict[str, list[int]] = {}

    def check(self, arm: Arm, inp: Input, outcome: Outcome) -> list[str]:
        problems = []
        counts = schedule(outcome.statistics)
        key = (inp.label, arm.strategy)
        expected = self._schedules.setdefault(key, counts)
        if counts != expected:
            problems.append(f"schedule {counts} != {expected}")
        result = outcome.result
        if isinstance(inp.payload, tuple):
            modulus, base, _ = inp.payload
            bits = self._phase_bits.setdefault(inp.label, result.phase_bits)
            if result.phase_bits != bits:
                problems.append(f"phase bits {result.phase_bits} != {bits}")
            if result.order is not None and \
                    result.order != multiplicative_order(base, modulus):
                problems.append(f"order {result.order} is wrong")
            return problems
        fidelity = _fidelity(result, inp.reference)
        if fidelity < FIDELITY_FLOOR:
            problems.append(f"fidelity {fidelity!r}")
        if arm.strategy == "resilient":
            stats = outcome.statistics
            if stats.resumed_from_op <= 0 or stats.checkpoints_written < 1:
                problems.append("run was not checkpointed and resumed")
        return problems


def _fidelity(result, reference: np.ndarray) -> float:
    state = result.package.solidify(result.logical_state())
    amplitudes = vector_to_numpy(state, result.num_qubits)
    overlap = np.vdot(reference, amplitudes)
    norms = np.vdot(reference, reference).real \
        * np.vdot(amplitudes, amplitudes).real
    return float(abs(overlap) ** 2 / norms)
