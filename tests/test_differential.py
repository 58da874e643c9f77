"""Differential harness: every DD strategy against the dense baseline.

The DD simulator's correctness claim is strategy-independent: sequential
(Eq. 1), every combining strategy (Eq. 2), adaptive and DD-repeating must
all produce the state the conventional array-based simulator produces.
This suite drives seeded random circuits (Clifford+T and parameterised
rotations, <= 8 qubits) and small paper instances (Grover, QFT, Draper
arithmetic) through *every* strategy on the paper-literal pathway and
checks fidelity >= 1 - 1e-9 plus identical measurement distributions.

``DIFFERENTIAL_SEED`` (environment) varies the random-circuit seeds; CI
derives it from the run number so successive runs explore fresh circuits
while any failure stays reproducible from the logged seed.
"""

import os
from random import Random

import numpy as np
import pytest

from repro.algorithms.clifford import random_clifford_circuit
from repro.algorithms.grover import grover_circuit
from repro.algorithms.qft import qft_circuit
from repro.algorithms.supremacy import supremacy_circuit
from repro.baseline import simulate_statevector
from repro.circuit import QuantumCircuit
from repro.dd import sample_counts
from repro.dd.package import Package
from repro.simulation import (MemoryGovernor, SimulationEngine,
                              strategy_from_spec)

DIFFERENTIAL_SEED = int(os.environ.get("DIFFERENTIAL_SEED", "7"))
FIDELITY_FLOOR = 1 - 1e-9

#: every strategy family the engine implements, with the combining ones at
#: both extremes of their parameter
ALL_STRATEGY_SPECS = ("sequential", "k=2", "k=3", "k=4", "k=16", "smax=4",
                      "smax=256", "adaptive", "repeating:sequential",
                      "repeating:k=3")

#: DD-core configurations the kernel grid crosses with every strategy:
#: both arithmetic kernels, identity-skipping matrix edges on and off, and
#: (for the iterative kernel) the dense-block fast path on and off.  Every
#: cell must land on the same dense-baseline state.
KERNEL_CONFIGS = {
    "recursive": dict(kernel="recursive"),
    "recursive-noshortcut": dict(kernel="recursive",
                                 identity_shortcut=False),
    "iterative": dict(kernel="iterative"),
    "iterative-idedges": dict(kernel="iterative", identity_edges=True),
    "iterative-idedges-nodense": dict(kernel="iterative",
                                      identity_edges=True,
                                      dense_blocks=False),
}

#: paper-family circuits the local-apply grid runs next to its seeded
#: random circuit: Grover with a repeated block, QFT, a random supremacy
#: circuit and a random Clifford circuit, at 8-10 qubits
LOCAL_APPLY_CIRCUITS = {
    "grover_8": lambda: grover_circuit(8, 77).circuit,
    "qft_10": lambda: qft_circuit(10),
    "supremacy_3x3_d8": lambda: supremacy_circuit(3, 3, 8, 1).circuit,
    "clifford_10_d10":
        lambda: random_clifford_circuit(10, 10, seed=2).circuit,
}


def _local_apply_cases() -> list:
    """(spec, config, circuit name) cases; ``None`` is the random circuit,
    whose cases keep their ``spec-config`` ids."""
    cases = []
    for name in (None, *LOCAL_APPLY_CIRCUITS):
        suffix = "" if name is None else f"-{name}"
        for config in sorted(KERNEL_CONFIGS):
            if not config.startswith("iterative"):
                continue
            for spec in ("sequential", "k=4", "smax=64"):
                cases.append(pytest.param(spec, config, name,
                                          id=f"{spec}-{config}{suffix}"))
    return cases


_ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "sx")
_ROTATIONS = ("rx", "ry", "rz", "p")


def random_circuit(num_qubits: int, num_operations: int, seed: int,
                   rotations: bool) -> QuantumCircuit:
    """Seeded random circuit: Clifford+T, optionally with rotations."""
    rng = Random(seed)
    kind = "rot" if rotations else "cliffT"
    qc = QuantumCircuit(num_qubits, name=f"random_{kind}_{num_qubits}_{seed}")
    for _ in range(num_operations):
        roll = rng.random()
        if roll < 0.45:
            getattr(qc, rng.choice(_ONE_QUBIT))(rng.randrange(num_qubits))
        elif rotations and roll < 0.65:
            angle = rng.uniform(0, 2 * np.pi)
            getattr(qc, rng.choice(_ROTATIONS))(angle,
                                                rng.randrange(num_qubits))
        elif roll < 0.9 or num_qubits < 3:
            control, target = rng.sample(range(num_qubits), 2)
            (qc.cx if roll < 0.8 else qc.cz)(control, target)
        else:
            a, b, c = rng.sample(range(num_qubits), 3)
            qc.ccx(a, b, c)
    return qc


def paper_engine() -> SimulationEngine:
    """The paper-literal pathway: explicit gate DDs, one MxV per gate,
    no identity shortcut -- the pathway the strategies actually schedule."""
    return SimulationEngine(package=Package(identity_shortcut=False),
                            use_local_apply=False)


def dd_fidelity(result, dense: np.ndarray) -> float:
    """|<dd|dense>|^2 by amplitude enumeration (small systems)."""
    inner = sum(result.amplitude(i).conjugate() * dense[i]
                for i in range(len(dense)))
    return abs(inner) ** 2


def assert_matches_dense(circuit: QuantumCircuit, spec: str,
                         engine: SimulationEngine | None = None) -> None:
    engine = engine or paper_engine()
    result = engine.simulate(circuit, strategy_from_spec(spec))
    dense = simulate_statevector(circuit)
    fidelity = dd_fidelity(result, dense)
    assert fidelity >= FIDELITY_FLOOR, \
        (f"{circuit.name} under {spec}: fidelity {fidelity!r} "
         f"(seed base {DIFFERENTIAL_SEED})")


RANDOM_CASES = [
    # (qubits, operations, rotations); <= 8 qubits so the dense baseline
    # and amplitude enumeration stay trivial
    (3, 25, False),
    (5, 35, False),
    (8, 40, False),
    (3, 25, True),
    (5, 35, True),
    (8, 40, True),
]


class TestRandomCircuits:
    @pytest.mark.parametrize("spec", ALL_STRATEGY_SPECS)
    @pytest.mark.parametrize("num_qubits,num_operations,rotations",
                             RANDOM_CASES)
    def test_matches_dense(self, num_qubits, num_operations, rotations,
                           spec):
        circuit = random_circuit(
            num_qubits, num_operations,
            seed=DIFFERENTIAL_SEED * 1000 + num_qubits, rotations=rotations)
        assert_matches_dense(circuit, spec)

    @pytest.mark.parametrize("spec", ["sequential", "k=4", "smax=64"])
    def test_fast_path_matches_dense_too(self, spec):
        # the local-gate fast path is an optimisation, not a semantics
        # change: same ground truth as the paper-literal pathway
        circuit = random_circuit(6, 40, seed=DIFFERENTIAL_SEED + 17,
                                 rotations=True)
        assert_matches_dense(circuit, spec, engine=SimulationEngine())


class TestMeasurementDistributions:
    def test_probabilities_match_dense(self):
        circuit = random_circuit(5, 30, seed=DIFFERENTIAL_SEED + 5,
                                 rotations=True)
        dense = simulate_statevector(circuit)
        for spec in ALL_STRATEGY_SPECS:
            result = paper_engine().simulate(circuit,
                                             strategy_from_spec(spec))
            probabilities = result.probabilities()
            assert np.allclose(probabilities, np.abs(dense) ** 2,
                               atol=1e-9), spec

    def test_identical_samples_across_strategies(self):
        # same canonical state + same sampling seed -> the exact same shot
        # sequence, whatever strategy produced the state
        circuit = random_circuit(4, 25, seed=DIFFERENTIAL_SEED + 9,
                                 rotations=True)
        reference = None
        for spec in ALL_STRATEGY_SPECS:
            result = paper_engine().simulate(circuit,
                                             strategy_from_spec(spec))
            counts = sample_counts(result.package, result.state, 200,
                                   Random(DIFFERENTIAL_SEED))
            if reference is None:
                reference = counts
            else:
                assert counts == reference, spec


class TestKernelGrid:
    """Every strategy x kernel x identity-edge configuration vs dense.

    The iterative worklist kernel and identity-skipping matrix edges are
    performance work, not semantics: whatever the strategy schedules and
    whichever core executes it, the state must match the dense baseline
    and the resulting DD (identity-edge gaps included) must pass the
    structural audit.
    """

    @pytest.mark.parametrize("config", sorted(KERNEL_CONFIGS))
    @pytest.mark.parametrize("spec", ALL_STRATEGY_SPECS)
    def test_matches_dense_and_audits(self, spec, config):
        circuit = random_circuit(6, 35, seed=DIFFERENTIAL_SEED + 23,
                                 rotations=True)
        package = Package(**KERNEL_CONFIGS[config])
        engine = SimulationEngine(package=package, use_local_apply=False)
        result = engine.simulate(circuit, strategy_from_spec(spec))
        dense = simulate_statevector(circuit)
        fidelity = dd_fidelity(result, dense)
        assert fidelity >= FIDELITY_FLOOR, \
            (f"{config} under {spec}: fidelity {fidelity!r} "
             f"(seed base {DIFFERENTIAL_SEED})")
        # the final state -- and, for identity-edge configurations, the
        # gap-carrying gate DDs the run interned -- must audit clean
        package.assert_invariants([result.state])

    @pytest.mark.parametrize("spec,config,name", _local_apply_cases())
    def test_local_apply_pathway(self, spec, config, name):
        # same grid through the local-gate fast path: apply_gate (and the
        # dense-block cutover, where enabled) instead of explicit gate DDs
        if name is None:
            circuit = random_circuit(6, 40, seed=DIFFERENTIAL_SEED + 17,
                                     rotations=True)
        else:
            circuit = LOCAL_APPLY_CIRCUITS[name]()
        package = Package(**KERNEL_CONFIGS[config])
        engine = SimulationEngine(package=package, use_local_apply=True)
        result = engine.simulate(circuit, strategy_from_spec(spec))
        dense = simulate_statevector(circuit)
        assert dd_fidelity(result, dense) >= FIDELITY_FLOOR, (config, spec)
        package.assert_invariants([result.state])

    @pytest.mark.parametrize("config", sorted(KERNEL_CONFIGS))
    @pytest.mark.parametrize("reorder", ["every=5", "governor"])
    @pytest.mark.parametrize("spec", ["sequential", "k=3", "adaptive"])
    def test_reorder_axis_matches_dense(self, spec, config, reorder):
        # Mid-run sifting crossed with every kernel configuration: the
        # state (and the iterative kernel's materialized flat state) must
        # still land on the dense baseline, with amplitudes transparently
        # remapped through the recorded permutation, and the final DD must
        # audit clean after every sift.  The governor arm uses a tiny GC
        # threshold with no hard budget: collections go futile almost
        # immediately (pressure -> sift) but nothing can abort the run.
        circuit = random_circuit(6, 35, seed=DIFFERENTIAL_SEED + 29,
                                 rotations=True)
        package = Package(**KERNEL_CONFIGS[config])
        governor = (MemoryGovernor(node_limit=12, max_nodes=None)
                    if reorder == "governor" else None)
        engine = SimulationEngine(package=package, use_local_apply=False,
                                  governor=governor)
        result = engine.simulate(circuit, strategy_from_spec(spec),
                                 reorder=reorder)
        dense = simulate_statevector(circuit)
        fidelity = dd_fidelity(result, dense)
        assert fidelity >= FIDELITY_FLOOR, \
            (f"{config} under {spec} with reorder={reorder}: "
             f"fidelity {fidelity!r} (seed base {DIFFERENTIAL_SEED})")
        package.assert_invariants([result.state])


class TestPaperInstances:
    """The paper's workload families at differential-testable sizes."""

    @pytest.mark.parametrize("spec", ALL_STRATEGY_SPECS)
    def test_grover(self, spec):
        # mark_repetition=True (the default) emits a RepeatedBlock, so
        # DD-repeating actually reuses the iteration DD here
        circuit = grover_circuit(5, 11).circuit
        assert_matches_dense(circuit, spec)

    @pytest.mark.parametrize("spec", ALL_STRATEGY_SPECS)
    def test_qft(self, spec):
        circuit = qft_circuit(5)
        # start from a non-trivial basis state so the spectrum is not flat
        engine = paper_engine()
        initial = engine.initial_state(5, 0b10110)
        result = engine.simulate(circuit, strategy_from_spec(spec),
                                 initial_state=initial)
        dense = simulate_statevector(circuit, initial_index=0b10110)
        assert dd_fidelity(result, dense) >= FIDELITY_FLOOR

    @pytest.mark.parametrize("spec", ALL_STRATEGY_SPECS)
    def test_arithmetic_adder(self, spec):
        from repro.algorithms.arithmetic import append_add_const
        register = list(range(4))
        circuit = QuantumCircuit(4, name="add_const_4")
        # prepare |0110>, add 7 (mod 16) -> |1101>
        circuit.x(1).x(2)
        append_add_const(circuit, register, 7)
        result = paper_engine().simulate(circuit, strategy_from_spec(spec))
        dense = simulate_statevector(circuit)
        assert dd_fidelity(result, dense) >= FIDELITY_FLOOR
        assert result.probability(0b0110 + 7) == pytest.approx(1.0,
                                                               abs=1e-9)


class TestBackendGrid:
    """Every registered backend against the dense oracle -- the inner
    comparison of the continuous fuzz ratchet, pinned at CI's rotated
    seed so failures here reproduce locally with DIFFERENTIAL_SEED."""

    def test_fault_injected_backends_never_leak_into_the_suite(self):
        from repro.backends import available_backends
        assert "broken-phase" not in available_backends()

    @pytest.mark.parametrize("num_qubits,num_operations,rotations",
                             RANDOM_CASES)
    def test_every_backend_matches_dense(self, num_qubits, num_operations,
                                         rotations):
        from repro.backends import available_backends, create_backend
        circuit = random_circuit(
            num_qubits, num_operations,
            seed=DIFFERENTIAL_SEED * 3000 + num_qubits, rotations=rotations)
        dense = simulate_statevector(circuit)
        for name in available_backends():
            result = create_backend(name).run(circuit)
            fidelity = dd_fidelity(result, dense)
            assert fidelity >= FIDELITY_FLOOR, \
                (f"backend {name} on {circuit.name}: fidelity {fidelity!r} "
                 f"(seed base {DIFFERENTIAL_SEED})")

    def test_auto_selection_matches_dense(self):
        from repro.backends import resolve_backend
        circuit = random_circuit(6, 35, seed=DIFFERENTIAL_SEED + 41,
                                 rotations=True)
        backend, selection = resolve_backend("auto", circuit)
        result = backend.run(circuit)
        dense = simulate_statevector(circuit)
        assert selection is not None and selection.backend == backend.name
        assert dd_fidelity(result, dense) >= FIDELITY_FLOOR
