"""Benchmark instance registry.

The paper evaluates on three established workloads (Sec. V): Grover's
algorithm, Shor's algorithm (Beauregard's realisation) and Google
supremacy-style random circuits.  This module names concrete instances and
gives each a uniform ``run(strategy)`` entry point that creates a fresh
engine, simulates, and returns the run's statistics -- the unit every
experiment and benchmark is built from.

Instance sizes are scaled down from the paper's (which used a C++ package
and a 2-CPU-hour budget); see DESIGN.md "Scaling substitutions".  Names
follow the paper's scheme: ``grover_<qubits>``, ``shor_<N>_<a>_<qubits>``,
``supremacy_<depth>_<qubits>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..algorithms.grover import grover_circuit
from ..algorithms.shor import ShorOrderFinder
from ..algorithms.supremacy import supremacy_circuit
from ..circuit.circuit import QuantumCircuit
from ..dd.package import Package
from ..simulation.engine import SimulationEngine
from ..simulation.statistics import SimulationStatistics
from ..simulation.strategies import SimulationStrategy

__all__ = ["BenchmarkInstance", "get_instance", "instance_from_spec",
           "instance_qasm", "instance_task_spec", "quick_suite",
           "default_suite", "extended_suite", "grover_suite", "shor_suite",
           "supremacy_suite"]


@dataclass
class BenchmarkInstance:
    """One named benchmark with a strategy-parametrised runner."""

    name: str
    kind: str                      # "grover" | "shor" | "supremacy"
    description: str
    _runner: Callable[..., SimulationStatistics]
    #: extra per-instance info (modulus, marked element, grid, ...)
    metadata: dict = field(default_factory=dict)

    def run(self, strategy: SimulationStrategy,
            use_local_apply: bool = True,
            governor: "MemoryGovernor | None" = None,
            reorder: str | None = None,
            on_op: Callable[[int], None] | None = None
            ) -> SimulationStatistics:
        """Simulate this instance under ``strategy`` on a fresh engine.

        ``use_local_apply=False`` forces the paper-literal pathway (explicit
        gate DDs + one matrix-vector multiplication per gate); the
        paper-artifact experiments use it so the MxV-vs-MxM comparison
        matches the paper's cost model.  ``governor`` replaces the fresh
        engine's default memory policy (the sweep runner uses it to give
        each cell a hard ``max_nodes`` budget).  ``reorder`` is a
        :func:`~repro.simulation.reorder.reorder_from_spec` spec enabling
        mid-run variable reordering (circuit-backed instances only; the
        Shor order finder drives its own engine and rejects it).
        ``on_op`` is the engine's cheap per-op callback (cooperative
        deadlines, fault injection); circuit-backed instances pass it
        through, the Shor order finder ignores it (its engine loop is
        driven internally).
        """
        return self._runner(strategy, use_local_apply, governor, reorder,
                            on_op)


def _circuit_instance(name: str, kind: str, description: str,
                      build: Callable[[], QuantumCircuit],
                      metadata: dict | None = None) -> BenchmarkInstance:
    built: list[QuantumCircuit] = []

    def runner(strategy: SimulationStrategy,
               use_local_apply: bool = True,
               governor=None, reorder=None,
               on_op=None) -> SimulationStatistics:
        if not built:
            built.append(build())
        if use_local_apply:
            engine = SimulationEngine(governor=governor)
        else:
            # Paper mode: no local-gate fast path AND no identity-aware
            # multiplication shortcut, so machine-independent recursion
            # counts match the paper's cost model (identity padding is
            # traversed like any other sub-matrix).
            engine = SimulationEngine(
                package=Package(identity_shortcut=False),
                use_local_apply=False, governor=governor)
        return engine.simulate(built[0], strategy,
                               reorder=reorder, on_op=on_op).statistics

    return BenchmarkInstance(name=name, kind=kind, description=description,
                             _runner=runner, metadata=metadata or {})


def _grover_instance(num_data_qubits: int, marked: int) -> BenchmarkInstance:
    def build() -> QuantumCircuit:
        return grover_circuit(num_data_qubits, marked).circuit

    total = num_data_qubits  # phase-oracle form uses no ancilla
    return _circuit_instance(
        name=f"grover_{total}",
        kind="grover",
        description=f"Grover search over 2^{num_data_qubits} entries, "
                    f"marked element {marked}",
        build=build,
        metadata={"num_data_qubits": num_data_qubits, "marked": marked},
    )


def _supremacy_instance(rows: int, cols: int, depth: int,
                        seed: int) -> BenchmarkInstance:
    def build() -> QuantumCircuit:
        return supremacy_circuit(rows, cols, depth, seed).circuit

    return _circuit_instance(
        name=f"supremacy_{depth}_{rows * cols}",
        kind="supremacy",
        description=f"Boixo-style random circuit on a {rows}x{cols} grid, "
                    f"depth {depth}, seed {seed}",
        build=build,
        metadata={"rows": rows, "cols": cols, "depth": depth, "seed": seed},
    )


def _shor_instance(modulus: int, base: int, seed: int = 7) -> BenchmarkInstance:
    qubits = 2 * modulus.bit_length() + 3

    def runner(strategy: SimulationStrategy,
               use_local_apply: bool = True,
               governor=None, reorder=None,
               on_op=None) -> SimulationStatistics:
        # on_op is accepted but not wired through: the order finder drives
        # its own engine loop, so a cooperative deadline cannot observe it
        # (the sweep's SIGALRM path and the supervisor's lease expiry
        # still bound these cells)
        if reorder is not None:
            raise ValueError(
                "shor instances drive their own engine through "
                "ShorOrderFinder and do not support mid-run reordering; "
                "drop the reorder= axis for this instance")
        if use_local_apply:
            engine = SimulationEngine(governor=governor)
        else:
            engine = SimulationEngine(
                package=Package(identity_shortcut=False),
                use_local_apply=False, governor=governor)
        finder = ShorOrderFinder(modulus, base, mode="gates",
                                 strategy=strategy, seed=seed, engine=engine)
        return finder.run().statistics

    return BenchmarkInstance(
        name=f"shor_{modulus}_{base}_{qubits}",
        kind="shor",
        description=f"Shor order finding for N={modulus}, a={base} "
                    f"(Beauregard circuit, {qubits} qubits)",
        _runner=runner,
        metadata={"modulus": modulus, "base": base, "seed": seed},
    )


def shor_dd_construct_statistics(modulus: int, base: int,
                                 seed: int = 7) -> SimulationStatistics:
    """Run the DD-construct realisation of a shor instance (Table II)."""
    finder = ShorOrderFinder(modulus, base, mode="construct", seed=seed)
    return finder.run().statistics


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def grover_suite(profile: str = "default") -> list[BenchmarkInstance]:
    sizes = {"quick": [(8, 77), (10, 311)],
             "default": [(8, 77), (10, 311), (12, 2025), (14, 9001)],
             "full": [(8, 77), (10, 311), (12, 2025), (14, 9001),
                      (16, 41017)]}[profile]
    return [_grover_instance(n, marked) for n, marked in sizes]


def shor_suite(profile: str = "default") -> list[BenchmarkInstance]:
    # (N, a) chosen so the order is even and factors result; this mirrors the
    # paper's shor_N_a naming where N and a strongly affect the runtime.
    pairs = {"quick": [(15, 7), (21, 2)],
             "default": [(15, 7), (21, 2), (33, 5)],
             "full": [(15, 7), (21, 2), (33, 5), (55, 17), (77, 39)]}[profile]
    return [_shor_instance(modulus, base) for modulus, base in pairs]


def supremacy_suite(profile: str = "default") -> list[BenchmarkInstance]:
    grids = {"quick": [(3, 3, 10, 1), (3, 4, 10, 1)],
             "default": [(3, 3, 10, 1), (3, 4, 10, 1), (4, 4, 10, 1)],
             "full": [(3, 3, 10, 1), (3, 4, 10, 1), (4, 4, 10, 1),
                      (4, 4, 12, 1)]}[profile]
    return [_supremacy_instance(*grid) for grid in grids]


def quick_suite() -> list[BenchmarkInstance]:
    """Small instances for CI and the test suite."""
    return (grover_suite("quick") + shor_suite("quick")
            + supremacy_suite("quick"))


def default_suite() -> list[BenchmarkInstance]:
    """The instance set the experiment harness uses by default."""
    return (grover_suite("default") + shor_suite("default")
            + supremacy_suite("default"))


def extended_suite() -> list[BenchmarkInstance]:
    """Extra workload families beyond the paper's three.

    Not used by the paper-artifact experiments, but available for scaling
    studies and strategy comparisons: Bernstein-Vazirani (linear DDs),
    random Clifford circuits (structured randomness) and graph states
    (entanglement mirrors graph connectivity).
    """
    from ..algorithms.clifford import random_clifford_circuit
    from ..algorithms.graph_states import graph_state_circuit
    from ..algorithms.oracles import bernstein_vazirani_circuit
    from ..algorithms.qaoa import grid_graph

    instances = [
        _circuit_instance(
            name="bv_12",
            kind="oracle",
            description="Bernstein-Vazirani with a 12-bit secret",
            build=lambda: bernstein_vazirani_circuit(
                12, 0b101101011010).circuit,
        ),
        _circuit_instance(
            name="clifford_16_10",
            kind="clifford",
            description="random {H,S,CX} circuit, 10 qubits, depth 16",
            build=lambda: random_clifford_circuit(10, 16, seed=2).circuit,
        ),
        _circuit_instance(
            name="graph_state_3x4",
            kind="graph",
            description="graph state of the 3x4 grid",
            build=lambda: graph_state_circuit(grid_graph(3, 4), 12).circuit,
        ),
    ]
    return instances


def get_instance(name: str) -> BenchmarkInstance:
    """Look up any instance from the full suites by its name."""
    for instance in (grover_suite("full") + shor_suite("full")
                     + supremacy_suite("full") + extended_suite()):
        if instance.name == name:
            return instance
    raise KeyError(f"unknown benchmark instance {name!r}")


def instance_from_spec(metadata: dict, name: str) -> BenchmarkInstance:
    """Rebuild a benchmark instance from plain data, in any process.

    Sweep workers cannot receive :class:`BenchmarkInstance` objects (their
    runners close over circuits and engines), so tasks ship
    ``(kind, metadata, name)`` instead and every worker reconstructs the
    instance locally -- which also guarantees the mandatory per-process DD
    isolation.  The three paper workload families are rebuilt from their
    metadata (so custom sizes work too); anything else falls back to the
    registry by name.
    """
    kind = metadata.get("kind")
    if kind == "grover":
        return _grover_instance(metadata["num_data_qubits"],
                                metadata["marked"])
    if kind == "supremacy":
        return _supremacy_instance(metadata["rows"], metadata["cols"],
                                   metadata["depth"], metadata["seed"])
    if kind == "shor":
        return _shor_instance(metadata["modulus"], metadata["base"],
                              metadata.get("seed", 7))
    return get_instance(name)


def instance_task_spec(instance: BenchmarkInstance) -> dict:
    """The ``metadata`` payload :func:`instance_from_spec` rebuilds from."""
    return {"kind": instance.kind, **instance.metadata}


def instance_qasm(name: str) -> str:
    """OpenQASM-2 text of a circuit-backed registry instance.

    The job queue stores circuits as self-contained QASM inside the job
    record (``repro jobs submit --instance grover_8``), so the circuit is
    rebuilt here once, at submission time.  The Shor order finder is not
    circuit-backed (it drives its own engine, with intermediate
    measurements) and cannot be submitted as a job this way.
    """
    from ..circuit.qasm import to_qasm
    instance = get_instance(name)
    if instance.kind == "shor":
        raise ValueError(
            f"instance {name!r} is not circuit-backed (the Shor order "
            f"finder drives its own engine) and cannot run as a job; "
            f"submit a circuit-backed instance or inline QASM instead")
    if instance.kind == "grover":
        circuit = grover_circuit(instance.metadata["num_data_qubits"],
                                 instance.metadata["marked"]).circuit
    elif instance.kind == "supremacy":
        circuit = supremacy_circuit(
            instance.metadata["rows"], instance.metadata["cols"],
            instance.metadata["depth"], instance.metadata["seed"]).circuit
    else:
        # extended-suite instances: rebuild through the registry runner's
        # own builder by simulating nothing -- not possible without the
        # circuit, so reconstruct via a one-off private build
        circuit = _registry_circuit(instance)
    return to_qasm(circuit)


def _registry_circuit(instance: BenchmarkInstance) -> QuantumCircuit:
    """Rebuild an extended-suite instance's circuit from its name."""
    from ..algorithms.clifford import random_clifford_circuit
    from ..algorithms.graph_states import graph_state_circuit
    from ..algorithms.oracles import bernstein_vazirani_circuit
    from ..algorithms.qaoa import grid_graph
    builders = {
        "bv_12": lambda: bernstein_vazirani_circuit(
            12, 0b101101011010).circuit,
        "clifford_16_10": lambda: random_clifford_circuit(
            10, 16, seed=2).circuit,
        "graph_state_3x4": lambda: graph_state_circuit(
            grid_graph(3, 4), 12).circuit,
    }
    if instance.name not in builders:
        raise ValueError(f"no circuit builder known for instance "
                         f"{instance.name!r}")
    return builders[instance.name]()
