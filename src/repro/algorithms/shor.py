"""Shor's factoring algorithm (paper ref. [2]) in both simulation styles.

The paper's Table II compares three ways of simulating Shor's algorithm:

* ``t_sota`` -- the Beauregard 2n+3-qubit circuit (paper ref. [27]) built
  from elementary gates, simulated gate by gate (sequential strategy);
* ``t_general`` -- the same circuit simulated with one of the general
  combining strategies of Sec. IV-A;
* ``t_DD-construct`` -- the oracle components ``U_{a^{2^i}}`` constructed
  *directly* as permutation DDs on the ``n``-qubit work register (plus one
  control qubit, i.e. ``n + 1`` qubits in total), removing both the
  elementary decomposition and the working qubits (Sec. IV-B).

Both styles run the same *semiclassical* order-finding loop (one control
qubit reused ``2n`` times with intermediate measurement and classically
conditioned phase corrections -- paper footnote 7), so their measured
phases, recovered orders and factors are statistically identical; only the
simulation cost differs, by the orders of magnitude Table II reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from random import Random

from ..circuit.circuit import QuantumCircuit
from ..circuit.operation import Operation
from ..dd.edge import Edge
from ..dd.function_construction import (build_controlled_permutation_dd,
                                        build_permutation_dd,
                                        controlled_unitary_dd,
                                        modular_multiplication_permutation)
from ..dd.gate_building import build_gate_dd
from ..dd.measurement import measure_qubit
from ..simulation.engine import SimulationEngine, cyclic_gc_paused
from ..simulation.statistics import SimulationStatistics
from ..simulation.strategies import SequentialStrategy, SimulationStrategy
from .arithmetic import append_controlled_ua
from .number_theory import (factors_from_order, multiplicative_order,
                            phase_to_order, random_shor_base)

__all__ = ["ShorResult", "ShorOrderFinder", "factor", "FactoringOutcome",
           "beauregard_layout", "controlled_ua_circuit",
           "shor_phase_estimation_distribution"]

_TWO_PI = 2 * math.pi


# ----------------------------------------------------------------------
# Beauregard circuit pieces (gate-level realisation)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BeauregardLayout:
    """Qubit layout of the 2n+3-qubit Beauregard order-finding circuit."""

    num_value_bits: int           # n = bit length of the modulus

    @property
    def b_register(self) -> tuple[int, ...]:
        """Accumulator register (n+1 qubits, includes the overflow bit)."""
        return tuple(range(self.num_value_bits + 1))

    @property
    def x_register(self) -> tuple[int, ...]:
        """Multiplicand register (n qubits, holds a^k mod N)."""
        n = self.num_value_bits
        return tuple(range(n + 1, 2 * n + 1))

    @property
    def ancilla(self) -> int:
        """Comparison ancilla of the modular adder."""
        return 2 * self.num_value_bits + 1

    @property
    def control(self) -> int:
        """The single reused phase-estimation control qubit (top)."""
        return 2 * self.num_value_bits + 2

    @property
    def num_qubits(self) -> int:
        return 2 * self.num_value_bits + 3


def beauregard_layout(modulus: int) -> BeauregardLayout:
    """Standard layout for factoring ``modulus`` (n = bit length of N)."""
    return BeauregardLayout(modulus.bit_length())


def controlled_ua_circuit(modulus: int, multiplier: int,
                          layout: BeauregardLayout | None = None) -> QuantumCircuit:
    """The controlled ``U_a`` oracle as an elementary-gate circuit."""
    layout = layout or beauregard_layout(modulus)
    circuit = QuantumCircuit(layout.num_qubits,
                             name=f"cua_{multiplier}_mod_{modulus}")
    append_controlled_ua(circuit, layout.control, list(layout.x_register),
                         list(layout.b_register), multiplier, modulus,
                         layout.ancilla)
    return circuit


# ----------------------------------------------------------------------
# order finding (the quantum core, both simulation styles)
# ----------------------------------------------------------------------

@dataclass
class ShorResult:
    """Outcome of one semiclassical order-finding run."""

    modulus: int
    base: int
    mode: str
    phase_bits: list[int] = field(default_factory=list)
    measured_value: int = 0
    precision_bits: int = 0
    order: int | None = None
    factors: tuple[int, int] | None = None
    statistics: SimulationStatistics = field(
        default_factory=SimulationStatistics)

    @property
    def measured_phase(self) -> float:
        """The estimated phase ``y / 2^m`` in ``[0, 1)``."""
        return self.measured_value / (1 << self.precision_bits)

    @property
    def succeeded(self) -> bool:
        return self.factors is not None


class ShorOrderFinder:
    """Semiclassical order finding for ``base`` modulo ``modulus``.

    Parameters
    ----------
    mode:
        ``"gates"`` -- simulate Beauregard's elementary-gate circuit on
        ``2n + 3`` qubits; the per-segment unitary parts are driven by
        ``strategy`` (sequential = the paper's ``t_sota`` column, a
        combining strategy = the ``t_general`` column).
        ``"construct"`` -- the *DD-construct* style: ``n + 1`` qubits and
        one directly built permutation DD per distinct oracle.
    strategy:
        Only meaningful for ``mode="gates"``.
    seed:
        Seeds the intermediate-measurement randomness.
    """

    def __init__(self, modulus: int, base: int, mode: str = "construct",
                 strategy: SimulationStrategy | None = None,
                 seed: int = 0,
                 engine: SimulationEngine | None = None) -> None:
        if modulus < 3:
            raise ValueError("modulus must be at least 3")
        if math.gcd(base, modulus) != 1:
            raise ValueError(f"base {base} shares a factor with {modulus}; "
                             "take gcd classically instead of running Shor")
        if mode not in ("gates", "construct"):
            raise ValueError(f"unknown mode {mode!r}")
        self.modulus = modulus
        self.base = base % modulus
        self.mode = mode
        self.strategy = strategy or SequentialStrategy()
        self.seed = seed
        self.engine = engine or SimulationEngine()
        self.num_value_bits = modulus.bit_length()
        self.precision_bits = 2 * self.num_value_bits

    # -- shared semiclassical loop --------------------------------------

    def run(self) -> ShorResult:
        """Run order finding once; classically post-process to factors."""
        result = ShorResult(modulus=self.modulus, base=self.base,
                            mode=self.mode,
                            precision_bits=self.precision_bits)
        result.statistics.strategy = (f"shor-{self.mode}"
                                      f"[{self.strategy.describe()}]"
                                      if self.mode == "gates"
                                      else "shor-dd-construct")
        result.statistics.circuit_name = (
            f"shor_{self.modulus}_{self.base}")
        rng = Random(self.seed)
        started = time.perf_counter()
        # One pause around all 2n segments: re-enabling the collector
        # after each segment let it walk every DD object the earlier
        # segments left alive (~300 passes per Table II batch).  The one
        # pass it owes once re-enabled starts in the post-processing
        # below, so it is charged to this run, not to the caller.
        with cyclic_gc_paused():
            if self.mode == "gates":
                bits = self._run_gates(result, rng)
            else:
                bits = self._run_construct(result, rng)
        result.statistics.wall_time_seconds = time.perf_counter() - started
        result.phase_bits = bits
        result.measured_value = sum(bit << k for k, bit in enumerate(bits))
        result.order = phase_to_order(result.measured_value,
                                      self.precision_bits, self.modulus,
                                      self.base)
        if result.order is not None:
            result.factors = factors_from_order(self.base, result.order,
                                                self.modulus)
        return result

    def _correction_angle(self, bits: list[int]) -> float:
        """Semiclassical inverse-QFT rotation conditioned on earlier bits."""
        k = len(bits)
        angle = 0.0
        for j, bit in enumerate(bits):
            if bit:
                angle -= _TWO_PI / (1 << (k - j + 1))
        return angle

    def _multipliers(self) -> list[int]:
        """``a^(2^(m-1-k)) mod N`` for each semiclassical step ``k``."""
        return [pow(self.base, 1 << (self.precision_bits - 1 - k),
                    self.modulus)
                for k in range(self.precision_bits)]

    # -- gate-level realisation (sota / general columns) -----------------

    def _run_gates(self, result: ShorResult, rng: Random) -> list[int]:
        layout = beauregard_layout(self.modulus)
        engine = self.engine
        package = engine.package
        control = layout.control
        num_qubits = layout.num_qubits
        result.statistics.num_qubits = num_qubits
        # |x = 1>, everything else 0.
        state = package.basis_state(num_qubits, 1 << layout.x_register[0])
        hadamard = Operation("h", control)
        flip = Operation("x", control)
        # One oracle circuit per distinct multiplier (repeated squaring
        # mod N cycles, so the 2n powers a^(2^k) take few values):
        # segments with the same multiplier share its Operation objects,
        # which also keeps the engine's id-keyed gate caches hot.
        oracles: dict[int, list] = {}
        bits: list[int] = []
        for multiplier in self._multipliers():
            oracle = oracles.get(multiplier)
            if oracle is None:
                oracle = controlled_ua_circuit(self.modulus, multiplier,
                                               layout).instructions
                oracles[multiplier] = oracle
            segment = QuantumCircuit(num_qubits,
                                     name=result.statistics.circuit_name)
            segment.instructions = [hadamard, *oracle]
            angle = self._correction_angle(bits)
            if angle != 0.0:
                segment.p(angle, control)
            segment.append(hadamard)
            run = engine.simulate(segment, self.strategy,
                                  initial_state=state)
            result.statistics.merge(run.statistics)
            bit, state, _ = measure_qubit(package, run.state, control, rng)
            if bit:
                # Reset the control for the next round.
                state = package.multiply_matrix_vector(
                    engine.gate_dd(flip, num_qubits), state)
            bits.append(bit)
        result.statistics.final_state_nodes = package.count_nodes(state)
        return bits

    # -- DD-construct realisation (Table II right column) ----------------

    def _run_construct(self, result: ShorResult, rng: Random) -> list[int]:
        engine = self.engine
        package = engine.package
        n = self.num_value_bits
        control = n
        num_qubits = n + 1
        hadamard = build_gate_dd(package, _H_MATRIX, num_qubits, control)
        flip = build_gate_dd(package, _X_MATRIX, num_qubits, control)
        state = package.basis_state(num_qubits, 1)  # work register |1>
        oracle_cache: dict[int, Edge] = {}
        bits: list[int] = []
        for multiplier in self._multipliers():
            oracle = oracle_cache.get(multiplier)
            if oracle is None:
                permutation = modular_multiplication_permutation(
                    multiplier, self.modulus, n)
                oracle = build_controlled_permutation_dd(
                    package, permutation, n, num_controls=1)
                oracle_cache[multiplier] = oracle
                result.statistics.direct_constructions += 1
            else:
                result.statistics.reused_block_applications += 1
            state = self._apply(package, hadamard, state, result)
            state = self._apply(package, oracle, state, result)
            angle = self._correction_angle(bits)
            if angle != 0.0:
                rotation = build_gate_dd(
                    package, [[1, 0], [0, complex(math.cos(angle),
                                                  math.sin(angle))]],
                    num_qubits, control)
                state = self._apply(package, rotation, state, result)
            state = self._apply(package, hadamard, state, result)
            bit, state, _ = measure_qubit(package, state, control, rng)
            if bit:
                state = self._apply(package, flip, state, result)
            bits.append(bit)
        result.statistics.final_state_nodes = package.count_nodes(state)
        result.statistics.num_qubits = num_qubits
        return bits

    @staticmethod
    def _apply(package, matrix: Edge, state: Edge,
               result: ShorResult) -> Edge:
        state = package.multiply_matrix_vector(matrix, state)
        result.statistics.matrix_vector_mults += 1
        result.statistics.record_state_size(package.count_nodes(state))
        return state


_H_MATRIX = [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]]
_X_MATRIX = [[0, 1], [1, 0]]


# ----------------------------------------------------------------------
# fully-unitary phase estimation (textbook QPE form)
# ----------------------------------------------------------------------

def shor_phase_estimation_distribution(modulus: int, base: int,
                                       precision_bits: int | None = None,
                                       engine: SimulationEngine | None = None
                                       ) -> list[float]:
    """Exact outcome distribution of textbook (multi-qubit) order finding.

    Builds the full phase-estimation state with ``precision_bits`` counting
    qubits above an ``n``-qubit work register -- every controlled
    ``U_{a^{2^j}}`` constructed directly as a permutation DD (DD-construct
    style) -- applies the inverse QFT on the counting register, and returns
    the exact marginal probability of each counting outcome ``y``.

    The distribution peaks at multiples of ``2^t / r`` where ``r`` is the
    multiplicative order of ``base`` -- the ideal-QPE ground truth the
    semiclassical runs are validated against.
    """
    if math.gcd(base, modulus) != 1:
        raise ValueError(f"base {base} not coprime to {modulus}")
    n = modulus.bit_length()
    if precision_bits is None:
        precision_bits = 2 * n
    if precision_bits < 1:
        raise ValueError("need at least one counting qubit")
    engine = engine or SimulationEngine()
    package = engine.package
    total = n + precision_bits
    state = package.basis_state(total, 1)  # work register |1>
    for j in range(precision_bits):
        counting_qubit = n + j
        state = package.multiply_matrix_vector(
            build_gate_dd(package, _H_MATRIX, total, counting_qubit), state)
        multiplier = pow(base, 1 << j, modulus)
        oracle = build_permutation_dd(
            package,
            modular_multiplication_permutation(multiplier, modulus, n), n)
        controlled = controlled_unitary_dd(package, oracle, total,
                                           counting_qubit)
        state = package.multiply_matrix_vector(controlled, state)
    # inverse QFT on the counting register
    from .qft import append_iqft

    iqft = QuantumCircuit(total, name="iqft_counting")
    append_iqft(iqft, list(range(n, total)), do_swaps=True)
    state = engine.simulate(iqft, initial_state=state).state

    # marginal over the counting register: sum the squared amplitudes of
    # each counting value across all work-register values
    probabilities = []
    for y in range(1 << precision_bits):
        mass = 0.0
        for work in range(1 << n):
            amplitude = package.amplitude(state, (y << n) | work)
            mass += abs(amplitude) ** 2
        probabilities.append(mass)
    return probabilities


# ----------------------------------------------------------------------
# full factoring loop
# ----------------------------------------------------------------------

@dataclass
class FactoringOutcome:
    """Result of the complete (classical + quantum) factoring procedure."""

    modulus: int
    factors: tuple[int, int] | None
    attempts: list[ShorResult]
    classical_shortcut: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.factors is not None


def factor(modulus: int, mode: str = "construct",
           strategy: SimulationStrategy | None = None, seed: int = 0,
           max_attempts: int = 10,
           engine: SimulationEngine | None = None) -> FactoringOutcome:
    """Factor ``modulus`` with Shor's algorithm (simulated).

    Classical shortcuts (even numbers, perfect powers, lucky gcd draws) are
    taken where Shor's original algorithm takes them; otherwise up to
    ``max_attempts`` order-finding runs with random bases are made.
    """
    if modulus < 4:
        raise ValueError("nothing to factor")
    if modulus % 2 == 0:
        return FactoringOutcome(modulus, (2, modulus // 2), [],
                                classical_shortcut="even")
    root = round(math.isqrt(modulus))
    for exponent in range(2, modulus.bit_length() + 1):
        base = round(modulus ** (1.0 / exponent))
        for candidate in (base - 1, base, base + 1):
            if candidate > 1 and candidate ** exponent == modulus:
                return FactoringOutcome(
                    modulus, (candidate, modulus // candidate), [],
                    classical_shortcut=f"perfect power {candidate}^{exponent}")
    del root

    rng = Random(seed)
    attempts: list[ShorResult] = []
    for attempt in range(max_attempts):
        a = random_shor_base(modulus, rng)
        shared = math.gcd(a, modulus)
        if shared != 1:  # pragma: no cover - random_shor_base avoids this
            return FactoringOutcome(modulus, (shared, modulus // shared),
                                    attempts,
                                    classical_shortcut=f"gcd({a}, N)")
        finder = ShorOrderFinder(modulus, a, mode=mode, strategy=strategy,
                                 seed=rng.randrange(1 << 30), engine=engine)
        result = finder.run()
        attempts.append(result)
        if result.factors is not None:
            return FactoringOutcome(modulus, result.factors, attempts)
    return FactoringOutcome(modulus, None, attempts)
