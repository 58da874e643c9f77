"""Shor's algorithm: both simulation styles, orders, factors, statistics."""

import gc
import math
import weakref

import pytest

from repro.algorithms import (ShorOrderFinder, beauregard_layout,
                              controlled_ua_circuit, factor,
                              multiplicative_order)
from repro.algorithms import shor as shor_module
from repro.dd import Package
from repro.simulation import (KOperationsStrategy, MaxSizeStrategy,
                              SequentialStrategy, SimulationEngine)


class TestLayout:
    def test_qubit_counts(self):
        layout = beauregard_layout(15)  # n = 4
        assert layout.num_qubits == 11
        assert len(layout.b_register) == 5
        assert len(layout.x_register) == 4
        assert layout.ancilla == 9
        assert layout.control == 10

    def test_registers_are_disjoint(self):
        layout = beauregard_layout(21)
        all_qubits = (list(layout.b_register) + list(layout.x_register)
                      + [layout.ancilla, layout.control])
        assert sorted(all_qubits) == list(range(layout.num_qubits))


class TestControlledUaCircuit:
    def test_oracle_on_dd_simulator(self):
        """The gate-level U_a maps |x=1> to |a mod N> when control is on."""
        modulus, multiplier = 15, 7
        layout = beauregard_layout(modulus)
        circuit = controlled_ua_circuit(modulus, multiplier)
        engine = SimulationEngine()
        x_offset = layout.x_register[0]
        initial = engine.package.basis_state(
            layout.num_qubits, (1 << x_offset) | (1 << layout.control))
        result = engine.simulate(circuit, initial_state=initial)
        expected = (multiplier << x_offset) | (1 << layout.control)
        assert result.probability(expected) == pytest.approx(1.0, abs=1e-9)

    def test_oracle_identity_when_control_off(self):
        modulus, multiplier = 15, 7
        layout = beauregard_layout(modulus)
        circuit = controlled_ua_circuit(modulus, multiplier)
        engine = SimulationEngine()
        initial = engine.package.basis_state(
            layout.num_qubits, 3 << layout.x_register[0])
        result = engine.simulate(circuit, initial_state=initial)
        assert result.probability(3 << layout.x_register[0]) == \
            pytest.approx(1.0, abs=1e-9)


class TestOrderFinderValidation:
    def test_non_coprime_base_rejected(self):
        with pytest.raises(ValueError):
            ShorOrderFinder(15, 5)

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            ShorOrderFinder(2, 1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ShorOrderFinder(15, 7, mode="quantum")


class TestConstructMode:
    @pytest.mark.parametrize("modulus,base", [(15, 7), (15, 2), (21, 2),
                                              (33, 5)])
    def test_recovers_true_order(self, modulus, base):
        true_order = multiplicative_order(base, modulus)
        # Order finding is probabilistic; a handful of seeds must contain a
        # successful run.
        for seed in range(6):
            result = ShorOrderFinder(modulus, base, mode="construct",
                                     seed=seed).run()
            if result.order == true_order:
                return
        pytest.fail(f"order {true_order} never recovered for "
                    f"{base} mod {modulus}")

    def test_measured_phase_is_near_multiple_of_1_over_r(self):
        result = ShorOrderFinder(15, 7, mode="construct", seed=1).run()
        phase = result.measured_phase
        nearest = round(phase * 4) / 4  # r = 4
        assert abs(phase - nearest) < 1 / 32

    def test_uses_n_plus_one_qubits(self):
        result = ShorOrderFinder(15, 7, mode="construct", seed=0).run()
        assert result.statistics.num_qubits == 5  # n=4 work + 1 control

    def test_direct_constructions_counted_and_reused(self):
        result = ShorOrderFinder(15, 7, mode="construct", seed=0).run()
        stats = result.statistics
        # a^(2^i) mod 15 cycles quickly: few distinct oracles, many reuses
        assert 0 < stats.direct_constructions <= 4
        assert stats.direct_constructions + stats.reused_block_applications \
            == result.precision_bits

    def test_phase_bits_length(self):
        result = ShorOrderFinder(15, 7, mode="construct", seed=0).run()
        assert len(result.phase_bits) == 8
        assert set(result.phase_bits) <= {0, 1}


class TestGatesMode:
    def test_agrees_with_construct_mode(self):
        """Same seed -> same measured bits: the two realisations implement
        the same quantum process."""
        gates = ShorOrderFinder(15, 7, mode="gates",
                                strategy=SequentialStrategy(), seed=5).run()
        construct = ShorOrderFinder(15, 7, mode="construct", seed=5).run()
        assert gates.phase_bits == construct.phase_bits
        assert gates.measured_value == construct.measured_value

    def test_combining_strategy_gives_same_bits(self):
        sequential = ShorOrderFinder(15, 7, mode="gates",
                                     strategy=SequentialStrategy(),
                                     seed=9).run()
        combined = ShorOrderFinder(15, 7, mode="gates",
                                   strategy=KOperationsStrategy(8),
                                   seed=9).run()
        assert sequential.phase_bits == combined.phase_bits

    def test_statistics_reflect_gate_level_cost(self):
        result = ShorOrderFinder(15, 7, mode="gates",
                                 strategy=SequentialStrategy(), seed=1).run()
        stats = result.statistics
        assert stats.operations_applied > 1000   # thousands of elementary ops
        assert stats.matrix_vector_mults >= stats.operations_applied

    def test_construct_orders_of_magnitude_cheaper(self):
        """The Table II claim, in machine-independent multiplication counts."""
        gates = ShorOrderFinder(15, 7, mode="gates",
                                strategy=SequentialStrategy(), seed=2).run()
        construct = ShorOrderFinder(15, 7, mode="construct", seed=2).run()
        assert construct.statistics.matrix_vector_mults * 100 \
            < gates.statistics.matrix_vector_mults


class TestRunOverhead:
    """One GC pause and one oracle circuit per distinct multiplier per run;
    neither may change what the run computes."""

    @pytest.mark.parametrize("mode", ["gates", "construct"])
    def test_at_most_one_cyclic_collection_per_run(self, mode):
        """Re-enabling the collector after each segment started one pass
        over the run's DD objects per segment; now only the pass owed when
        the run re-enables it can start."""
        finder = ShorOrderFinder(15, 7, mode=mode, seed=1)
        starts = []

        def on_gc(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            finder.run()
        finally:
            gc.callbacks.remove(on_gc)
        assert len(starts) <= 1, starts

    @pytest.mark.parametrize("mode", ["gates", "construct"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_collector_state(self, mode, enabled):
        if not enabled:
            gc.disable()
        try:
            ShorOrderFinder(15, 7, mode=mode, seed=1).run()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", ["gates", "construct"])
    def test_restores_the_collector_when_a_segment_raises(self, mode,
                                                          monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("segment failed")

        finder = ShorOrderFinder(15, 7, mode=mode, seed=1)
        if mode == "gates":
            monkeypatch.setattr(finder.engine, "simulate", boom)
        else:
            monkeypatch.setattr(shor_module, "measure_qubit", boom)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="segment failed"):
            finder.run()
        assert gc.isenabled()

    def test_one_oracle_circuit_per_distinct_multiplier(self, monkeypatch):
        """7^(2^k) mod 15 for k = 7..0 is 1 (six times), 4, 7."""
        calls = []
        original = shor_module.append_controlled_ua

        def counting(circuit, control, x_register, b_register, multiplier,
                     *args):
            calls.append(multiplier)
            return original(circuit, control, x_register, b_register,
                            multiplier, *args)

        monkeypatch.setattr(shor_module, "append_controlled_ua", counting)
        finder = ShorOrderFinder(15, 7, mode="gates", seed=1)
        assert sorted(finder._multipliers()) == [1, 1, 1, 1, 1, 1, 4, 7]
        finder.run()
        assert sorted(calls) == [1, 4, 7]

    # Pinned before the oracle circuits were shared across segments.
    @pytest.mark.parametrize("modulus,base,seed,strategy,expected", [
        (15, 7, 5, SequentialStrategy(),
         ([0, 0, 0, 0, 0, 0, 1, 1], 6031, 0, 31)),
        (15, 7, 5, MaxSizeStrategy(16),
         ([0, 0, 0, 0, 0, 0, 1, 1], 1742, 4289, 31)),
        (21, 2, 3, SequentialStrategy(),
         ([1, 0, 1, 0, 1, 0, 1, 0, 1, 1], 12339, 0, 43)),
        (21, 2, 3, MaxSizeStrategy(16),
         ([1, 0, 1, 0, 1, 0, 1, 0, 1, 1], 4480, 7859, 43)),
    ])
    def test_schedule_and_outcome_are_unchanged(self, modulus, base, seed,
                                                strategy, expected):
        result = ShorOrderFinder(modulus, base, mode="gates",
                                 strategy=strategy, seed=seed).run()
        stats = result.statistics
        assert (result.phase_bits, stats.matrix_vector_mults,
                stats.matrix_matrix_mults, stats.peak_state_nodes) == expected

    @pytest.mark.parametrize("mode,kernel", [
        pytest.param("gates", "recursive", id="gates"),
        pytest.param("construct", "recursive", id="construct"),
        pytest.param("gates", "iterative", id="gates-iterative"),
        pytest.param("construct", "iterative", id="construct-iterative"),
    ])
    def test_run_leaves_no_reference_cycle_holding_the_package(self, mode,
                                                               kernel):
        """With the collector off, dropping the finder, the engine and the
        result must free the package by reference counting alone."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine = SimulationEngine(Package(kernel=kernel))
            package = weakref.ref(engine.package)
            finder = ShorOrderFinder(15, 7, mode=mode, seed=1, engine=engine)
            result = finder.run()
            del finder, engine, result
            assert package() is None
        finally:
            if was_enabled:
                gc.enable()


class TestIterativeKernelStaysFlat:
    """Measuring and collapsing in the flat store keeps every segment of
    an iterative run on the flat kernel: no object-node vector work.  The
    gates-mode segments end on dense blocks whose amplitudes are mostly
    noise; the store stays normalised and the complex table small only if
    their rebuild interns nothing below a zero edge."""

    @pytest.mark.parametrize("mode,strategy", [
        pytest.param("gates", SequentialStrategy(), id="gates-sequential"),
        pytest.param("gates", MaxSizeStrategy(16), id="gates-smax16"),
        pytest.param("construct", None, id="construct"),
    ])
    def test_no_object_node_vector_calls(self, mode, strategy, monkeypatch):
        calls = {}

        def counting(name):
            original = getattr(Package, name)

            def wrapper(self, *args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(self, *args, **kwargs)
            return wrapper

        for name in ("_mult_mv", "make_vector_node"):
            monkeypatch.setattr(Package, name, counting(name))
        options = {} if strategy is None else {"strategy": strategy}
        package = Package(kernel="iterative")
        flat = ShorOrderFinder(
            21, 2, mode=mode, seed=3, engine=SimulationEngine(package),
            **options).run()
        assert calls == {}
        assert package.flat.check_invariants() == []
        assert len(package.complex_table) < 1000
        reference = ShorOrderFinder(
            21, 2, mode=mode, seed=3,
            engine=SimulationEngine(Package(kernel="recursive")),
            **options).run()
        assert calls  # the recursive run does go through the wrappers
        assert flat.phase_bits == reference.phase_bits
        assert flat.order == reference.order == multiplicative_order(2, 21)


class TestFactor:
    def test_factor_semiprime_construct(self):
        outcome = factor(15, mode="construct", seed=3)
        assert outcome.succeeded
        assert sorted(outcome.factors) == [3, 5]

    def test_factor_21(self):
        outcome = factor(21, mode="construct", seed=1)
        assert sorted(outcome.factors) == [3, 7]

    def test_even_number_shortcut(self):
        outcome = factor(24)
        assert outcome.classical_shortcut == "even"
        assert outcome.factors == (2, 12)
        assert outcome.attempts == []

    def test_perfect_power_shortcut(self):
        outcome = factor(27)
        assert "perfect power" in outcome.classical_shortcut
        assert outcome.factors[0] * outcome.factors[1] == 27

    def test_square_shortcut(self):
        outcome = factor(49)
        assert outcome.factors == (7, 7)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            factor(3)

    def test_attempts_recorded(self):
        outcome = factor(15, mode="construct", seed=3)
        assert len(outcome.attempts) >= 1
        assert all(a.modulus == 15 for a in outcome.attempts)


class TestUnitaryPhaseEstimation:
    def test_distribution_is_normalised(self):
        from repro.algorithms import shor_phase_estimation_distribution
        distribution = shor_phase_estimation_distribution(15, 7)
        assert sum(distribution) == pytest.approx(1.0, abs=1e-9)

    def test_peaks_at_multiples_of_2t_over_r(self):
        from repro.algorithms import shor_phase_estimation_distribution
        distribution = shor_phase_estimation_distribution(15, 7)  # r = 4
        size = len(distribution)
        for y, probability in enumerate(distribution):
            if y % (size // 4) == 0:
                assert probability == pytest.approx(0.25, abs=1e-9)
            else:
                assert probability == pytest.approx(0.0, abs=1e-9)

    def test_non_power_of_two_order_spreads(self):
        from repro.algorithms import shor_phase_estimation_distribution
        # ord(2 mod 21) = 6 does not divide 2^t: peaks are smeared but the
        # six dominant outcomes sit near multiples of 2^t / 6
        distribution = shor_phase_estimation_distribution(21, 2,
                                                          precision_bits=7)
        size = len(distribution)
        dominant = sorted(range(size), key=distribution.__getitem__)[-6:]
        for y in dominant:
            nearest = round(6 * y / size) * size / 6
            assert abs(y - nearest) <= 1.5

    def test_matches_semiclassical_statistics(self):
        """Semiclassical measured values are draws from the QPE
        distribution: every observed value must have positive ideal mass."""
        from repro.algorithms import shor_phase_estimation_distribution
        distribution = shor_phase_estimation_distribution(15, 7)
        for seed in range(5):
            result = ShorOrderFinder(15, 7, mode="construct",
                                     seed=seed).run()
            assert distribution[result.measured_value] > 1e-12

    def test_invalid_inputs(self):
        from repro.algorithms import shor_phase_estimation_distribution
        with pytest.raises(ValueError):
            shor_phase_estimation_distribution(15, 5)  # gcd(5,15) != 1
        with pytest.raises(ValueError):
            shor_phase_estimation_distribution(15, 7, precision_bits=0)


class TestControlledUnitaryDD:
    def test_control_applies_unitary(self):
        from repro.dd import (Package, build_permutation_dd,
                              controlled_unitary_dd, matrix_to_numpy)
        import numpy as np
        package = Package()
        perm = build_permutation_dd(package, [1, 0, 2, 3], 2)
        controlled = controlled_unitary_dd(package, perm, 4, control=3)
        dense = matrix_to_numpy(controlled, 4)
        # control off: identity on the lower 8 states
        assert np.allclose(dense[:8, :8], np.eye(8))
        # control on: permutation on qubits 0-1, identity on qubit 2
        block = dense[8:, 8:]
        expected = np.kron(np.eye(2), matrix_to_numpy(perm, 2))
        assert np.allclose(block, expected)

    def test_control_below_unitary_rejected(self):
        from repro.dd import (Package, build_permutation_dd,
                              controlled_unitary_dd)
        package = Package()
        perm = build_permutation_dd(package, [1, 0], 1)
        with pytest.raises(ValueError):
            controlled_unitary_dd(package, perm, 3, control=0)

    def test_zero_matrix_rejected(self):
        from repro.dd import Package, controlled_unitary_dd
        package = Package()
        with pytest.raises(ValueError):
            controlled_unitary_dd(package, package.zero, 3, control=2)
