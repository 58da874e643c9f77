"""The iterative worklist kernel (:mod:`repro.dd.kernel`).

The flat-array kernel is the tentpole of the vectorised-kernel PR: it must
be bit-for-bit interchangeable (up to the complex table's tolerance) with
the recursive per-node core it shadows.  These tests pin the pieces the
differential suite cannot see in isolation: the fused sign-canonical add
memo, store compaction with in-place root remapping, the matrix mirror,
the dense-block escape hatch, and the cache-statistics surface perfbench
reads.
"""

import warnings

import numpy as np
import pytest

from repro.dd import (Package, build_gate_dd, vector_from_numpy,
                      vector_to_numpy)
from repro.dd.kernel import DenseState, FlatEdge

H = ((2 ** -0.5, 2 ** -0.5), (2 ** -0.5, -(2 ** -0.5)))


def random_amplitudes(rng, num_qubits):
    amps = rng.normal(size=1 << num_qubits) \
        + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def structured_amplitudes(rng, num_qubits, kind):
    """Seeded amplitudes: ``dense``, ``zero_blocks`` (aligned zero runs),
    ``repeated`` (one sub-vector times a few factors) or ``basis`` (one
    to three unit-magnitude amplitudes)."""
    size = 1 << num_qubits
    amps = random_amplitudes(rng, num_qubits)
    span = 1 << int(rng.integers(num_qubits))
    if kind == "zero_blocks":
        for start in range(0, size, span):
            if rng.random() < 0.5:
                amps[start:start + span] = 0
    elif kind == "repeated":
        factors = (1, -1, 1j, 0.5)
        amps = np.concatenate([amps[:span] * factors[rng.integers(4)]
                               for _ in range(size // span)])
    elif kind == "basis":
        amps = np.zeros(size, dtype=complex)
        count = min(size, 1 + int(rng.integers(3)))
        for index in rng.choice(size, size=count, replace=False):
            amps[index] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    norm = np.linalg.norm(amps)
    return amps / norm if norm else amps


def import_state(package, amps):
    """A flat state holding ``amps`` (via the recursive builder + import)."""
    return package.flat.import_vector(vector_from_numpy(package, amps))


def flat_to_numpy(package, edge, num_qubits):
    return np.array([package.amplitude(edge, i)
                     for i in range(1 << num_qubits)])


class TestRecursiveEquivalence:
    """Flat add / mult_mv / apply_gate agree with the recursive core."""

    def test_add_matches_recursive(self):
        rng = np.random.default_rng(11)
        for num_qubits in (1, 3, 5):
            x = random_amplitudes(rng, num_qubits)
            y = random_amplitudes(rng, num_qubits)
            recursive = Package()
            expected = vector_to_numpy(
                recursive.add_vectors(vector_from_numpy(recursive, x),
                                      vector_from_numpy(recursive, y)),
                num_qubits)
            package = Package(kernel="iterative")
            result = package.add_vectors(import_state(package, x),
                                         import_state(package, y))
            assert type(result) is FlatEdge
            np.testing.assert_allclose(
                flat_to_numpy(package, result, num_qubits), expected,
                atol=1e-10)
            assert package.flat.check_invariants() == []

    def test_mult_mv_matches_recursive(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            num_qubits = int(rng.integers(2, 6))
            q, _ = np.linalg.qr(rng.normal(size=(2, 2))
                                + 1j * rng.normal(size=(2, 2)))
            target = int(rng.integers(num_qubits))
            controls = {q_: 1 for q_ in rng.choice(
                [q_ for q_ in range(num_qubits) if q_ != target],
                size=min(1, num_qubits - 1), replace=False)}
            amps = random_amplitudes(rng, num_qubits)

            recursive = Package()
            gate = build_gate_dd(recursive, q, num_qubits, target, controls)
            expected = vector_to_numpy(
                recursive.multiply_matrix_vector(
                    gate, vector_from_numpy(recursive, amps)), num_qubits)

            package = Package(kernel="iterative")
            gate = build_gate_dd(package, q, num_qubits, target, controls)
            result = package.multiply_matrix_vector(
                gate, import_state(package, amps))
            np.testing.assert_allclose(
                flat_to_numpy(package, result, num_qubits), expected,
                atol=1e-10)

    def test_apply_gate_matches_recursive(self):
        rng = np.random.default_rng(17)
        num_qubits = 5
        recursive = Package()
        package = Package(kernel="iterative", dense_blocks=False)
        rec_state = recursive.basis_state(num_qubits, 0)
        flat_state = package.flat.basis_state(num_qubits, 0)
        for _ in range(25):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2))
                                + 1j * rng.normal(size=(2, 2)))
            matrix = tuple(tuple(row) for row in q)
            target = int(rng.integers(num_qubits))
            controls = None
            if rng.random() < 0.4:
                other = int(rng.choice(
                    [q_ for q_ in range(num_qubits) if q_ != target]))
                controls = ((other, int(rng.integers(2))),)
            rec_state = recursive.apply_gate(rec_state, matrix, target,
                                             controls)
            flat_state = package.apply_gate(flat_state, matrix, target,
                                            controls)
        np.testing.assert_allclose(
            flat_to_numpy(package, flat_state, num_qubits),
            vector_to_numpy(rec_state, num_qubits), atol=1e-9)


class TestFusedAddMemo:
    """One memo entry answers both ``x + r*y`` and ``x - r*y``."""

    def test_plus_then_minus_hits(self):
        rng = np.random.default_rng(23)
        package = Package(kernel="iterative")
        flat = package.flat
        x = import_state(package, random_amplitudes(rng, 4))
        y = import_state(package, random_amplitudes(rng, 4))
        plus = flat.add(x, y)
        hits_after_plus = flat.add_hits
        minus = flat.add(x, FlatEdge(flat, y.index, -y.weight))
        # the second (sign-flipped) addition is answered entirely from the
        # fused entries' other halves: hits grow, no new entries appear
        assert flat.add_hits > hits_after_plus
        xv = flat_to_numpy(package, x, 4)
        yv = flat_to_numpy(package, y, 4)
        np.testing.assert_allclose(flat_to_numpy(package, plus, 4),
                                   xv + yv, atol=1e-10)
        np.testing.assert_allclose(flat_to_numpy(package, minus, 4),
                                   xv - yv, atol=1e-10)

    def test_operand_order_is_canonical(self):
        rng = np.random.default_rng(29)
        package = Package(kernel="iterative")
        flat = package.flat
        x = import_state(package, random_amplitudes(rng, 4))
        y = import_state(package, random_amplitudes(rng, 4))
        flat.add(x, y)
        entries_after_first = len(flat.pair_memo)
        flat.add(y, x)  # swapped operands must reuse the same entries
        assert len(flat.pair_memo) == entries_after_first


class TestCompaction:
    """``collect`` drops dead slots, remaps roots in place, stays canonical."""

    def test_collect_preserves_roots_and_frees_dead_slots(self):
        rng = np.random.default_rng(31)
        package = Package(kernel="iterative")
        flat = package.flat
        keep_amps = random_amplitudes(rng, 5)
        kept = import_state(package, keep_amps)
        dead = import_state(package, random_amplitudes(rng, 5))
        live_before = flat.live_nodes
        freed = flat.collect([kept])
        assert freed > 0
        assert flat.live_nodes < live_before
        assert dead  # only referenced above; its slots are gone
        np.testing.assert_allclose(flat_to_numpy(package, kept, 5),
                                   keep_amps, atol=1e-10)
        assert flat.check_invariants() == []

    def test_collect_clears_memos_and_matrix_mirror(self):
        rng = np.random.default_rng(37)
        package = Package(kernel="iterative")
        flat = package.flat
        state = import_state(package, random_amplitudes(rng, 4))
        gate = build_gate_dd(package, H, 4, 1)
        state = package.multiply_matrix_vector(gate, state)
        assert len(flat.mult_memo) > 0 and len(flat.ment) > 1
        flat.collect([state])
        assert len(flat.mult_memo) == 0
        assert len(flat.ment) == 1  # matrix mirror dropped wholesale
        # the mirror rebuilds transparently on the next multiplication
        again = package.multiply_matrix_vector(
            build_gate_dd(package, H, 4, 1), state)
        assert again.weight != 0


class TestDenseBlocks:
    """to_dense / from_dense round-trips and the dense apply path."""

    def test_roundtrip(self):
        rng = np.random.default_rng(47)
        package = Package(kernel="iterative")
        amps = random_amplitudes(rng, 6)
        edge = import_state(package, amps)
        dense = package.flat.to_dense(edge)
        assert type(dense) is DenseState
        np.testing.assert_allclose(dense.amps, amps, atol=1e-10)
        back = dense.to_flat()
        assert type(back) is FlatEdge
        np.testing.assert_allclose(flat_to_numpy(package, back, 6), amps,
                                   atol=1e-10)
        assert package.flat.check_invariants() == []

    def test_solidify(self):
        rng = np.random.default_rng(53)
        package = Package(kernel="iterative")
        amps = random_amplitudes(rng, 4)
        edge = import_state(package, amps)
        assert package.solidify(edge) is edge  # non-dense passes through
        solid = package.solidify(package.flat.to_dense(edge))
        assert type(solid) is FlatEdge
        np.testing.assert_allclose(flat_to_numpy(package, solid, 4), amps,
                                   atol=1e-10)

    def test_apply_gate_stays_dense_and_matches(self):
        rng = np.random.default_rng(59)
        num_qubits = 5
        package = Package(kernel="iterative")
        recursive = Package()
        amps = random_amplitudes(rng, num_qubits)
        dense = package.flat.to_dense(import_state(package, amps))
        rec_state = vector_from_numpy(recursive, amps)
        for _ in range(12):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2))
                                + 1j * rng.normal(size=(2, 2)))
            matrix = tuple(tuple(row) for row in q)
            target = int(rng.integers(num_qubits))
            controls = None
            if rng.random() < 0.5:
                other = int(rng.choice(
                    [q_ for q_ in range(num_qubits) if q_ != target]))
                controls = ((other, 1),)
            dense = package.apply_gate(dense, matrix, target, controls)
            assert type(dense) is DenseState
            rec_state = recursive.apply_gate(rec_state, matrix, target,
                                             controls)
        np.testing.assert_allclose(
            dense.amps, vector_to_numpy(rec_state, num_qubits), atol=1e-9)

    def test_cached_flat_mirror_survives_collection(self):
        rng = np.random.default_rng(61)
        package = Package(kernel="iterative")
        amps = random_amplitudes(rng, 4)
        dense = package.flat.to_dense(import_state(package, amps))
        first = dense.to_flat()
        assert dense.to_flat() is first  # cached within a generation
        package.flat.collect([])  # compaction invalidates the mirror
        rebuilt = dense.to_flat()
        assert rebuilt is not first
        np.testing.assert_allclose(flat_to_numpy(package, rebuilt, 4), amps,
                                   atol=1e-10)

    def test_dense_blocks_off_never_cuts_over(self):
        from repro.circuit import QuantumCircuit
        from repro.simulation import SequentialStrategy, SimulationEngine
        circuit = QuantumCircuit(6, name="dense-off")
        for qubit in range(6):
            circuit.h(qubit)
        for _ in range(4):
            for qubit in range(5):
                circuit.cx(qubit, qubit + 1)
            for qubit in range(6):
                circuit.t(qubit)
        package = Package(kernel="iterative", dense_blocks=False)
        engine = SimulationEngine(package=package, use_local_apply=True)
        result = engine.simulate(circuit, SequentialStrategy())
        assert type(result.state) is FlatEdge
        assert package.flat.stats()["dense"]["cutovers"] == 0

    @pytest.mark.parametrize("kind", ["dense", "zero_blocks", "repeated",
                                      "basis"])
    def test_rebuild_returns_the_original_node(self, kind):
        rng = np.random.default_rng(["dense", "zero_blocks", "repeated",
                                     "basis"].index(kind))
        checked = 0
        for num_qubits in range(1, 11):
            for _ in range(4):
                amps = structured_amplitudes(rng, num_qubits, kind)
                if not amps.any():
                    continue
                package = Package(kernel="iterative")
                edge = import_state(package, amps)
                back = package.flat.from_dense(
                    package.flat.to_dense(edge).amps)
                assert back.index == edge.index, (num_qubits, kind)
                assert abs(back.weight - edge.weight) < 1e-12
                checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("scale", ["pairs", "block"])
    def test_sub_tolerance_blocks_round_trip(self, scale):
        """Pairs with both children below tolerance have ratios near
        tol/|tiny|: grouping them must neither overflow nor warn."""
        rng = np.random.default_rng(71)
        amps = random_amplitudes(rng, 6)
        if scale == "pairs":
            amps[32::2] *= 1e-20
            amps[33::2] *= 5e-11
        else:
            amps *= 1e-12
        package = Package(kernel="iterative")
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            back = package.flat.from_dense(amps)
        rebuilt = flat_to_numpy(package, back, 6)
        overlap = abs(np.vdot(amps, rebuilt)) ** 2 \
            / (np.vdot(amps, amps).real * np.vdot(rebuilt, rebuilt).real)
        assert overlap >= 1 - 1e-12

    def test_noise_below_zero_edges_is_not_built(self):
        """Six amplitudes over 1e-17 noise: the noise hangs below zero
        edges, so the rebuild interns only the nodes the root reaches, all
        of them normalised, and reads back the block without its noise."""
        rng = np.random.default_rng(89)
        amps = 1e-17 * (rng.normal(size=1 << 10)
                        + 1j * rng.normal(size=1 << 10))
        amps[rng.choice(1 << 10, size=6, replace=False)] = \
            rng.normal(size=6) + 1j * rng.normal(size=6)
        amps /= np.linalg.norm(amps)
        package = Package(kernel="iterative")
        edge = package.flat.from_dense(amps)
        assert package.counters.nodes_created == package.count_nodes(edge)
        assert package.flat.check_invariants() == []
        np.testing.assert_allclose(
            flat_to_numpy(package, edge, 10),
            np.where(np.abs(amps) < 1e-12, 0, amps), rtol=0, atol=1e-15)

    def test_nan_amplitude_is_rejected(self):
        """A NaN ratio is not a zero edge: wherever the NaN sits, it
        reaches a complex-table lookup, which refuses to intern it."""
        rng = np.random.default_rng(97)
        for index in range(16):
            amps = random_amplitudes(rng, 4)
            amps[index] = np.nan
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                Package(kernel="iterative").flat.from_dense(amps)

    def test_two_amplitude_block(self):
        package = Package(kernel="iterative")
        edge = package.flat.from_dense(np.array([0.6, 0.8j]))
        np.testing.assert_allclose(flat_to_numpy(package, edge, 1),
                                   [0.6, 0.8j], atol=1e-12)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError):
            Package(kernel="iterative").flat.from_dense(np.ones(6))

    def test_rebuild_pins_interning_order(self):
        """Golden values: the groups are interned in sorted order with the
        last member as representative, so near-tolerance weights meet the
        complex table in a fixed order.  Another order moves these.  A node
        interns at most one weight ratio and never its norm, so the table
        holds 58 entries (83 when each node also interned its norm)."""
        rng = np.random.default_rng(2026)
        base = rng.normal(size=8) + 1j * rng.normal(size=8)
        factors = np.array([1, -1, 1j, 0.5, 0.5j, -0.25])
        amps = np.concatenate([base * factors[rng.integers(len(factors))]
                               for _ in range(32)])
        amps += 3e-11 * (rng.normal(size=256) + 1j * rng.normal(size=256))
        amps[rng.random(256) < 0.1] = 0
        amps /= np.linalg.norm(amps)
        package = Package(kernel="iterative")
        edge = package.flat.from_dense(amps)
        assert (edge.index, len(package.complex_table),
                package.counters.nodes_created,
                package.count_nodes(edge)) == (124, 58, 124, 124)


class TestDeterministicCutover:
    """The dense-block cutover is a function of the operation stream.

    The cost model smooths counted worklist units (apply frames plus add
    probes), never clock readings, into an EWMA, so the cutover gate and
    the dense statistics repeat exactly from run to run.
    """

    @staticmethod
    def _run(num_qubits=4, gates=40, seed=59):
        rng = np.random.default_rng(seed)
        package = Package(kernel="iterative")
        recursive = Package()
        amps = random_amplitudes(rng, num_qubits)
        state = import_state(package, amps)
        rec_state = vector_from_numpy(recursive, amps)
        cut_at = None
        for index in range(gates):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2))
                                + 1j * rng.normal(size=(2, 2)))
            matrix = tuple(tuple(row) for row in q)
            target = int(rng.integers(num_qubits))
            controls = None
            if rng.random() < 0.5:
                other = int(rng.choice(
                    [q_ for q_ in range(num_qubits) if q_ != target]))
                controls = ((other, 1),)
            state = package.apply_gate(state, matrix, target, controls)
            rec_state = recursive.apply_gate(rec_state, matrix, target,
                                             controls)
            if cut_at is None and type(state) is DenseState:
                cut_at = index
        return cut_at, package.flat.stats()["dense"], state, \
            vector_to_numpy(rec_state, num_qubits)

    def test_cutover_fires_and_records_the_ewma(self):
        cut_at, stats, state, oracle = self._run()
        assert cut_at is not None
        assert stats["cutovers"] == 1
        assert stats["ewma_units"] is not None
        assert type(state) is DenseState
        np.testing.assert_allclose(state.amps, oracle, atol=1e-9)

    def test_cutover_is_reproducible_run_to_run(self):
        first = self._run()
        second = self._run()
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestCacheStatsSurface:
    """The statistics shape perfbench's ``--trace 1`` metrics read."""

    def test_zero_lookup_tables_report_zero_hit_rate(self):
        stats = Package().cache_stats()
        for name, table in stats["compute"].items():
            assert table["hit_rate"] == 0.0, name  # 0.0, never NaN
            assert table["entries"] == 0, name
            assert table["capacity"] > 0, name

    def test_kernel_memo_traffic_merges_into_compute_rows(self):
        rng = np.random.default_rng(67)
        package = Package(kernel="iterative")
        x = import_state(package, random_amplitudes(rng, 4))
        y = import_state(package, random_amplitudes(rng, 4))
        package.add_vectors(x, y)
        package.add_vectors(x, y)
        stats = package.cache_stats()
        assert "kernel" in stats
        kernel_add = stats["kernel"]["add_vec"]
        assert kernel_add["lookups"] > 0
        merged = stats["compute"]["add_vec"]
        assert merged["lookups"] >= kernel_add["lookups"]
        assert merged["hits"] >= kernel_add["hits"]
        assert 0.0 <= merged["hit_rate"] <= 1.0
        assert merged["entries"] >= kernel_add["entries"]

    def test_dense_counters_reported(self):
        package = Package(kernel="iterative")
        dense = package.cache_stats()["kernel"]["dense"]
        assert dense["applies"] == 0
        assert dense["cutovers"] == 0


class TestAddVecHitRateOnGrover:
    """Regression gate: the cache-key redesign must keep paying off.

    Historically ``add_vec`` ran at a 100% miss rate (weights baked into
    the keys made every butterfly addition unique).  With canonical
    modulo-weight keys and the fused +/- entries, Grover-10 (marked
    element 311) sustains ~0.5; gate at > 0.3 so a key regression cannot
    land silently.
    """

    def test_grover_10_add_vec_hit_rate(self):
        from repro.algorithms.grover import grover_circuit
        from repro.simulation import SequentialStrategy, SimulationEngine
        package = Package(kernel="iterative")
        engine = SimulationEngine(package=package, use_local_apply=True)
        engine.simulate(grover_circuit(10, 311).circuit,
                        SequentialStrategy())
        merged = package.cache_stats()["compute"]["add_vec"]
        assert merged["lookups"] > 0
        assert merged["hit_rate"] > 0.3, merged
