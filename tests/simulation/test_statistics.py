"""SimulationStatistics bookkeeping."""

from dataclasses import fields

from repro.dd.package import GcStats, OperationCounters
from repro.simulation import SimulationStatistics


class TestRecording:
    def test_record_state_size_keeps_peak(self):
        stats = SimulationStatistics()
        stats.record_state_size(10)
        stats.record_state_size(5)
        stats.record_state_size(20)
        assert stats.peak_state_nodes == 20

    def test_record_dense_size_keeps_peak(self):
        stats = SimulationStatistics()
        stats.record_dense_size(512)
        stats.record_dense_size(64)
        assert stats.peak_dense_amps == 512
        assert stats.peak_state_nodes == 0

    def test_record_matrix_size_keeps_peak(self):
        stats = SimulationStatistics()
        stats.record_matrix_size(7)
        stats.record_matrix_size(3)
        assert stats.peak_matrix_nodes == 7


class TestMerge:
    def test_merge_accumulates(self):
        a = SimulationStatistics(matrix_vector_mults=3,
                                 matrix_matrix_mults=1,
                                 operations_applied=4,
                                 wall_time_seconds=0.5,
                                 peak_state_nodes=10,
                                 peak_dense_amps=2048)
        b = SimulationStatistics(matrix_vector_mults=2,
                                 matrix_matrix_mults=5,
                                 operations_applied=7,
                                 wall_time_seconds=0.25,
                                 peak_state_nodes=30,
                                 peak_dense_amps=512,
                                 final_state_nodes=9)
        a.merge(b)
        assert a.matrix_vector_mults == 5
        assert a.matrix_matrix_mults == 6
        assert a.operations_applied == 11
        assert a.wall_time_seconds == 0.75
        assert a.peak_state_nodes == 30
        assert a.peak_dense_amps == 2048
        assert a.final_state_nodes == 9

    def test_merge_counters(self):
        a = SimulationStatistics(
            counters=OperationCounters(add_recursions=5))
        b = SimulationStatistics(
            counters=OperationCounters(add_recursions=3,
                                       mult_mv_recursions=2))
        a.merge(b)
        assert a.counters.add_recursions == 8
        assert a.counters.mult_mv_recursions == 2

    def test_merge_keeps_flat_slots_freed(self):
        a = SimulationStatistics(gc=GcStats(flat_slots_freed=3))
        a.merge(SimulationStatistics(gc=GcStats(flat_slots_freed=4)))
        assert a.gc.flat_slots_freed == 7

    def test_merge_adds_every_counter_and_gc_field(self):
        def stats(value):
            return SimulationStatistics(
                counters=OperationCounters(**{
                    f.name: value for f in fields(OperationCounters)}),
                gc=GcStats(**{f.name: value for f in fields(GcStats)}))

        a = stats(1)
        a.merge(stats(2))
        for record in (a.counters, a.gc):
            for f in fields(record):
                assert getattr(record, f.name) == 3, f.name


class TestCounters:
    def test_total_recursions(self):
        counters = OperationCounters(add_recursions=1, mult_mv_recursions=2,
                                     mult_mm_recursions=3, kron_recursions=4)
        assert counters.total_recursions() == 10

    def test_delta(self):
        before = OperationCounters(add_recursions=5, nodes_created=2)
        after = OperationCounters(add_recursions=9, nodes_created=6,
                                  mult_mm_recursions=1)
        delta = after.delta(before)
        assert delta.add_recursions == 4
        assert delta.nodes_created == 4
        assert delta.mult_mm_recursions == 1

    def test_snapshot_is_independent(self):
        counters = OperationCounters(add_recursions=1)
        snap = counters.snapshot()
        counters.add_recursions = 100
        assert snap.add_recursions == 1


def test_summary_is_informative():
    stats = SimulationStatistics(strategy="k-operations(k=4)",
                                 circuit_name="grover_10",
                                 operations_applied=100,
                                 matrix_vector_mults=25,
                                 matrix_matrix_mults=75,
                                 peak_state_nodes=42,
                                 wall_time_seconds=1.5)
    text = stats.summary()
    assert "grover_10" in text
    assert "25 MxV" in text
    assert "75 MxM" in text
    assert "42" in text
