"""Shared helpers for the benchmark suite.

Every benchmark runs a *fresh* engine per measurement round (circuits are
cached inside each instance, so timing covers simulation, not circuit
generation).  Instances come from the ``quick`` profile so the whole suite
regenerates every paper artifact in a few minutes; use
``python -m repro experiments <artifact> --profile full`` for larger runs.
"""

from __future__ import annotations

import pytest

from repro.analysis.instances import BenchmarkInstance


def run_instance_benchmark(benchmark, instance: BenchmarkInstance,
                           strategy_factory, group: str,
                           rounds: int = 1) -> None:
    """Benchmark one (instance, strategy) pair and attach DD statistics."""
    benchmark.group = group
    stats_holder = {}

    def once():
        stats_holder["stats"] = instance.run(strategy_factory())
        return stats_holder["stats"]

    benchmark.pedantic(once, rounds=rounds, iterations=1, warmup_rounds=0)
    stats = stats_holder["stats"]
    benchmark.extra_info.update({
        "benchmark": instance.name,
        "strategy": stats.strategy,
        "operations": stats.operations_applied,
        "matrix_vector_mults": stats.matrix_vector_mults,
        "matrix_matrix_mults": stats.matrix_matrix_mults,
        "peak_state_nodes": stats.peak_state_nodes,
        "peak_matrix_nodes": stats.peak_matrix_nodes,
        "recursions": stats.counters.total_recursions(),
    })
