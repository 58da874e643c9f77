"""Reproducible kernel benchmark harness (``python -m repro bench``).

Measures the sequential-simulation kernel on a fixed set of workloads with
fixed seeds and emits a machine-readable JSON report (``BENCH_kernel.json``)
containing, per workload:

* wall-clock time (best and median over ``--repeats`` runs) for both the
  local-gate fast path (``Package.apply_gate``) and the paper-literal
  matrix pathway (explicit gate DD + one matrix-vector product per gate);
* the machine-independent recursion counters of both pathways;
* per-compute-table cache hit rates from :meth:`Package.cache_stats`;
* garbage-collection telemetry (collections, nodes freed, pause time).

The report also carries a ``reorder`` section: the qubit-pairing worst
case (GHZ-style pairs whose natural order keeps every pair maximally far
apart in the variable order) run once under the circuit's natural order and
once with periodic sifting enabled.  The sifted arm must reproduce the
ordered arm's state at fidelity >= 1 - 1e-9 -- the receipt for dynamic
variable reordering -- and the recorded node counts show the
exponential-to-linear collapse sifting buys on this family.

The report also carries a ``thrash`` section: a dense supremacy prefix
followed by a long tail of cheap diagonal gates, run with the node limit
pinned *below* the reachable working set.  The fixed-threshold arm
(``growth_factor=1.0``, the pre-governor behaviour) re-collects every step;
the governed arm grows its threshold past the working set after the first
futile collection.  The recorded speedup and fidelity are the receipt for
the GC-thrash fix.

The report is the "receipt" for the kernel optimisations: wall-clock claims
can be re-derived on any machine with one command, and counter/cache-rate
fields change only when the kernel itself changes.

``--trace PATH`` additionally performs one untimed traced run per workload,
appending per-step/per-GC events (each tagged with its workload name) to a
single JSON-Lines file -- see :mod:`repro.simulation.trace` for the schema.

Workloads (``--smoke`` swaps in smaller variants for CI):

========== ============================== =============================
name       full                           smoke
========== ============================== =============================
grover     10 qubits, marked 311          8 qubits, marked 77
qft        14 qubits                      10 qubits
supremacy  3x4 grid, depth 10, seed 1     3x3 grid, depth 8, seed 1
clifford   12 qubits, depth 16, seed 2    10 qubits, depth 10, seed 2
========== ============================== =============================
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from random import Random
from typing import Callable

from .circuit.circuit import QuantumCircuit
from .dd.package import Package
from .simulation.engine import SimulationEngine
from .simulation.memory import MemoryGovernor
from .simulation.strategies import SequentialStrategy
from .simulation.trace import JsonlTraceSink, trace_summary

__all__ = ["WORKLOADS", "SMOKE_WORKLOADS", "thrash_circuit", "run_bench",
           "main"]

DEFAULT_OUTPUT = "BENCH_kernel.json"
SCHEMA_VERSION = 4


@dataclass(frozen=True)
class Workload:
    """One named benchmark circuit with a deterministic builder."""

    name: str
    description: str
    build: Callable[[], QuantumCircuit]


def _grover(num_qubits: int, marked: int) -> Callable[[], QuantumCircuit]:
    def build() -> QuantumCircuit:
        from .algorithms.grover import grover_circuit
        return grover_circuit(num_qubits, marked).circuit
    return build


def _qft(num_qubits: int) -> Callable[[], QuantumCircuit]:
    def build() -> QuantumCircuit:
        from .algorithms.qft import qft_circuit
        return qft_circuit(num_qubits)
    return build


def _supremacy(rows: int, cols: int, depth: int,
               seed: int) -> Callable[[], QuantumCircuit]:
    def build() -> QuantumCircuit:
        from .algorithms.supremacy import supremacy_circuit
        return supremacy_circuit(rows, cols, depth, seed).circuit
    return build


def _clifford(num_qubits: int, depth: int,
              seed: int) -> Callable[[], QuantumCircuit]:
    def build() -> QuantumCircuit:
        from .algorithms.clifford import random_clifford_circuit
        return random_clifford_circuit(num_qubits, depth, seed=seed).circuit
    return build


WORKLOADS: list[Workload] = [
    Workload("grover_10", "Grover search, 10 qubits, marked element 311",
             _grover(10, 311)),
    Workload("qft_14", "quantum Fourier transform, 14 qubits", _qft(14)),
    Workload("supremacy_3x4_d10",
             "Boixo-style random circuit, 3x4 grid, depth 10, seed 1",
             _supremacy(3, 4, 10, 1)),
    Workload("clifford_12_d16",
             "random {H,S,CX} circuit, 12 qubits, depth 16, seed 2",
             _clifford(12, 16, 2)),
]

SMOKE_WORKLOADS: list[Workload] = [
    Workload("grover_8", "Grover search, 8 qubits, marked element 77",
             _grover(8, 77)),
    Workload("qft_10", "quantum Fourier transform, 10 qubits", _qft(10)),
    Workload("supremacy_3x3_d8",
             "Boixo-style random circuit, 3x3 grid, depth 8, seed 1",
             _supremacy(3, 3, 8, 1)),
    Workload("clifford_10_d10",
             "random {H,S,CX} circuit, 10 qubits, depth 10, seed 2",
             _clifford(10, 10, 2)),
]


def thrash_circuit(rows: int, cols: int, depth: int, tail: int,
                   seed: int) -> QuantumCircuit:
    """Dense supremacy prefix + a long tail of cheap diagonal gates.

    The prefix builds a large, fully-reachable state DD; the tail then
    applies ``tail`` near-O(1) local diagonal gates (t/s/rz cycling over the
    top three qubits).  With a node limit below the prefix's working set,
    a fixed GC threshold re-collects on every tail step -- each collection
    a full mark-sweep that frees only the previous step's handful of dead
    nodes -- which is exactly the thrash regime the memory governor fixes.
    """
    from .algorithms.supremacy import supremacy_circuit
    base = supremacy_circuit(rows, cols, depth, seed).circuit
    n = base.num_qubits
    circuit = QuantumCircuit(
        n, name=f"thrash_{rows}x{cols}_d{depth}_t{tail}")
    circuit.extend(base.instructions)
    rng = Random(seed + 1)
    for i in range(tail):
        qubit = n - 1 - (i % 3)
        kind = rng.randrange(3)
        if kind == 0:
            circuit.t(qubit)
        elif kind == 1:
            circuit.s(qubit)
        else:
            circuit.rz(rng.random() * 3.0, qubit)
    return circuit


#: thrash-scenario configuration: (rows, cols, depth, tail, seed, node_limit)
#: -- the node limit must sit *below* the prefix's reachable working set,
#: or neither arm ever re-collects and the comparison is vacuous.
THRASH_CONFIG = {
    "full": (3, 4, 10, 2000, 1, 256),
    "smoke": (3, 3, 8, 800, 1, 16),
}


def _counters_dict(counters) -> dict:
    return {
        "add_recursions": counters.add_recursions,
        "mult_mv_recursions": counters.mult_mv_recursions,
        "mult_mm_recursions": counters.mult_mm_recursions,
        "apply_gate_recursions": counters.apply_gate_recursions,
        "nodes_created": counters.nodes_created,
        "total_recursions": counters.total_recursions(),
    }


def _compute_hit_rates(cache_stats: dict) -> dict:
    """Per-table lookup/hit-rate summary, dropping never-used tables."""
    out = {}
    for name, stats in cache_stats["compute"].items():
        if stats["lookups"]:
            out[name] = {"lookups": stats["lookups"],
                         "hit_rate": stats["hit_rate"],
                         "collisions": stats["collisions"]}
    out["unique_vectors"] = cache_stats["unique"]["vectors"]["hit_rate"]
    out["complex_table"] = cache_stats["complex"]["hit_rate"]
    return out


def _measure(circuit: QuantumCircuit, use_local_apply: bool,
             repeats: int, gc_limit: int | None = None,
             audit: bool = False,
             package_factory: Callable | None = None) -> tuple[dict, object]:
    """Time ``repeats`` fresh-engine sequential runs of ``circuit``.

    ``package_factory`` supplies a fresh DD package per run (used for the
    iterative-kernel arm); the default is the engine's own recursive-kernel
    package.  Returns ``(entry, last_result)`` -- the result backs the
    cross-arm fidelity receipt.
    """
    times = []
    stats = None
    cache_stats = None
    for _ in range(repeats):
        package = package_factory() if package_factory is not None else None
        engine = SimulationEngine(package=package,
                                  use_local_apply=use_local_apply,
                                  gc_node_limit=gc_limit or 500_000)
        result = engine.simulate(circuit, SequentialStrategy())
        stats = result.statistics
        cache_stats = engine.package.cache_stats()
        times.append(stats.wall_time_seconds)
    if audit:
        # Untimed integrity audit of the final measured package: a kernel
        # change that corrupts canonicity should fail the benchmark, not
        # just skew its numbers.
        violations = engine.package.check_invariants([result.state])
        if violations:
            raise RuntimeError(
                f"{circuit.name}: DD integrity audit failed after measured "
                f"run: {violations[0]} (+{len(violations) - 1} more)")
    entry = {
        "wall_seconds_best": round(min(times), 6),
        "wall_seconds_median": round(statistics.median(times), 6),
        "matrix_vector_mults": stats.matrix_vector_mults,
        "local_gate_applications": stats.local_gate_applications,
        "peak_state_nodes": stats.peak_state_nodes,
        "final_state_nodes": stats.final_state_nodes,
        "counters": _counters_dict(stats.counters),
        "cache": _compute_hit_rates(cache_stats),
        "gc": stats.gc.as_dict(),
    }
    if engine.package.flat is not None:
        # Iterative-kernel arm: record the dense-block telemetry so the
        # report shows how much of the run left the DD representation.
        entry["dense"] = engine.package.flat.stats()["dense"]
    return entry, result


def _thrash_arm(circuit: QuantumCircuit,
                governor: MemoryGovernor) -> tuple[dict, "SimulationResult"]:
    """One timed thrash run.  Exact per-step state sizing is off so the
    arms differ only in GC policy, not in statistics overhead."""
    engine = SimulationEngine(governor=governor, track_state_size=False)
    start = time.perf_counter()
    result = engine.simulate(circuit, SequentialStrategy())
    wall = time.perf_counter() - start
    stats = result.statistics
    return {
        "wall_seconds": round(wall, 6),
        "gc": stats.gc.as_dict(),
        "governor": governor.stats(),
        "final_state_nodes": stats.final_state_nodes,
    }, result


def _fidelity(a, b, num_qubits: int) -> float:
    """|<a|b>|^2 via amplitude enumeration (results live in different
    packages, so the in-package fidelity helper does not apply)."""
    inner = sum(a.amplitude(i).conjugate() * b.amplitude(i)
                for i in range(1 << num_qubits))
    return abs(inner) ** 2


#: reorder-scenario configuration: (pairs, tail_layers) for the
#: qubit-pairing worst case -- natural order is exponential in ``pairs``,
#: the interleaved order sifting finds is linear.
REORDER_CONFIG = {
    "full": (6, 2),
    "smoke": (4, 2),
}


def _reorder_bench(profile: str) -> dict:
    """A/B the qubit-pairing worst case: natural order vs. periodic sifting."""
    from .algorithms.pairing import pairing_circuit
    from .simulation.reorder import ReorderPolicy
    pairs, tail = REORDER_CONFIG[profile]
    circuit = pairing_circuit(pairs, tail_layers=tail).circuit

    def arm(reorder) -> tuple[dict, "SimulationResult"]:
        engine = SimulationEngine()
        start = time.perf_counter()
        result = engine.simulate(circuit, SequentialStrategy(),
                                 reorder=reorder)
        wall = time.perf_counter() - start
        stats = result.statistics
        return {
            "wall_seconds": round(wall, 6),
            "peak_state_nodes": stats.peak_state_nodes,
            "final_state_nodes": stats.final_state_nodes,
            "reorders": stats.reorders,
            "reorder_nodes_saved": stats.reorder_nodes_saved,
        }, result

    ordered, ref = arm(None)
    sifted, sifted_result = arm(
        ReorderPolicy(mode="every", every=2 * pairs, min_nodes=2))
    fidelity = _fidelity(sifted_result, ref, circuit.num_qubits)
    if fidelity < 1 - 1e-9:
        raise RuntimeError(
            f"{circuit.name}: sifted run diverged from the ordered run "
            f"(fidelity {fidelity!r})")
    ratio = (ordered["final_state_nodes"] / sifted["final_state_nodes"]
             if sifted["final_state_nodes"] else 0.0)
    return {
        "name": circuit.name,
        "description": ("qubit-pairing worst case: natural order vs. "
                        "periodic sifting (every 2*pairs operations)"),
        "num_qubits": circuit.num_qubits,
        "num_operations": circuit.num_operations(),
        "ordered": ordered,
        "sifted": sifted,
        "node_ratio_ordered_vs_sifted": round(ratio, 3),
        "final_permutation": sifted_result.permutation,
        "fidelity_sifted_vs_ordered": fidelity,
    }


def _thrash_bench(profile: str) -> dict:
    """A/B the GC-thrash scenario: fixed threshold vs. adaptive governor."""
    rows, cols, depth, tail, seed, limit = THRASH_CONFIG[profile]
    circuit = thrash_circuit(rows, cols, depth, tail, seed)
    ungoverned, ref = _thrash_arm(circuit, MemoryGovernor(node_limit=None))
    fixed, fixed_result = _thrash_arm(
        circuit, MemoryGovernor(node_limit=limit, growth_factor=1.0))
    governed, governed_result = _thrash_arm(
        circuit, MemoryGovernor(node_limit=limit))
    speedup = (fixed["wall_seconds"] / governed["wall_seconds"]
               if governed["wall_seconds"] else 0.0)
    return {
        "name": circuit.name,
        "description": ("supremacy prefix + diagonal-gate tail, node limit "
                        "below the reachable working set"),
        "num_qubits": circuit.num_qubits,
        "num_operations": circuit.num_operations(),
        "node_limit": limit,
        "ungoverned": ungoverned,
        "fixed_threshold": fixed,
        "governed": governed,
        "speedup_governed_vs_fixed": round(speedup, 3),
        "fidelity_governed_vs_ungoverned": _fidelity(
            governed_result, ref, circuit.num_qubits),
        "fidelity_fixed_vs_ungoverned": _fidelity(
            fixed_result, ref, circuit.num_qubits),
    }


def _traced_run(circuit: QuantumCircuit, name: str, sink: JsonlTraceSink,
                gc_limit: int | None) -> dict:
    """One untimed traced run; events are tagged with the workload name."""
    engine = SimulationEngine(gc_node_limit=gc_limit or 500_000)
    events: list[dict] = []

    def trace(event: dict) -> None:
        events.append(event)
        sink({"workload": name, **event})

    engine.simulate(circuit, SequentialStrategy(), trace=trace)
    return trace_summary(events)


def _workload_entry(workload: Workload, repeats: int,
                    gc_limit: int | None, audit: bool,
                    sink: JsonlTraceSink | None = None) -> dict:
    """Measure one workload (every pathway).

    All wall-clock numbers come from ``stats.wall_time_seconds``, measured
    inside the engine around the simulation alone.
    """
    circuit = workload.build()
    fast, fast_result = _measure(circuit, use_local_apply=True,
                                 repeats=repeats, gc_limit=gc_limit,
                                 audit=audit)
    matrix, _ = _measure(circuit, use_local_apply=False,
                         repeats=repeats, gc_limit=gc_limit, audit=audit)
    iterative, it_result = _measure(
        circuit, use_local_apply=True, repeats=repeats, gc_limit=gc_limit,
        audit=audit,
        package_factory=lambda: Package(kernel="iterative",
                                        identity_edges=True))
    speedup = (matrix["wall_seconds_best"] / fast["wall_seconds_best"]
               if fast["wall_seconds_best"] else 0.0)
    speedup_it = (fast["wall_seconds_best"] / iterative["wall_seconds_best"]
                  if iterative["wall_seconds_best"] else 0.0)
    # Cross-kernel fidelity receipt: the iterative (worklist + dense-block)
    # arm must reproduce the recursive fast path's state exactly.  A kernel
    # optimisation that drifts fails the benchmark, not just a test.
    fidelity = _fidelity(it_result, fast_result, circuit.num_qubits)
    if fidelity < 1 - 1e-9:
        raise RuntimeError(
            f"{workload.name}: iterative-kernel state diverged from the "
            f"recursive fast path (fidelity {fidelity!r})")
    entry = {
        "name": workload.name,
        "description": workload.description,
        "num_qubits": circuit.num_qubits,
        "num_operations": circuit.num_operations(),
        "fast_path": fast,
        "matrix_path": matrix,
        "iterative_path": iterative,
        "speedup_fast_vs_matrix": round(speedup, 3),
        "speedup_iterative_vs_fast": round(speedup_it, 3),
        "fidelity_iterative_vs_fast": fidelity,
    }
    if sink is not None:
        entry["trace_summary"] = _traced_run(
            circuit, workload.name, sink, gc_limit)
    return entry


def run_bench(smoke: bool = False, repeats: int = 3,
              workload_names: list[str] | None = None,
              gc_limit: int | None = None,
              trace_path: str | None = None,
              audit: bool = False) -> dict:
    """Run the kernel benchmark suite and return the report dict.

    ``gc_limit`` overrides the engines' GC node limit (exercises the memory
    governor under a tight budget).  ``trace_path`` adds one untimed traced
    run per workload, appending tagged events to that JSONL file and a
    ``trace_summary`` per workload to the report.  ``audit`` runs the DD
    integrity auditor (untimed) on the final package of each measured arm
    and aborts the benchmark on any violation.  Workloads run one after
    another in suite order, so no two timings share the host's cores.
    """
    workloads = SMOKE_WORKLOADS if smoke else WORKLOADS
    if workload_names:
        selected = [w for w in workloads if w.name in workload_names]
        unknown = set(workload_names) - {w.name for w in selected}
        if unknown:
            raise KeyError(f"unknown workload(s): {sorted(unknown)}")
        workloads = selected
    report = {
        "schema": SCHEMA_VERSION,
        "profile": "smoke" if smoke else "full",
        "repeats": repeats,
        "gc_limit": gc_limit,
        "audited": audit,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workloads": [],
    }
    sink = JsonlTraceSink(trace_path) if trace_path else None
    try:
        for workload in workloads:
            report["workloads"].append(_workload_entry(
                workload, repeats, gc_limit, audit, sink))
    finally:
        if sink is not None:
            sink.close()
    if trace_path:
        report["trace_file"] = trace_path
    report["thrash"] = _thrash_bench("smoke" if smoke else "full")
    report["reorder"] = _reorder_bench("smoke" if smoke else "full")
    return report


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Reproducible DD-kernel benchmark (fixed seeds).")
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads, suitable for CI (<60s)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per workload/pathway (default 3)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT}; "
                             "'-' prints to stdout)")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="run only this workload (repeatable)")
    parser.add_argument("--gc-limit", type=int, default=None,
                        help="tight GC node limit for all measured engines "
                             "(exercises the memory governor)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also write a per-step JSONL trace of one "
                             "untimed run per workload to PATH")
    parser.add_argument("--audit", action="store_true",
                        help="run the DD integrity auditor (untimed) after "
                             "each measured arm; abort on any violation")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="after measuring, compare against this baseline "
                             "report and exit non-zero on any wall-clock "
                             "regression beyond the threshold")
    parser.add_argument("--compare-threshold", type=float, default=25.0,
                        metavar="PCT",
                        help="regression threshold in percent for --compare "
                             "(default 25)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.gc_limit is not None and args.gc_limit < 1:
        parser.error("--gc-limit must be >= 1")
    if args.compare_threshold < 0:
        parser.error("--compare-threshold must be >= 0")
    baseline = None
    if args.compare:
        from .bench_compare import load_report
        try:
            # Load before the (minutes-long) measurement so a bad path or
            # malformed baseline fails fast.
            baseline = load_report(args.compare)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            parser.error(f"--compare: {exc}")
    try:
        report = run_bench(smoke=args.smoke, repeats=args.repeats,
                           workload_names=args.workloads,
                           gc_limit=args.gc_limit, trace_path=args.trace,
                           audit=args.audit)
    except KeyError as exc:
        parser.error(str(exc).strip('"'))
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        for w in report["workloads"]:
            print(f"{w['name']:>18}: fast {w['fast_path']['wall_seconds_best']:.4f}s"
                  f"  matrix {w['matrix_path']['wall_seconds_best']:.4f}s"
                  f"  iter {w['iterative_path']['wall_seconds_best']:.4f}s"
                  f"  (iter x{w['speedup_iterative_vs_fast']:.2f} vs fast)")
        thrash = report["thrash"]
        print(f"{'thrash':>18}: fixed "
              f"{thrash['fixed_threshold']['wall_seconds']:.4f}s"
              f"  governed {thrash['governed']['wall_seconds']:.4f}s"
              f"  (x{thrash['speedup_governed_vs_fixed']:.2f}, "
              f"fidelity {thrash['fidelity_governed_vs_ungoverned']:.12f})")
        reorder = report["reorder"]
        print(f"{'reorder':>18}: ordered "
              f"{reorder['ordered']['final_state_nodes']} nodes"
              f"  sifted {reorder['sifted']['final_state_nodes']} nodes"
              f"  (x{reorder['node_ratio_ordered_vs_sifted']:.2f}, "
              f"fidelity {reorder['fidelity_sifted_vs_ordered']:.12f})")
        if args.trace:
            print(f"trace: {args.trace}")
        print(f"wrote {args.output}")
    if baseline is not None:
        from .bench_compare import compare_reports, format_comparison
        comparison = compare_reports(baseline, report,
                                     threshold_pct=args.compare_threshold)
        print(format_comparison(comparison))
        if not comparison["passed"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
