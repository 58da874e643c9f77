"""Experiment runners regenerating every artifact of the paper's evaluation.

* :func:`run_fig8`  -- Fig. 8: speed-up of *k-operations* over the
  sequential baseline as a function of ``k``, per benchmark and on average.
* :func:`run_fig9`  -- Fig. 9: the same for *max-size* over ``s_max``.
* :func:`run_table1` -- Table I: ``t_sota`` / ``t_general`` /
  ``t_DD-repeating`` for the Grover benchmarks.
* :func:`run_table2` -- Table II: ``t_sota`` / ``t_general`` /
  ``t_DD-construct`` for the Shor benchmarks.
* :func:`run_fig5_study` -- the Fig. 5 observation measured: DD sizes and
  multiplication effort with and without combining two operations.
* :func:`run_schedule_report` -- the machine-independent multiplication
  schedule (Eq. 1 / Eq. 2 accounting) of every instance x strategy cell;
  bit-identical across runs, processes, and ``jobs`` counts.

Absolute times differ from the paper (a pure-Python DD package on scaled
instances vs. the authors' C++ package); the reproduced claims are the
*shapes*: who wins, roughly by how much, and where the extremes lose.

Every runner takes ``jobs=``: cells (instance x strategy x repetition) are
executed through :class:`~repro.simulation.sweep.SweepRunner`, serially for
``jobs=1`` and on that many shared-nothing worker processes otherwise.
Each cell constructs its own DD package either way, and rows are assembled
from the merged results in an explicit sorted order -- never in completion
order -- so serial and parallel runs report the same rows in the same
positions (wall-clock *values* jitter run-to-run, as they always did; the
schedule report contains no timing and is byte-identical).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..dd.package import Package
from ..simulation.engine import SimulationEngine
from ..simulation.statistics import SimulationStatistics
from ..simulation.strategies import (KOperationsStrategy, MaxSizeStrategy,
                                     RepeatingBlockStrategy)
from ..simulation.sweep import SweepRunner, SweepTask, task_seed
from .instances import (BenchmarkInstance, default_suite, grover_suite,
                        instance_task_spec, quick_suite, shor_suite)

__all__ = ["ExperimentResult", "ExperimentRow", "run_fig8", "run_fig9",
           "run_table1", "run_table2", "run_fig5_study", "run_reorder_study",
           "run_schedule_report", "DEFAULT_K_VALUES", "DEFAULT_SMAX_VALUES",
           "GENERAL_STRATEGY_CANDIDATES", "SCHEDULE_STRATEGIES"]

#: parameter sweeps matching the x-axes of Fig. 8 / Fig. 9
DEFAULT_K_VALUES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
DEFAULT_SMAX_VALUES = (1, 4, 16, 64, 256, 1024, 4096)

#: the small strategy sweep whose best result is reported as ``t_general``
GENERAL_STRATEGY_CANDIDATES = (
    KOperationsStrategy(4),
    KOperationsStrategy(16),
    MaxSizeStrategy(64),
    MaxSizeStrategy(256),
)

ExperimentRow = dict


@dataclass
class ExperimentResult:
    """A regenerated table/figure: headers plus one dict per row."""

    experiment: str
    title: str
    headers: list[str]
    rows: list[ExperimentRow] = field(default_factory=list)
    notes: str = ""

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]

    def sort_rows(self, *columns: str,
                  tail: tuple[str, str] | None = None) -> None:
        """Put rows in an explicit deterministic order.

        Row order used to be an accident of execution order; with cells
        possibly completing on different workers it must be a property of
        the *data*, so serial and parallel runs (and re-runs) of the same
        experiment render byte-identical reports.  Rows sort by the given
        ``columns`` in turn; ``tail=(column, value)`` pins rows whose
        ``column`` equals ``value`` (e.g. the ``"average"`` summary rows)
        after all others that share the preceding key columns.
        """
        def key(row: ExperimentRow) -> tuple:
            parts: list = []
            for column in columns:
                value = row.get(column)
                if tail is not None and column == tail[0]:
                    parts.append(1 if value == tail[1] else 0)
                parts.append(value)
            return tuple(parts)

        self.rows.sort(key=key)


def _suite(profile: str) -> list[BenchmarkInstance]:
    return quick_suite() if profile == "quick" else default_suite()


#: best-of-N repetitions for the table experiments.  Table entries are
#: single numbers the reproduction is judged by; taking the minimum over a
#: couple of runs suppresses the scheduler jitter that dominates sub-100 ms
#: measurements (the figures' sweeps stay single-run: with ten parameter
#: points the shape is already robust).
TABLE_REPEATS = 2

#: the strategy grid enumerated by :func:`run_schedule_report`
SCHEDULE_STRATEGIES = ("sequential", "k=2", "k=4", "k=16", "smax=64",
                       "smax=256", "adaptive", "repeating:sequential")


def _cell(instance: BenchmarkInstance, spec: str,
          repetition: int = 0) -> SweepTask:
    """One experiment cell as a picklable sweep task.

    The paper-artifact experiments compare Eq. 1 against Eq. 2 on the
    paper's cost model: explicit gate DDs and one matrix-vector
    multiplication per gate.  The local-gate fast path is therefore
    disabled here (perfbench's sota arms time it instead).
    """
    return SweepTask(name=instance.name, strategy=spec,
                     repetition=repetition,
                     metadata=instance_task_spec(instance),
                     use_local_apply=False,
                     seed=task_seed(0, instance.name, spec, repetition))


def _construct_cell(instance: BenchmarkInstance,
                    repetition: int = 0) -> SweepTask:
    """The DD-construct realisation of a Shor instance (Table II)."""
    return SweepTask(name=instance.name, strategy="dd-construct",
                     repetition=repetition, kind="construct",
                     metadata=dict(instance.metadata),
                     seed=task_seed(0, instance.name, "dd-construct",
                                    repetition))


def _execute(tasks: list[SweepTask],
             jobs: int) -> dict[tuple, SimulationStatistics]:
    """Run experiment cells through the sweep runner; fail loudly.

    The experiment runners regenerate paper artifacts, so a failed cell is
    not survivable the way it is for an exploratory ``repro sweep`` -- a
    table with holes is not the paper's table.  Partial-failure tolerance
    lives in :class:`SweepRunner` / the ``sweep`` CLI instead.
    """
    report = SweepRunner(jobs=jobs).run(tasks)
    failed = report.failed_cells
    if failed:
        first = failed[0]
        raise RuntimeError(
            f"{len(failed)} experiment cell(s) failed; first: "
            f"{first.key()} -> {first.error}")
    return report.stats_by_key()


def _best_of(stats: dict[tuple, SimulationStatistics], name: str,
             spec: str, repeats: int = TABLE_REPEATS) -> SimulationStatistics:
    """Best-of-N lookup over a cell's repetitions (min wall time)."""
    return min((stats[(name, spec, rep)] for rep in range(repeats)),
               key=lambda s: s.wall_time_seconds)


# ----------------------------------------------------------------------
# Fig. 8 and Fig. 9: the general strategies
# ----------------------------------------------------------------------

def _run_parameter_sweep(experiment: str, title: str, parameter_name: str,
                         values, make_strategy, profile: str,
                         instances, jobs: int = 1) -> ExperimentResult:
    instances = instances if instances is not None else _suite(profile)
    specs = {value: make_strategy(value).spec() for value in values}
    tasks = [_cell(instance, spec)
             for instance in instances
             for spec in ["sequential", *specs.values()]]
    stats = _execute(tasks, jobs)
    result = ExperimentResult(
        experiment=experiment, title=title,
        headers=["benchmark", parameter_name, "t_sota", "t_strategy",
                 "speedup", "recursion_speedup"])
    for value in values:
        speedups = []
        for instance in instances:
            base = stats[(instance.name, "sequential", 0)]
            cell = stats[(instance.name, specs[value], 0)]
            speedup = (base.wall_time_seconds / cell.wall_time_seconds
                       if cell.wall_time_seconds > 0 else float("inf"))
            base_rec = base.counters.total_recursions()
            rec = cell.counters.total_recursions()
            rec_speedup = base_rec / rec if rec else float("inf")
            speedups.append(speedup)
            result.rows.append({
                "benchmark": instance.name,
                parameter_name: value,
                "t_sota": round(base.wall_time_seconds, 4),
                "t_strategy": round(cell.wall_time_seconds, 4),
                "speedup": round(speedup, 3),
                "recursion_speedup": round(rec_speedup, 3),
            })
        result.rows.append({
            "benchmark": "average",
            parameter_name: value,
            "t_sota": None,
            "t_strategy": None,
            "speedup": round(sum(speedups) / len(speedups), 3),
            "recursion_speedup": None,
        })
    result.sort_rows(parameter_name, "benchmark",
                     tail=("benchmark", "average"))
    result.notes = ("speedup = t_sota / t_strategy; the 'average' rows are "
                    "the line drawn in the paper's figure")
    return result


def run_fig8(profile: str = "quick", k_values=DEFAULT_K_VALUES,
             instances=None, jobs: int = 1) -> ExperimentResult:
    """Fig. 8: speed-up of the *k-operations* strategy over ``k``."""
    return _run_parameter_sweep(
        "fig8", "Fig. 8 -- speed-up for strategy k-operations", "k",
        k_values, KOperationsStrategy, profile, instances, jobs=jobs)


def run_fig9(profile: str = "quick", smax_values=DEFAULT_SMAX_VALUES,
             instances=None, jobs: int = 1) -> ExperimentResult:
    """Fig. 9: speed-up of the *max-size* strategy over ``s_max``."""
    return _run_parameter_sweep(
        "fig9", "Fig. 9 -- speed-up for strategy max-size", "s_max",
        smax_values, MaxSizeStrategy, profile, instances, jobs=jobs)


# ----------------------------------------------------------------------
# Table I and Table II: the knowledge-based strategies
# ----------------------------------------------------------------------

def _table_tasks(instances, knowledge_specs) -> list[SweepTask]:
    """The table experiments' cell grid, ``TABLE_REPEATS`` deep."""
    specs = (["sequential"]
             + [s.spec() for s in GENERAL_STRATEGY_CANDIDATES]
             + list(knowledge_specs))
    return [_cell(instance, spec, rep)
            for instance in instances
            for spec in specs
            for rep in range(TABLE_REPEATS)]


def _best_general(stats: dict[tuple, SimulationStatistics],
                  name: str) -> tuple[str, float]:
    """``t_general``: the best of the small general-strategy sweep.

    Ties keep the first candidate in ``GENERAL_STRATEGY_CANDIDATES`` order,
    matching the old strict-``<`` scan.
    """
    best_name = ""
    best_time = float("inf")
    for strategy in GENERAL_STRATEGY_CANDIDATES:
        seconds = _best_of(stats, name, strategy.spec()).wall_time_seconds
        if seconds < best_time:
            best_time = seconds
            best_name = strategy.describe()
    return best_name, best_time


def run_table1(profile: str = "quick", instances=None,
               jobs: int = 1) -> ExperimentResult:
    """Table I: Grover benchmarks under sota / general / DD-repeating."""
    instances = instances if instances is not None else grover_suite(profile)
    repeating_spec = RepeatingBlockStrategy().spec()
    stats = _execute(_table_tasks(instances, [repeating_spec]), jobs)
    result = ExperimentResult(
        experiment="table1",
        title="Table I -- results for grover benchmarks "
              "(strategy DD-repeating)",
        headers=["benchmark", "t_sota", "t_general", "t_dd_repeating",
                 "general_strategy", "speedup_vs_general"])
    for instance in instances:
        sota = _best_of(stats, instance.name, "sequential")
        general_name, general_time = _best_general(stats, instance.name)
        repeating = _best_of(stats, instance.name, repeating_spec)
        t_rep = repeating.wall_time_seconds
        result.rows.append({
            "benchmark": instance.name,
            "t_sota": round(sota.wall_time_seconds, 4),
            "t_general": round(general_time, 4),
            "t_dd_repeating": round(t_rep, 4),
            "general_strategy": general_name,
            "speedup_vs_general": round(general_time / t_rep, 2)
            if t_rep > 0 else float("inf"),
        })
    result.sort_rows("benchmark")
    result.notes = ("t_general is the best of a small k/s_max sweep, as in "
                    "the paper; DD-repeating combines each Grover iteration "
                    "once and re-uses the matrix DD")
    return result


def run_table2(profile: str = "quick", instances=None,
               jobs: int = 1) -> ExperimentResult:
    """Table II: Shor benchmarks under sota / general / DD-construct."""
    instances = instances if instances is not None else shor_suite(profile)
    tasks = _table_tasks(instances, [])
    tasks += [_construct_cell(instance, rep)
              for instance in instances for rep in range(TABLE_REPEATS)]
    stats = _execute(tasks, jobs)
    result = ExperimentResult(
        experiment="table2",
        title="Table II -- results for shor benchmarks "
              "(strategy DD-construct)",
        headers=["benchmark", "t_sota", "t_general", "t_dd_construct",
                 "general_strategy", "speedup_vs_general"])
    for instance in instances:
        sota = _best_of(stats, instance.name, "sequential")
        general_name, general_time = _best_general(stats, instance.name)
        construct = _best_of(stats, instance.name, "dd-construct")
        t_con = construct.wall_time_seconds
        result.rows.append({
            "benchmark": instance.name,
            "t_sota": round(sota.wall_time_seconds, 4),
            "t_general": round(general_time, 4),
            "t_dd_construct": round(t_con, 4),
            "general_strategy": general_name,
            "speedup_vs_general": round(general_time / t_con, 1)
            if t_con > 0 else float("inf"),
        })
    result.sort_rows("benchmark")
    result.notes = ("DD-construct builds the modular-multiplication oracles "
                    "directly as permutation DDs on n+1 qubits instead of "
                    "simulating the 2n+3-qubit Beauregard decomposition")
    return result


# ----------------------------------------------------------------------
# The deterministic schedule report
# ----------------------------------------------------------------------

def run_schedule_report(profile: str = "quick", instances=None,
                        strategies=SCHEDULE_STRATEGIES,
                        jobs: int = 1) -> ExperimentResult:
    """The multiplication schedule of every instance x strategy cell.

    Unlike the timing experiments, every reported column is determined by
    the strategy's schedule and the canonical DD structure alone --
    Eq. 1 / Eq. 2 multiplication counts, reused-block applications, and DD
    node sizes.  The report is therefore bit-identical across runs,
    processes, machines, and ``jobs`` counts, which makes it the artifact
    CI diffs between serial and parallel execution.
    """
    instances = instances if instances is not None else _suite(profile)
    tasks = [_cell(instance, spec)
             for instance in instances for spec in strategies]
    stats = _execute(tasks, jobs)
    result = ExperimentResult(
        experiment="schedule",
        title="Multiplication schedules (machine-independent)",
        headers=["benchmark", "strategy", "ops", "mxv", "mxm",
                 "reused_blocks", "final_nodes", "peak_state_nodes",
                 "peak_matrix_nodes"])
    for instance in instances:
        for spec in strategies:
            cell = stats[(instance.name, spec, 0)]
            result.rows.append({
                "benchmark": instance.name,
                "strategy": spec,
                "ops": cell.operations_applied,
                "mxv": cell.matrix_vector_mults,
                "mxm": cell.matrix_matrix_mults,
                "reused_blocks": cell.reused_block_applications,
                "final_nodes": cell.final_state_nodes,
                "peak_state_nodes": cell.peak_state_nodes,
                "peak_matrix_nodes": cell.peak_matrix_nodes,
            })
    result.sort_rows("benchmark", "strategy")
    result.notes = ("every column is schedule-determined: sequential runs "
                    "|G| MxV (Eq. 1); k-operations runs ceil(|G|/k) MxV + "
                    "|G| - ceil(|G|/k) MxM (Eq. 2); wall-clock and "
                    "recursion counters are deliberately excluded because "
                    "they vary across processes")
    return result


# ----------------------------------------------------------------------
# Fig. 5: the size observation behind the whole idea
# ----------------------------------------------------------------------

def run_fig5_study(rows: int = 3, cols: int = 3, depth: int = 8,
                   seed: int = 1) -> ExperimentResult:
    """Measure the Fig. 5 effect on a supremacy-style circuit.

    Finds the point of the simulation where the intermediate state DD is
    largest, then compares computing ``v_{i+2} = M_{i+2} (M_{i+1} v_i)``
    (Eq. 1) against ``v_{i+2} = (M_{i+2} M_{i+1}) v_i`` (Eq. 2) -- in DD
    sizes and in recursive multiplication/addition calls.
    """
    from ..algorithms.supremacy import supremacy_circuit
    from ..dd.gate_building import build_gate_dd

    circuit = supremacy_circuit(rows, cols, depth, seed).circuit
    operations = list(circuit.operations())
    if len(operations) < 3:
        raise ValueError("circuit too shallow for the Fig. 5 study")

    def replay(package: Package, upto: int):
        engine = SimulationEngine(package)
        state = package.basis_state(circuit.num_qubits, 0)
        for op in operations[:upto]:
            state = package.multiply_matrix_vector(
                engine.gate_dd(op, circuit.num_qubits), state)
        return state

    # Pass 1: find the step with the largest intermediate state DD.
    package = Package()
    engine = SimulationEngine(package)
    state = package.basis_state(circuit.num_qubits, 0)
    sizes = []
    for op in operations:
        state = package.multiply_matrix_vector(
            engine.gate_dd(op, circuit.num_qubits), state)
        sizes.append(package.count_nodes(state))
    split = max(range(len(sizes) - 2), key=sizes.__getitem__)

    result = ExperimentResult(
        experiment="fig5",
        title="Fig. 5 -- computational effect of rearranging parentheses",
        headers=["quantity", "eq1 (MxV twice)", "eq2 (MxM first)"])

    def measure(order: str) -> dict:
        package = Package()
        engine = SimulationEngine(package)
        v_i = replay(package, split + 1)
        m1 = engine.gate_dd(operations[split + 1], circuit.num_qubits)
        m2 = engine.gate_dd(operations[split + 2], circuit.num_qubits)
        before = package.counters.snapshot()
        started = time.perf_counter()
        if order == "eq1":
            v_mid = package.multiply_matrix_vector(m1, v_i)
            final = package.multiply_matrix_vector(m2, v_mid)
            mid_nodes = package.count_nodes(v_mid)
        else:
            combined = package.multiply_matrix_matrix(m2, m1)
            final = package.multiply_matrix_vector(combined, v_i)
            mid_nodes = package.count_nodes(combined)
        elapsed = time.perf_counter() - started
        delta = package.counters.delta(before)
        return {
            "v_i_nodes": package.count_nodes(v_i),
            "gate_nodes": (package.count_nodes(m1), package.count_nodes(m2)),
            "intermediate_nodes": mid_nodes,
            "final_nodes": package.count_nodes(final),
            "recursions": delta.total_recursions(),
            "time": elapsed,
        }

    eq1 = measure("eq1")
    eq2 = measure("eq2")
    for key, label in [
            ("v_i_nodes", "state DD |v_i| (nodes)"),
            ("gate_nodes", "gate DDs |M_i+1|,|M_i+2| (nodes)"),
            ("intermediate_nodes", "intermediate DD (nodes)"),
            ("final_nodes", "final state DD (nodes)"),
            ("recursions", "recursive mult/add calls"),
            ("time", "wall time (s)")]:
        result.rows.append({"quantity": label,
                            "eq1 (MxV twice)": eq1[key],
                            "eq2 (MxM first)": eq2[key]})
    result.notes = (f"split chosen at gate {split + 1}/{len(operations)} "
                    "(largest intermediate state DD); eq2's intermediate is "
                    "the combined matrix, eq1's is the intermediate state")
    return result


# ----------------------------------------------------------------------
# The variable-ordering study: ordered vs. sifted node counts
# ----------------------------------------------------------------------

def run_reorder_study(pair_counts=(2, 3, 4, 5, 6),
                      tail_layers: int = 2) -> ExperimentResult:
    """Ordered-vs-sifted DD sizes on the qubit-pairing worst case.

    The Fig. 5 observation was that parenthesisation changes intermediate
    DD sizes; this study measures the same effect for *variable order*:
    the pairing state ``sum_x |x>|x>`` (qubit ``i`` entangled with
    ``i + n/2``) has an exponential state DD under the natural order and a
    linear one once sifting moves the paired qubits adjacent.  Each row
    compares one size simulated twice -- as-is and with an ``every=K``
    reorder policy that sifts right after the entangling stage -- on the
    exact node counts (no wall-clock; the rows are machine-independent).
    """
    from ..algorithms.pairing import pairing_circuit
    from ..simulation.reorder import ReorderPolicy

    result = ExperimentResult(
        experiment="reorder",
        title="Variable-ordering study -- ordered vs. sifted state DDs "
              "(pairing worst case)",
        headers=["pairs", "qubits", "ordered_peak", "ordered_final",
                 "sifted_peak", "sifted_final", "reorders",
                 "final_node_ratio"])
    for pairs in pair_counts:
        circuit = pairing_circuit(pairs, tail_layers=tail_layers).circuit
        ordered = SimulationEngine(package=Package()).simulate(circuit)
        # Sift once the entangling stage is complete (2*pairs operations),
        # so the tail runs under the improved order; min_nodes=2 keeps the
        # smallest sizes in the study instead of skipping them as trivial.
        policy = ReorderPolicy(mode="every", every=2 * pairs, min_nodes=2)
        sifted = SimulationEngine(package=Package()).simulate(
            circuit, reorder=policy)
        o_stats, s_stats = ordered.statistics, sifted.statistics
        ratio = (o_stats.final_state_nodes / s_stats.final_state_nodes
                 if s_stats.final_state_nodes else float("inf"))
        result.rows.append({
            "pairs": pairs,
            "qubits": circuit.num_qubits,
            "ordered_peak": o_stats.peak_state_nodes,
            "ordered_final": o_stats.final_state_nodes,
            "sifted_peak": s_stats.peak_state_nodes,
            "sifted_final": s_stats.final_state_nodes,
            "reorders": s_stats.reorders,
            "final_node_ratio": round(ratio, 2),
        })
    result.sort_rows("pairs")
    result.notes = ("ordered runs use the natural variable order (final "
                    "state ~2^pairs nodes); sifted runs reorder mid-run "
                    "with sift() and finish linear in pairs; every column "
                    "is an exact node count, machine-independent")
    return result
