"""Command-line interface: simulate, inspect and compare QASM circuits.

Examples::

    python -m repro simulate circuit.qasm --strategy smax=64 --shots 100
    python -m repro simulate circuit.qasm --checkpoint run.ckpt \\
        --checkpoint-every 500 --max-nodes 2000000 --degrade
    python -m repro resume run.ckpt circuit.qasm
    python -m repro audit run.ckpt
    python -m repro info circuit.qasm
    python -m repro equiv circuit_a.qasm circuit_b.qasm
    python -m repro factor 15
    python -m repro experiments --profile quick --jobs 4
    python -m repro experiments write-experiments --profile default
    python -m repro sweep spec.json --jobs 4 --output report.json
    python -m repro jobs submit ./store --instance grover_8 --strategy k=4
    python -m repro jobs run ./store --workers 2 --trace store.jsonl
    python -m repro jobs status ./store
    python -m repro jobs retry ./store j0000-grover_8
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .circuit import from_qasm
from .simulation import (DegradationPolicy, MemoryBudgetExceeded,
                         MemoryGovernor, SimulationEngine, strategy_from_spec)
from .simulation.memory import DEFAULT_NODE_LIMIT
from .verification import check_equivalence


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return from_qasm(handle.read())


def _make_engine(args) -> SimulationEngine:
    governor = MemoryGovernor(node_limit=args.gc_limit,
                              max_nodes=args.max_nodes)
    return SimulationEngine(governor=governor)


def _make_policy(args) -> DegradationPolicy | None:
    if not args.degrade:
        return None
    return DegradationPolicy(fidelity_floor=args.fidelity_floor)


def _resilience_kwargs(args, policy) -> dict:
    return {
        "checkpoint_path": args.checkpoint,
        "checkpoint_every": args.checkpoint_every,
        "degradation": policy,
        "audit_every": args.audit_every,
        "reorder": args.reorder,
    }


def _print_result(args, circuit, engine, result, trace_sink,
                  policy=None) -> None:
    stats = result.statistics
    print(f"circuit   : {args.circuit} ({circuit.num_qubits} qubits, "
          f"{circuit.num_operations()} operations)")
    if stats.backend:
        print(f"backend   : {stats.backend}")
    if stats.backend_selection:
        print(f"selected  : {stats.backend_selection.get('reason', '')}")
    print(f"strategy  : {stats.strategy}")
    print(f"mults     : {stats.matrix_vector_mults} matrix-vector, "
          f"{stats.matrix_matrix_mults} matrix-matrix")
    if stats.final_state_nodes or stats.peak_state_nodes:
        print(f"state DD  : {stats.final_state_nodes} nodes "
              f"(peak {stats.peak_state_nodes})")
    if stats.peak_dense_amps:
        print(f"dense     : peak block {stats.peak_dense_amps} amplitudes")
    if stats.gc.collections:
        limit = f" (limit now {engine.governor.limit})" \
            if engine is not None else ""
        print(f"GC        : {stats.gc.collections} collections, "
              f"{stats.gc.nodes_freed} nodes freed, "
              f"{stats.gc.pause_seconds:.3f}s paused{limit}")
    if stats.checkpoints_written and args.checkpoint:
        print(f"checkpoint: {args.checkpoint} "
              f"({stats.checkpoints_written} written)")
    if stats.degradation_actions:
        kinds: dict[str, int] = {}
        for action in stats.degradation_actions:
            kinds[action.get("action", "?")] = \
                kinds.get(action.get("action", "?"), 0) + 1
        summary = ", ".join(f"{count}x {kind}"
                            for kind, count in sorted(kinds.items()))
        print(f"degraded  : {summary} "
              f"(fidelity {stats.cumulative_fidelity:.6f})")
    if stats.reorders:
        order = "identity" if result.permutation is None \
            else " ".join(str(level) for level in result.permutation)
        print(f"reorders  : {stats.reorders} sift(s), "
              f"{stats.reorder_nodes_saved} state nodes saved "
              f"(final order: {order})")
    if stats.audits_run:
        print(f"audits    : {stats.audits_run} passed")
    if args.trace:
        print(f"trace     : {args.trace} "
              f"({trace_sink.events_written} events)")
    print(f"time      : {stats.wall_time_seconds:.3f}s")
    if args.amplitudes:
        print("\nnon-negligible amplitudes:")
        shown = 0
        for index in range(1 << circuit.num_qubits):
            amplitude = result.amplitude(index)
            if abs(amplitude) ** 2 >= args.threshold:
                print(f"  |{index:0{circuit.num_qubits}b}>  "
                      f"{amplitude.real:+.6f}{amplitude.imag:+.6f}j   "
                      f"p={abs(amplitude) ** 2:.6f}")
                shown += 1
                if shown >= args.limit:
                    print("  ... (limit reached)")
                    break
    if args.shots:
        # result.sample remaps outcomes to logical qubit order when the
        # run reordered its variables mid-flight.
        counts = result.sample(args.shots, Random(args.seed))
        print(f"\n{args.shots} shots:")
        for index, count in sorted(counts.items(),
                                   key=lambda item: -item[1])[:args.limit]:
            print(f"  |{index:0{circuit.num_qubits}b}>  x{count}")


def _run_and_report(args, circuit, run) -> int:
    """Shared driver for ``simulate`` and ``resume``."""
    from .simulation import reorder_from_spec
    try:
        # fail fast on a malformed --reorder spec, before any simulation
        reorder_from_spec(args.reorder)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = _make_engine(args)
    policy = _make_policy(args)
    trace_sink = None
    if args.trace:
        from .simulation import JsonlTraceSink
        trace_sink = JsonlTraceSink(args.trace)
    try:
        result = run(engine, policy, trace_sink)
    except MemoryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.checkpoint_path is not None:
            print(f"checkpoint: {exc.checkpoint_path} "
                  f"(resume with: python -m repro resume "
                  f"{exc.checkpoint_path} <circuit.qasm>)", file=sys.stderr)
        return 2
    finally:
        if trace_sink is not None:
            trace_sink.close()
    _print_result(args, circuit, engine, result, trace_sink, policy)
    return 0


def _cmd_simulate(args) -> int:
    if args.backend is not None:
        return _cmd_simulate_backend(args)
    circuit = _load(args.circuit)
    strategy = strategy_from_spec(args.strategy)

    def run(engine, policy, trace_sink):
        initial = engine.initial_state(circuit.num_qubits, args.initial)
        return engine.simulate(circuit, strategy, initial_state=initial,
                               trace=trace_sink,
                               **_resilience_kwargs(args, policy))

    return _run_and_report(args, circuit, run)


def _cmd_simulate_backend(args) -> int:
    """``simulate --backend NAME|auto``: dispatch through the registry.

    ``auto`` scores the circuit with the cheap predictors and records the
    decision (chosen backend, feature vector, per-backend scores) into
    the run's statistics; an explicit name always beats ``auto``.
    Requested features the chosen backend lacks (reordering, checkpoints,
    strategies) fail up front with the capability error, not mid-run.
    """
    from .backends import resolve_backend
    circuit = _load(args.circuit)
    # only forward engine budgets the user actually set -- array backends
    # take no budget options, and the DD default is the same limit anyway
    options = {}
    if args.gc_limit != DEFAULT_NODE_LIMIT:
        options["gc_limit"] = args.gc_limit
    if args.max_nodes is not None:
        options["max_nodes"] = args.max_nodes
    trace_sink = None
    try:
        backend, selection = resolve_backend(args.backend, circuit,
                                             **options)
        policy = _make_policy(args)
        run_options = {key: value for key, value in
                       _resilience_kwargs(args, policy).items()
                       if value is not None}
        if args.trace:
            from .simulation import JsonlTraceSink
            trace_sink = JsonlTraceSink(args.trace)
            run_options["trace"] = trace_sink
        result = backend.run(circuit, strategy=args.strategy,
                             initial_index=args.initial, **run_options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if trace_sink is not None:
            trace_sink.close()
    if selection is not None:
        result.statistics.backend_selection = selection.as_dict()
    _print_result(args, circuit, None, result, trace_sink)
    return 0


def _cmd_resume(args) -> int:
    from .simulation import load_checkpoint
    circuit = _load(args.circuit)
    try:
        checkpoint = load_checkpoint(args.checkpoint_file)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"resuming  : {args.checkpoint_file} at operation "
          f"{checkpoint.op_index}/{checkpoint.total_ops} "
          f"(reason: {checkpoint.reason})")

    def run(engine, policy, trace_sink):
        return engine.resume(checkpoint, circuit, trace=trace_sink,
                             **_resilience_kwargs(args, policy))

    return _run_and_report(args, circuit, run)


def _cmd_audit(args) -> int:
    """Audit DD integrity: of a checkpoint file, or of a live run."""
    from .dd import DDIntegrityError
    from .dd.package import Package
    from .dd.serialization import deserialize_dd
    from .simulation import load_checkpoint

    target = args.target
    is_checkpoint = args.kind == "checkpoint"
    if args.kind == "auto":
        try:
            with open(target, encoding="utf-8") as handle:
                head = json.load(handle)
            is_checkpoint = isinstance(head, dict) and "version" in head \
                and "state" in head
        except (json.JSONDecodeError, UnicodeDecodeError):
            is_checkpoint = False
    if is_checkpoint:
        try:
            checkpoint = load_checkpoint(target)
            package = Package()
            roots = [deserialize_dd(package, checkpoint.state)]
            if checkpoint.pending is not None:
                roots.append(deserialize_dd(package, checkpoint.pending))
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        violations = package.check_invariants(roots)
        label = (f"checkpoint {target} (op "
                 f"{checkpoint.op_index}/{checkpoint.total_ops})")
    else:
        circuit = _load(target)
        engine = SimulationEngine()
        try:
            result = engine.simulate(circuit,
                                     strategy_from_spec(args.strategy),
                                     audit_every=args.audit_every)
        except DDIntegrityError as exc:
            print(f"AUDIT FAILED mid-run: {exc}", file=sys.stderr)
            return 1
        violations = engine.package.check_invariants([result.state])
        label = (f"circuit {target} "
                 f"({result.statistics.audits_run} in-run audits)")
    if violations:
        print(f"AUDIT FAILED: {label}: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print(f"AUDIT OK: {label}: no violations")
    return 0


def _cmd_info(args) -> int:
    circuit = _load(args.circuit)
    print(f"qubits     : {circuit.num_qubits}")
    print(f"operations : {circuit.num_operations()}")
    print(f"depth      : {circuit.depth()}")
    print("gate counts:")
    for gate, count in circuit.count_gates().items():
        print(f"  {gate:>6}: {count}")
    return 0


def _cmd_equiv(args) -> int:
    circuit_a = _load(args.circuit_a)
    circuit_b = _load(args.circuit_b)
    result = check_equivalence(circuit_a, circuit_b, method=args.method)
    if result.equivalent:
        phase = result.global_phase
        note = "" if abs(phase - 1) < 1e-9 \
            else f" (up to global phase {phase:.4f})"
        print(f"EQUIVALENT{note}")
        return 0
    print("NOT equivalent")
    return 1


def _cmd_factor(args) -> int:
    from .algorithms import factor

    outcome = factor(args.number, mode=args.mode, seed=args.seed)
    if outcome.classical_shortcut:
        print(f"{args.number} = {outcome.factors[0]} x {outcome.factors[1]} "
              f"(classical shortcut: {outcome.classical_shortcut})")
        return 0
    if outcome.succeeded:
        attempts = len(outcome.attempts)
        print(f"{args.number} = {outcome.factors[0]} x {outcome.factors[1]} "
              f"({attempts} order-finding run(s))")
        return 0
    print(f"failed to factor {args.number} "
          f"(after {len(outcome.attempts)} attempts)")
    return 1


_EXPERIMENTS = ("schedule", "fig5", "fig8", "fig9", "table1", "table2",
                "reorder", "scaling")


def _cmd_experiments(args) -> int:
    """Regenerate a paper artifact, optionally on parallel workers.

    The default artifact is the *schedule report*: every reported column
    is schedule-determined (no wall-clock), so the output is byte-identical
    across runs and ``--jobs`` counts -- CI diffs serial against parallel
    execution of exactly this command.  ``all`` prints every artifact;
    ``write-experiments`` runs the paper experiments and rewrites
    ``--output`` (EXPERIMENTS.md).
    """
    from .analysis.experiments import (run_fig5_study, run_fig8, run_fig9,
                                       run_reorder_study,
                                       run_schedule_report, run_table1,
                                       run_table2)
    from .analysis.reporting import format_result, write_markdown_table
    from .analysis.scaling import run_scaling_study

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.experiment == "write-experiments":
        from .analysis.experiments_md import generate_experiments_md

        content = generate_experiments_md(args.profile)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(content)
        print(f"wrote {args.output}")
        return 0
    runners = {
        "schedule": lambda: run_schedule_report(args.profile, jobs=args.jobs),
        "fig5": run_fig5_study,
        "fig8": lambda: run_fig8(args.profile, jobs=args.jobs),
        "fig9": lambda: run_fig9(args.profile, jobs=args.jobs),
        "table1": lambda: run_table1(args.profile, jobs=args.jobs),
        "table2": lambda: run_table2(args.profile, jobs=args.jobs),
        "reorder": run_reorder_study,
        "scaling": lambda: run_scaling_study(
            "supremacy" if args.profile == "full" else "grover"),
    }
    names = _EXPERIMENTS if args.experiment == "all" \
        else (args.experiment,)
    for name in names:
        result = runners[name]()
        if args.markdown:
            print(write_markdown_table(result))
        else:
            print(format_result(result))
    return 0


def _sweep_tasks(spec: dict, args) -> list:
    """Build the task list from a sweep spec plus CLI overrides.

    ``circuits`` entries may be registry instance names (``"grover_8"``),
    paths to ``.qasm`` files, or ``{"qasm": path, "name": ...}`` dicts;
    QASM text is embedded into the task at parse time so workers never
    touch the filesystem.
    """
    import os.path

    from .analysis.instances import get_instance, instance_task_spec
    from .simulation.sweep import SweepTask, task_seed

    def pick(flag, key, default):
        return flag if flag is not None else spec.get(key, default)

    strategies = args.strategy or spec.get("strategies", ["sequential"])
    backends = args.backend or spec.get("backends", [None])
    repetitions = pick(args.repetitions, "repetitions", 1)
    base_seed = pick(args.seed, "seed", 0)
    timeout = pick(args.timeout, "timeout", None)
    max_nodes = pick(args.max_nodes, "max_nodes", None)
    gc_limit = pick(args.gc_limit, "gc_limit", None)
    reorder = pick(args.reorder, "reorder", None)
    if reorder is not None:
        # validate early: a malformed spec should fail the sweep, not
        # every individual cell
        from .simulation import reorder_from_spec
        reorder = None if reorder_from_spec(reorder) is None else reorder
    use_local_apply = bool(spec.get("use_local_apply", False))

    tasks = []
    for entry in spec.get("circuits", []):
        fault = None
        if isinstance(entry, dict):
            path = entry["qasm"]
            name = entry.get("name", os.path.basename(path))
            fault = entry.get("fault")
            with open(path, encoding="utf-8") as handle:
                kind, metadata, qasm = "qasm", {}, handle.read()
        elif entry.endswith(".qasm"):
            name = os.path.basename(entry)
            with open(entry, encoding="utf-8") as handle:
                kind, metadata, qasm = "qasm", {}, handle.read()
        else:
            name = entry
            kind = "instance"
            metadata = instance_task_spec(get_instance(entry))
            qasm = None
        for strategy in strategies:
            for backend in backends:
                # the backend joins the cell name so report keys stay
                # unique across the backend axis
                cell_name = name if backend is None \
                    else f"{name}@{backend}"
                for repetition in range(repetitions):
                    tasks.append(SweepTask(
                        name=cell_name, strategy=strategy,
                        repetition=repetition,
                        kind=kind, metadata=metadata, qasm=qasm,
                        use_local_apply=use_local_apply,
                        seed=task_seed(base_seed, cell_name, strategy,
                                       repetition),
                        timeout=timeout, max_nodes=max_nodes,
                        gc_limit=gc_limit, reorder=reorder,
                        backend=backend, fault=fault))
    return tasks


def _cmd_sweep(args) -> int:
    """Run a batch of cells from a JSON spec; exit 1 iff any cell failed."""
    from .simulation.sweep import SweepRunner

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        with open(args.spec, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read sweep spec {args.spec}: {exc}",
              file=sys.stderr)
        return 2
    try:
        tasks = _sweep_tasks(spec, args)
    except (KeyError, OSError, ValueError) as exc:
        print(f"error: bad sweep spec: {exc}", file=sys.stderr)
        return 2
    if not tasks:
        print("error: sweep spec names no circuits", file=sys.stderr)
        return 2

    report = SweepRunner(jobs=args.jobs, retries=args.retries).run(tasks)

    for cell in report.cells:
        mark = "ok " if cell.ok else cell.status
        line = (f"{mark:>7}  {cell.name}  {cell.strategy}  "
                f"rep={cell.repetition}")
        if cell.ok:
            stats = cell.stats()
            line += (f"  mxv={stats.matrix_vector_mults} "
                     f"mxm={stats.matrix_matrix_mults} "
                     f"nodes={stats.final_state_nodes} "
                     f"t={cell.wall_seconds:.3f}s")
        else:
            error = cell.error or {}
            line += f"  {error.get('type')}: {error.get('message')}"
        print(line)
    counts = report.status_counts()
    summary = ", ".join(f"{count} {status}"
                        for status, count in sorted(counts.items()))
    print(f"sweep: {len(report.cells)} cells ({summary}), "
          f"jobs={report.jobs}, {report.wall_seconds:.3f}s")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(deterministic=args.deterministic),
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report: {args.output}")
    return 0 if report.all_ok else 1


def _parse_span(text: str, flag: str) -> tuple[int, int]:
    """Parse a ``LO:HI`` range flag."""
    try:
        low, _, high = text.partition(":")
        low_value, high_value = int(low), int(high or low)
    except ValueError:
        raise ValueError(f"{flag} expects LO:HI, got {text!r}") from None
    if low_value < 1 or high_value < low_value:
        raise ValueError(f"{flag} range {text!r} is empty or non-positive")
    return low_value, high_value


def _cmd_fuzz(args) -> int:
    """Differential / option-surface / mutation fuzzing.

    Exit 0 when every comparison held the fidelity floor, 1 when any
    backend or plan run disagreed (minimized reproducers printed, and
    written to ``--corpus`` when given), 2 on bad arguments.
    """
    from .verification.fuzz import (DifferentialFuzzer, FuzzConfig,
                                    register_broken_backend, run_mutation,
                                    run_plans, write_corpus)
    if args.replay_corpus:
        return _fuzz_replay(args)
    mode = "differential"
    if args.plan_options:
        mode = "plans"
    if args.mutate:
        if args.plan_options:
            print("error: --plan-options and --mutate are exclusive "
                  "campaign modes", file=sys.stderr)
            return 2
        mode = "mutate"
    budget = args.budget
    if budget is None and args.max_circuits is None:
        budget = 60.0
    try:
        min_qubits, max_qubits = _parse_span(args.qubits, "--qubits")
        min_operations, max_operations = _parse_span(args.ops, "--ops")
        plan_engine = "default"
        if args.inject_broken:
            if mode == "differential":
                register_broken_backend()
            else:
                # plan/mutate campaigns fuzz the engine, not the backend
                # pool: the planted bug lives on the reorder path
                plan_engine = "broken-reorder"
        backends = tuple(name for name in
                         (args.backends or "").split(",") if name)
        config = FuzzConfig(
            backends=backends, reference=args.reference,
            min_qubits=min_qubits, max_qubits=max_qubits,
            min_operations=min_operations, max_operations=max_operations,
            seed=args.seed, max_failures=args.max_failures,
            plan_engine=plan_engine)
        if args.jobs > 1:
            return _fuzz_parallel(args, config, budget, mode)
        if mode == "plans":
            report = run_plans(config, budget_seconds=budget,
                               max_cases=args.max_circuits)
        elif mode == "mutate":
            report = run_mutation(config, budget_seconds=budget,
                                  max_cases=args.max_circuits)
        else:
            report = DifferentialFuzzer(config).run(
                budget_seconds=budget, max_circuits=args.max_circuits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    extra = ""
    if mode == "mutate":
        extra = (f", {report.coverage_buckets} coverage buckets "
                 f"({report.novel_cases} novel cases)")
    if report.cases_skipped:
        extra += f", {report.cases_skipped} budget-aborted (skipped)"
    print(f"fuzz [{mode}]: {report.circuits_checked} circuits, "
          f"{report.comparisons} comparisons across "
          f"{len(report.backends)} target(s) "
          f"({', '.join(report.backends)}), "
          f"{report.wall_seconds:.1f}s, seed {config.seed}{extra}")
    if args.corpus:
        paths = write_corpus(report, args.corpus)
        print(f"corpus: {len(paths)} file(s) in {args.corpus}")
    if report.ok:
        print(f"fuzz OK: fidelity floor {config.fidelity_floor} held "
              f"on every comparison")
        return 0
    print(f"fuzz FAILED: {len(report.failures)} disagreement(s)",
          file=sys.stderr)
    for failure in report.failures:
        print(f"\n{failure.summary()}", file=sys.stderr)
    return 1


def _fuzz_replay(args) -> int:
    """Replay a pinned reproducer corpus through every backend."""
    from .verification.corpus import load_corpus, replay_entry
    try:
        entries = load_corpus(args.replay_corpus)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = []
    for entry in entries:
        failures.extend(replay_entry(entry))
    print(f"corpus replay: {len(entries)} reproducer(s) from "
          f"{args.replay_corpus}")
    if not failures:
        print("corpus replay OK: every entry matched on every backend")
        return 0
    print(f"corpus replay FAILED: {len(failures)} regression(s)",
          file=sys.stderr)
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 1


def _fuzz_parallel(args, config, budget: float | None,
                   mode: str = "differential") -> int:
    """Fan one fuzz campaign out as ``kind="fuzz"`` sweep cells.

    Each worker cell fuzzes a rotated seed for the full budget (cells run
    concurrently, so wall time stays ~budget while coverage scales with
    ``--jobs``); failed cells carry the minimized reproducers in their
    error records.
    """
    import os.path

    from .simulation.sweep import SweepRunner, SweepTask, task_seed
    tasks = []
    for index in range(args.jobs):
        metadata = config.as_dict()
        # rotate the seed per cell so workers explore disjoint streams
        metadata["seed"] = config.seed + 7919 * index
        metadata["budget_seconds"] = budget
        metadata["mode"] = mode
        if args.max_circuits is not None:
            metadata["max_circuits"] = -(-args.max_circuits // args.jobs)
        if args.corpus:
            metadata["corpus"] = os.path.join(args.corpus, f"cell{index}")
        if args.inject_broken and mode == "differential":
            metadata["register_broken"] = True
        name = f"fuzz-{index}"
        tasks.append(SweepTask(
            name=name, strategy="fuzz", kind="fuzz", metadata=metadata,
            seed=task_seed(config.seed, name, "fuzz", 0)))
    report = SweepRunner(jobs=args.jobs).run(tasks)
    checked = sum(cell.stats().operations_applied
                  for cell in report.cells if cell.ok)
    print(f"fuzz: {len(report.cells)} parallel cells, "
          f"{checked} circuits in passing cells, jobs={args.jobs}, "
          f"{report.wall_seconds:.1f}s")
    for cell in report.failed_cells:
        error = cell.error or {}
        print(f"\nfuzz cell {cell.name} FAILED: "
              f"{error.get('message', error.get('type'))}",
              file=sys.stderr)
    if report.all_ok:
        print("fuzz OK: fidelity floor held on every comparison")
        return 0
    print(f"fuzz FAILED: {len(report.failed_cells)} cell(s) found "
          f"disagreements", file=sys.stderr)
    return 1


def _cmd_jobs_submit(args) -> int:
    """Durably enqueue one simulation job into a store directory."""
    from .service import JobSpec, JobStore, parse_fault

    if (args.qasm is None) == (args.instance is None):
        print("error: give exactly one of --qasm or --instance",
              file=sys.stderr)
        return 2
    try:
        parse_fault(args.fault)  # fail the submission, not every attempt
        if args.qasm is not None:
            import os.path
            with open(args.qasm, encoding="utf-8") as handle:
                qasm = handle.read()
            name = args.name or os.path.basename(args.qasm)
        else:
            from .analysis.instances import instance_qasm
            qasm = instance_qasm(args.instance)
            name = args.name or args.instance
        spec = JobSpec(
            name=name, qasm=qasm, strategy=args.strategy,
            use_local_apply=not args.paper, kernel=args.kernel,
            reorder=args.reorder, max_nodes=args.max_nodes,
            gc_limit=args.gc_limit, checkpoint_every=args.checkpoint_every,
            timeout=args.timeout, fault=args.fault)
        record = JobStore(args.store).submit(
            spec, max_attempts=args.max_attempts)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"submitted : {record.job_id} ({record.state}, "
          f"max {record.max_attempts} attempt(s))")
    return 0


def _cmd_jobs_run(args) -> int:
    """Supervise every queued job in the store to a terminal state."""
    from .service import JobStore, Supervisor, SupervisorConfig

    store = JobStore(args.store)
    if not store.list_ids():
        print(f"error: no jobs in {args.store} "
              f"(submit some with 'jobs submit')", file=sys.stderr)
        return 2
    config = SupervisorConfig(
        max_workers=args.workers, lease_seconds=args.lease,
        backoff_base=args.backoff_base,
        max_wall_seconds=args.max_wall_seconds)
    trace_sink = None
    if args.trace:
        from .simulation import JsonlTraceSink
        trace_sink = JsonlTraceSink(args.trace)
    try:
        report = Supervisor(store, config, trace=trace_sink).run()
    finally:
        if trace_sink is not None:
            trace_sink.close()
    for job_id, state in report.states.items():
        record = store.get(job_id)
        line = f"{state:>12}  {job_id}  attempts={record.attempts}"
        if record.result:
            line += (f"  resumed_from_op="
                     f"{record.result.get('resumed_from_op')}")
        if record.errors:
            line += f"  last_error={record.errors[-1].get('type')}"
        print(line)
    counts = ", ".join(f"{count} {state}"
                       for state, count in sorted(report.counts().items()))
    print(f"jobs: {len(report.states)} supervised ({counts}), "
          f"{report.retries} retries, {report.lease_expiries} lease "
          f"expiries, {report.recovered} recovered, "
          f"{report.wall_seconds:.3f}s")
    if args.trace:
        print(f"trace: {args.trace}")
    return 0 if report.all_done else 1


def _cmd_jobs_status(args) -> int:
    """Show every job record in the store."""
    from .service import JobStore

    store = JobStore(args.store)
    records = store.load_all()
    if args.json:
        payload = {
            "counts": store.counts(),
            "jobs": [record.as_dict() for record in records],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"no jobs in {args.store}")
        return 0
    for record in records:
        line = (f"{record.state:>12}  {record.job_id}  "
                f"attempts={record.attempts}/{record.max_attempts}  "
                f"strategy={record.spec.strategy}")
        if record.errors:
            line += f"  last_error={record.errors[-1].get('type')}"
        print(line)
    counts = ", ".join(f"{count} {state}"
                       for state, count in sorted(store.counts().items()))
    print(f"jobs: {len(records)} total ({counts})")
    return 0


def _cmd_jobs_retry(args) -> int:
    """Re-queue failed/quarantined jobs with a fresh attempt budget."""
    from .service import JobStateError, JobStore

    store = JobStore(args.store)
    status = 0
    for job_id in args.job_ids:
        try:
            record = store.get(job_id)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        if record.state not in ("failed", "quarantined"):
            print(f"skipped   : {job_id} is {record.state} "
                  f"(only failed/quarantined jobs can be retried)",
                  file=sys.stderr)
            status = status or 1
            continue
        try:
            # fresh budget: the error chain stays for the post-mortem,
            # but the attempt counter restarts
            record.attempts = 0
            record.not_before = 0.0
            store.transition(record, "queued", note="manual retry")
        except JobStateError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        print(f"requeued  : {job_id}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DD-based quantum-circuit simulation "
                    "(Zulehner & Wille, DATE 2019 reproduction).")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_run_options(command) -> None:
        """Options shared by ``simulate`` and ``resume``."""
        command.add_argument("--shots", type=int, default=0,
                             help="sample this many measurement shots")
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--amplitudes", action="store_true",
                             help="print non-negligible amplitudes")
        command.add_argument("--threshold", type=float, default=1e-6,
                             help="probability threshold for --amplitudes")
        command.add_argument("--limit", type=int, default=20,
                             help="max rows to print")
        command.add_argument("--gc-limit", type=int,
                             default=DEFAULT_NODE_LIMIT,
                             help="initial GC node limit; the memory governor "
                                  "grows it past a fully-reachable working "
                                  "set (default %(default)s)")
        command.add_argument("--max-nodes", type=int, default=None,
                             help="hard node budget: abort cleanly when the "
                                  "reachable working set exceeds this")
        command.add_argument("--trace", default=None, metavar="PATH",
                             help="write a per-step JSONL trace to PATH")
        command.add_argument("--checkpoint", default=None, metavar="PATH",
                             help="write resumable checkpoints to PATH "
                                  "(atomically; on interrupt/budget-abort, "
                                  "and every --checkpoint-every ops)")
        command.add_argument("--checkpoint-every", type=int, default=None,
                             metavar="N",
                             help="also checkpoint every N operations "
                                  "(requires --checkpoint)")
        command.add_argument("--degrade", action="store_true",
                             help="degrade gracefully instead of aborting "
                                  "when --max-nodes is exceeded: prune the "
                                  "state DD within --fidelity-floor")
        command.add_argument("--fidelity-floor", type=float, default=0.99,
                             help="cumulative fidelity below which --degrade "
                                  "stops pruning (default 0.99)")
        command.add_argument("--audit-every", type=int, default=None,
                             metavar="K",
                             help="run the DD integrity auditor every K "
                                  "operations (fails fast on corruption)")
        command.add_argument("--reorder", default=None, metavar="POLICY",
                             help="mid-run variable reordering: 'governor' "
                                  "(sift on memory pressure, before any "
                                  "degradation), 'every=K' (sift every K "
                                  "operations), or 'off' (default)")

    simulate = commands.add_parser("simulate",
                                   help="simulate an OpenQASM circuit")
    simulate.add_argument("circuit", help="path to a .qasm file")
    simulate.add_argument("--strategy", default="sequential",
                          help="sequential | k=<n> | smax=<n> | adaptive | "
                               "repeating[:inner]")
    simulate.add_argument("--backend", default=None, metavar="NAME",
                          help="simulate through a registered backend: "
                               "dd | dd-iterative | dd-matrix | dense, or "
                               "'auto' to pick per circuit from cheap "
                               "predictors (decision recorded in the "
                               "statistics); default: the default "
                               "engine")
    simulate.add_argument("--initial", type=int, default=0,
                          help="initial basis state index")
    add_run_options(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    resume = commands.add_parser(
        "resume", help="resume a checkpointed simulation run")
    resume.add_argument("checkpoint_file",
                        help="checkpoint written by simulate --checkpoint")
    resume.add_argument("circuit",
                        help="the .qasm file the checkpoint came from")
    add_run_options(resume)
    resume.set_defaults(handler=_cmd_resume)

    audit = commands.add_parser(
        "audit", help="audit DD integrity of a checkpoint or a circuit run")
    audit.add_argument("target",
                       help="a checkpoint file or a .qasm circuit")
    audit.add_argument("--kind", default="auto",
                       choices=["auto", "checkpoint", "circuit"],
                       help="how to interpret TARGET (default: sniff JSON)")
    audit.add_argument("--strategy", default="sequential",
                       help="strategy for circuit audits")
    audit.add_argument("--audit-every", type=int, default=100, metavar="K",
                       help="in-run audit cadence for circuit audits "
                            "(default 100)")
    audit.set_defaults(handler=_cmd_audit)

    info = commands.add_parser("info", help="show circuit statistics")
    info.add_argument("circuit")
    info.set_defaults(handler=_cmd_info)

    equiv = commands.add_parser("equiv",
                                help="check two circuits for equivalence")
    equiv.add_argument("circuit_a")
    equiv.add_argument("circuit_b")
    equiv.add_argument("--method", default="miter",
                       choices=["miter", "pointer"])
    equiv.set_defaults(handler=_cmd_equiv)

    factor_cmd = commands.add_parser("factor",
                                     help="factor an integer with Shor")
    factor_cmd.add_argument("number", type=int)
    factor_cmd.add_argument("--mode", default="construct",
                            choices=["construct", "gates"])
    factor_cmd.add_argument("--seed", type=int, default=0)
    factor_cmd.set_defaults(handler=_cmd_factor)

    experiments = commands.add_parser(
        "experiments",
        help="regenerate a paper artifact (default: the deterministic "
             "schedule report), optionally on parallel workers")
    experiments.add_argument("experiment", nargs="?", default="schedule",
                             choices=[*_EXPERIMENTS, "all",
                                      "write-experiments"],
                             help="artifact to regenerate "
                                  "(default: schedule -- byte-identical "
                                  "output for any --jobs); 'all' prints "
                                  "every artifact, 'write-experiments' "
                                  "rewrites EXPERIMENTS.md")
    experiments.add_argument("--profile", default="quick",
                             choices=["quick", "default", "full"],
                             help="instance-size profile (default: quick)")
    experiments.add_argument("--jobs", type=int, default=1, metavar="N",
                             help="worker processes (default: 1, inline)")
    experiments.add_argument("--markdown", action="store_true",
                             help="emit a Markdown table")
    experiments.add_argument("--output", default="EXPERIMENTS.md",
                             help="target file for write-experiments "
                                  "(default: EXPERIMENTS.md)")
    experiments.set_defaults(handler=_cmd_experiments)

    sweep = commands.add_parser(
        "sweep", help="run a batch of simulation cells from a JSON spec "
                      "over parallel workers")
    sweep.add_argument("spec",
                       help="JSON file: {circuits: [instance name | "
                            "file.qasm | {qasm: path}], strategies: [...], "
                            "repetitions, seed, timeout, max_nodes, "
                            "gc_limit, use_local_apply}")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: 1, inline)")
    sweep.add_argument("--strategy", action="append", metavar="SPEC",
                       help="override the spec's strategies (repeatable)")
    sweep.add_argument("--repetitions", type=int, default=None, metavar="R",
                       help="override the spec's repetitions per cell")
    sweep.add_argument("--seed", type=int, default=None,
                       help="override the spec's base seed (per-cell seeds "
                            "are derived deterministically from it)")
    sweep.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-cell wall-clock budget in seconds")
    sweep.add_argument("--max-nodes", type=int, default=None,
                       help="per-cell hard DD node budget")
    sweep.add_argument("--gc-limit", type=int, default=None,
                       help="per-cell initial GC node limit")
    sweep.add_argument("--reorder", default=None, metavar="POLICY",
                       help="per-cell reorder policy ('governor' or "
                            "'every=K'; overrides the spec's 'reorder')")
    sweep.add_argument("--backend", action="append", metavar="NAME",
                       help="add a backend axis: run every cell through "
                            "each named registered backend (repeatable; "
                            "overrides the spec's 'backends')")
    sweep.add_argument("--retries", type=int, default=1,
                       help="retries for cells whose worker died "
                            "(default: 1)")
    sweep.add_argument("--output", default=None, metavar="PATH",
                       help="write the full JSON report to PATH")
    sweep.add_argument("--deterministic", action="store_true",
                       help="restrict --output to fields that are "
                            "bit-identical across processes and job counts")
    sweep.set_defaults(handler=_cmd_sweep)

    jobs = commands.add_parser(
        "jobs", help="durable job queue: submit, supervise, inspect, retry")
    jobs_commands = jobs.add_subparsers(dest="jobs_command", required=True)

    jobs_submit = jobs_commands.add_parser(
        "submit", help="enqueue one simulation job into a store directory")
    jobs_submit.add_argument("store", help="job store directory "
                                           "(created if missing)")
    jobs_submit.add_argument("--qasm", default=None, metavar="PATH",
                             help="circuit file to embed into the job")
    jobs_submit.add_argument("--instance", default=None, metavar="NAME",
                             help="circuit-backed registry instance "
                                  "(e.g. grover_8) to embed as QASM")
    jobs_submit.add_argument("--name", default=None,
                             help="job name (default: file/instance name)")
    jobs_submit.add_argument("--strategy", default="sequential",
                             help="sequential | k=<n> | smax=<n> | adaptive "
                                  "| repeating[:inner]")
    jobs_submit.add_argument("--kernel", default=None,
                             choices=["recursive", "iterative"],
                             help="DD multiplication kernel")
    jobs_submit.add_argument("--reorder", default=None, metavar="POLICY",
                             help="mid-run reorder policy "
                                  "('governor' or 'every=K')")
    jobs_submit.add_argument("--paper", action="store_true",
                             help="paper-literal pathway (no local-apply "
                                  "fast path, no identity shortcut)")
    jobs_submit.add_argument("--max-nodes", type=int, default=None,
                             help="hard DD node budget per attempt")
    jobs_submit.add_argument("--gc-limit", type=int, default=None,
                             help="initial GC node limit")
    jobs_submit.add_argument("--checkpoint-every", type=int, default=25,
                             metavar="N",
                             help="periodic checkpoint cadence in "
                                  "operations (default 25)")
    jobs_submit.add_argument("--timeout", type=float, default=None,
                             metavar="S",
                             help="cooperative per-attempt deadline")
    jobs_submit.add_argument("--max-attempts", type=int, default=3,
                             help="attempts before quarantine (default 3)")
    jobs_submit.add_argument("--fault", default=None, metavar="SPEC",
                             help="chaos-testing fault spec (e.g. kill@12, "
                                  "latency=0.5, budget@7)")
    jobs_submit.set_defaults(handler=_cmd_jobs_submit)

    jobs_run = jobs_commands.add_parser(
        "run", help="supervise every queued job to a terminal state "
                    "(exit 0 iff all done)")
    jobs_run.add_argument("store", help="job store directory")
    jobs_run.add_argument("--workers", type=int, default=2, metavar="N",
                          help="concurrent worker processes (default 2)")
    jobs_run.add_argument("--lease", type=float, default=10.0, metavar="S",
                          help="heartbeat staleness that expires a lease "
                               "(default 10s)")
    jobs_run.add_argument("--backoff-base", type=float, default=0.2,
                          metavar="S",
                          help="first retry backoff; doubles per attempt "
                               "(default 0.2s)")
    jobs_run.add_argument("--max-wall-seconds", type=float, default=600.0,
                          metavar="S",
                          help="hard bound on the whole supervision run "
                               "(default 600s)")
    jobs_run.add_argument("--trace", default=None, metavar="PATH",
                          help="write supervision events as JSONL to PATH")
    jobs_run.set_defaults(handler=_cmd_jobs_run)

    jobs_status = jobs_commands.add_parser(
        "status", help="show every job record in the store")
    jobs_status.add_argument("store", help="job store directory")
    jobs_status.add_argument("--json", action="store_true",
                             help="machine-readable dump")
    jobs_status.set_defaults(handler=_cmd_jobs_status)

    jobs_retry = jobs_commands.add_parser(
        "retry", help="re-queue failed/quarantined jobs with a fresh "
                      "attempt budget")
    jobs_retry.add_argument("store", help="job store directory")
    jobs_retry.add_argument("job_ids", nargs="+", metavar="JOB_ID")
    jobs_retry.set_defaults(handler=_cmd_jobs_retry)

    fuzz = commands.add_parser(
        "fuzz", help="differential fuzzing: cross-check all registered "
                     "backends on random circuits at fidelity >= 1-1e-9; "
                     "failures are minimized into reproducers")
    fuzz.add_argument("--budget", type=float, default=None, metavar="S",
                      help="wall-clock fuzzing budget in seconds "
                           "(default 60 unless --max-circuits is given)")
    fuzz.add_argument("--max-circuits", type=int, default=None, metavar="N",
                      help="stop after N random circuits")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (CI rotates it per run)")
    fuzz.add_argument("--backends", default=None, metavar="A,B,...",
                      help="comma-separated backend pool "
                           "(default: every registered backend)")
    fuzz.add_argument("--reference", default="dense",
                      help="oracle backend every other one is compared "
                           "against (default: dense)")
    fuzz.add_argument("--qubits", default="2:6", metavar="LO:HI",
                      help="qubit-count range per circuit (default 2:6)")
    fuzz.add_argument("--ops", default="5:40", metavar="LO:HI",
                      help="operation-count range per circuit "
                           "(default 5:40)")
    fuzz.add_argument("--max-failures", type=int, default=5, metavar="N",
                      help="stop after N distinct failures (default 5)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="write minimized JSON reproducers (and a "
                           "campaign summary) into DIR")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="fan the campaign out over N sweep worker "
                           "processes with rotated seeds (default: 1)")
    fuzz.add_argument("--inject-broken", action="store_true",
                      help="plant a deliberate bug first (a faulty backend "
                           "for differential mode, the reorder-path "
                           "BrokenReorderEngine for --plan-options/"
                           "--mutate); the campaign must then fail -- CI "
                           "uses this to prove the ratchet bites")
    fuzz.add_argument("--plan-options", action="store_true",
                      help="option-surface mode: every case runs a random "
                           "RunPlan (kernel, dense blocks, strategy, "
                           "reordering, node budgets, checkpoint/resume) "
                           "against the dense oracle")
    fuzz.add_argument("--mutate", action="store_true",
                      help="coverage-guided mode: mutate the cases whose "
                           "runs lit up new engine-coverage buckets "
                           "(cache hit rates, reorder/degrade/cutover "
                           "counts, node bands)")
    fuzz.add_argument("--replay-corpus", default=None, metavar="DIR",
                      help="replay a pinned reproducer corpus through "
                           "every registered backend (and each entry's "
                           "plan) instead of fuzzing")
    fuzz.set_defaults(handler=_cmd_fuzz)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
