"""Differential fuzzing: the continuous correctness ratchet.

The repo computes the same state four ways (see :mod:`repro.backends`);
this module keeps them honest *continuously* rather than only at the
circuits the test suite happened to pin.  A :class:`DifferentialFuzzer`
draws random Clifford+T / rotation circuits from a rotating seed, runs
every registered backend against a reference (dense statevector by
default), and flags any pair below the fidelity floor of ``1 - 1e-9``
-- the same oracle the differential test suite and perfbench's
correctness checks use.

A failure is only useful if a human can read it, so every failing
circuit is **minimized** before it is reported, by the same
:func:`~repro.verification.cases.minimize_case` the option-surface
campaigns use: greedy gate deletion (drop any gate whose removal keeps
the failure), then greedy qubit deletion (drop a qubit and every gate
touching it), repeated until nothing shrinks.  A wrong-phase bug in a
40-gate circuit typically shrinks to 2-3 gates.  Minimized reproducers
serialise to a JSON corpus (QASM plus metadata) that CI uploads as an
artifact on failure.

Entry points: ``python -m repro fuzz --budget N`` (CLI), sweep cells with
``kind="fuzz"`` (:func:`run_fuzz_cell`, fanned out by ``--jobs`` through
:class:`~repro.simulation.sweep.SweepRunner`), and the API below.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from dataclasses import replace as dataclasses_replace
from random import Random

import numpy as np

from ..backends import available_backends, create_backend
from ..backends.base import BackendResult
from ..backends.dense import DenseBackend
from ..backends.registry import register_backend, unregister_backend
from ..circuit.circuit import QuantumCircuit
from ..circuit.operation import Operation
from ..circuit.qasm import to_qasm
from ..simulation.statistics import SimulationStatistics
from .cases import (FuzzCase, case_qasm, check_case, draw_case,
                    draw_operations, minimize_case)
from .coverage import CoverageMap, coverage_signature
from .mutate import mutate_case
from .plans import RunPlan, engine_class

__all__ = ["BrokenPhaseBackend", "DifferentialFuzzer", "FuzzConfig",
           "FuzzFailure", "FuzzMismatch", "FuzzReport", "fuzz_circuit",
           "register_broken_backend", "run_fuzz_cell", "run_mutation",
           "run_plans", "write_corpus"]

#: schema of plain-QASM reproducer files in the corpus
CORPUS_SCHEMA = 1

#: schema of structural case reproducers (operations + block + plan)
CASE_SCHEMA = 2

#: agreement threshold -- identical to tests/test_differential.py and
#: perfbench's checks, so the fuzzer ratchets the same invariant CI gates on
FIDELITY_FLOOR = 1 - 1e-9


class FuzzMismatch(AssertionError):
    """A backend disagreed with the reference (raised by fuzz sweep cells
    so the runner records the cell as failed; the message carries the
    minimized reproducer)."""


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing campaign's parameters (plain data: crosses workers)."""

    #: backends to cross-check; empty = every registered backend
    backends: tuple = ()
    #: the oracle side of every comparison
    reference: str = "dense"
    min_qubits: int = 2
    max_qubits: int = 6
    min_operations: int = 5
    max_operations: int = 40
    #: probability that a drawn gate is a continuous rotation
    rotation_probability: float = 0.4
    fidelity_floor: float = FIDELITY_FLOOR
    seed: int = 0
    #: stop after this many distinct failing (backend, circuit) pairs
    max_failures: int = 5
    #: probability a drawn case carries a repeated block (plan/mutate
    #: campaigns only; blind differential fuzzing never draws blocks)
    block_probability: float = 0.45
    #: engine implementation plan campaigns run
    #: (see :data:`repro.verification.plans._ENGINES`)
    plan_engine: str = "default"

    def resolved_backends(self) -> list[str]:
        names = list(self.backends) if self.backends \
            else available_backends()
        if self.reference not in names:
            names.append(self.reference)
        if len(names) < 2:
            raise ValueError(
                f"fuzzing needs >= 2 backends to disagree; got {names}")
        return sorted(names)

    def as_dict(self) -> dict:
        return {
            "backends": list(self.backends),
            "reference": self.reference,
            "min_qubits": self.min_qubits,
            "max_qubits": self.max_qubits,
            "min_operations": self.min_operations,
            "max_operations": self.max_operations,
            "rotation_probability": self.rotation_probability,
            "fidelity_floor": self.fidelity_floor,
            "seed": self.seed,
            "max_failures": self.max_failures,
            "block_probability": self.block_probability,
            "plan_engine": self.plan_engine,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzConfig":
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in payload.items() if k in known}
        if "backends" in kwargs:
            kwargs["backends"] = tuple(kwargs["backends"])
        return cls(**kwargs)


@dataclass
class FuzzFailure:
    """One backend/circuit disagreement, minimized."""

    backend: str
    reference: str
    #: "fidelity" (below the floor) or "error" (the backend raised)
    kind: str
    seed: int
    fidelity: float | None
    error: str | None
    original_qasm: str
    minimized_qasm: str
    minimized_operations: int
    minimized_qubits: int
    #: option-surface failures only: the minimized structural case
    #: (:meth:`FuzzCase.as_dict`) and the engine that produced the bug
    case: dict | None = None
    engine: str | None = None

    def as_dict(self) -> dict:
        payload = {
            "schema": CASE_SCHEMA if self.case is not None
            else CORPUS_SCHEMA,
            "backend": self.backend,
            "reference": self.reference,
            "kind": self.kind,
            "seed": self.seed,
            "fidelity": self.fidelity,
            "error": self.error,
            "fidelity_floor": FIDELITY_FLOOR,
            "original_qasm": self.original_qasm,
            "minimized_qasm": self.minimized_qasm,
            "minimized_operations": self.minimized_operations,
            "minimized_qubits": self.minimized_qubits,
        }
        if self.case is not None:
            payload["case"] = self.case
            payload["engine"] = self.engine
        return payload

    def summary(self) -> str:
        detail = f"fidelity {self.fidelity:.12f}" \
            if self.kind == "fidelity" else f"error: {self.error}"
        plan = ""
        if self.case is not None:
            plan = (f"; plan: "
                    f"{FuzzCase.from_dict(self.case).plan.describe()}")
        return (f"backend {self.backend!r} vs {self.reference!r} "
                f"(seed {self.seed}): {detail}; minimized to "
                f"{self.minimized_operations} gate(s) on "
                f"{self.minimized_qubits} qubit(s){plan}\n"
                f"{self.minimized_qasm}")


@dataclass
class FuzzReport:
    """Outcome of one campaign."""

    config: FuzzConfig
    circuits_checked: int = 0
    comparisons: int = 0
    wall_seconds: float = 0.0
    backends: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    #: plan/mutate campaigns: budget-aborted runs (expected, not failures)
    cases_skipped: int = 0
    #: mutate campaigns: coverage buckets seen / cases that found new ones
    coverage_buckets: int = 0
    novel_cases: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "schema": CORPUS_SCHEMA,
            "ok": self.ok,
            "circuits_checked": self.circuits_checked,
            "comparisons": self.comparisons,
            "wall_seconds": round(self.wall_seconds, 3),
            "backends": list(self.backends),
            "cases_skipped": self.cases_skipped,
            "coverage_buckets": self.coverage_buckets,
            "novel_cases": self.novel_cases,
            "config": self.config.as_dict(),
            "failures": [failure.as_dict() for failure in self.failures],
        }


# ----------------------------------------------------------------------
# random circuit generation (Clifford+T plus rotations)
# ----------------------------------------------------------------------

def fuzz_circuit(num_qubits: int, num_operations: int, seed: int,
                 rotation_probability: float = 0.4) -> QuantumCircuit:
    """One random circuit from the fuzzing distribution.

    Mirrors the differential test suite's generator: Clifford+T
    single-qubit gates, CX/CZ/CCX entanglers, and (with
    ``rotation_probability``) continuous rotations with angles that are
    *not* nice dyadic fractions of pi -- exactly the amplitudes where a
    normalisation or phase bug hides.  The distribution itself lives in
    :func:`repro.verification.cases.draw_operations`, shared with the
    option-surface and mutation campaigns.
    """
    rng = Random(seed)
    circuit = QuantumCircuit(num_qubits, name=f"fuzz-{seed}")
    for operation in draw_operations(rng, num_qubits, num_operations,
                                     rotation_probability):
        circuit.append(operation)
    return circuit


# ----------------------------------------------------------------------
# the fuzzer
# ----------------------------------------------------------------------

class DifferentialFuzzer:
    """Cross-check registered backends on random circuits, minimize
    failures."""

    def __init__(self, config: FuzzConfig | None = None) -> None:
        self.config = config or FuzzConfig()
        self.backend_names = self.config.resolved_backends()
        if self.config.reference not in self.backend_names:
            raise ValueError(
                f"reference backend {self.config.reference!r} is not in "
                f"the pool {self.backend_names}")

    # -- campaign driver ------------------------------------------------

    def run(self, budget_seconds: float | None = None,
            max_circuits: int | None = None) -> FuzzReport:
        """Fuzz until the time budget or circuit count runs out.

        At least one circuit is always checked, so even a tiny budget
        yields a meaningful report.
        """
        if budget_seconds is None and max_circuits is None:
            raise ValueError("need a budget_seconds or max_circuits bound")
        report = FuzzReport(config=self.config,
                            backends=list(self.backend_names))
        master = Random(self.config.seed)
        started = time.perf_counter()
        index = 0
        while True:
            if max_circuits is not None and index >= max_circuits:
                break
            if index > 0 and budget_seconds is not None and \
                    time.perf_counter() - started >= budget_seconds:
                break
            if len(report.failures) >= self.config.max_failures:
                break
            circuit_seed = master.getrandbits(32)
            report.failures.extend(self.check_one(circuit_seed, report))
            report.circuits_checked += 1
            index += 1
        report.wall_seconds = time.perf_counter() - started
        return report

    def check_one(self, circuit_seed: int,
                  report: FuzzReport | None = None) -> list[FuzzFailure]:
        """Draw one circuit, cross-check every backend, minimize failures."""
        rng = Random(circuit_seed)
        num_qubits = rng.randint(self.config.min_qubits,
                                 self.config.max_qubits)
        num_operations = rng.randint(self.config.min_operations,
                                     self.config.max_operations)
        circuit = fuzz_circuit(num_qubits, num_operations, circuit_seed,
                               self.config.rotation_probability)
        failures = []
        for name in self.backend_names:
            if name == self.config.reference:
                continue
            if report is not None:
                report.comparisons += 1
            verdict = self._disagreement(circuit, name)
            if verdict is None:
                continue
            fidelity, error = verdict
            minimized = self._minimize(circuit, circuit_seed, name)
            failures.append(FuzzFailure(
                backend=name, reference=self.config.reference,
                kind="error" if error is not None else "fidelity",
                seed=circuit_seed, fidelity=fidelity, error=error,
                original_qasm=to_qasm(circuit),
                minimized_qasm=to_qasm(minimized),
                minimized_operations=minimized.num_operations(),
                minimized_qubits=minimized.num_qubits))
        return failures

    # -- the oracle -----------------------------------------------------

    def _run_backend(self, name: str,
                     circuit: QuantumCircuit) -> BackendResult:
        return create_backend(name).run(circuit)

    def _disagreement(self, circuit: QuantumCircuit,
                      name: str) -> tuple | None:
        """``None`` if the backend agrees with the reference; otherwise
        ``(fidelity, None)`` for a mismatch or ``(None, message)`` when
        the backend raised."""
        reference = self._run_backend(self.config.reference, circuit)
        try:
            candidate = self._run_backend(name, circuit)
            fidelity = candidate.fidelity_with(reference)
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"
        if fidelity < self.config.fidelity_floor:
            return fidelity, None
        return None

    # -- minimization ---------------------------------------------------

    def _minimize(self, circuit: QuantumCircuit, seed: int,
                  name: str) -> QuantumCircuit:
        """Shrink a failing circuit while ``name`` keeps disagreeing:
        :func:`minimize_case` on the circuit as a block-free case under
        the default plan."""
        case = FuzzCase(num_qubits=circuit.num_qubits,
                        operations=tuple(circuit.operations()),
                        plan=RunPlan(), seed=seed)

        def fails(candidate: FuzzCase) -> bool:
            return self._disagreement(candidate.circuit(circuit.name),
                                      name) is not None

        return minimize_case(case, fails).circuit(circuit.name)


# ----------------------------------------------------------------------
# option-surface campaign (fuzz --plan-options)
# ----------------------------------------------------------------------

def _case_failure(case: FuzzCase, minimized: FuzzCase, config: FuzzConfig,
                  kind: str, fidelity: float | None,
                  error: str | None) -> FuzzFailure:
    return FuzzFailure(
        backend=f"engine:{config.plan_engine}", reference="dense-oracle",
        kind=kind, seed=case.seed, fidelity=fidelity, error=error,
        original_qasm=case_qasm(case), minimized_qasm=case_qasm(minimized),
        minimized_operations=minimized.gate_count(),
        minimized_qubits=minimized.num_qubits,
        case=minimized.as_dict(), engine=config.plan_engine)


def _campaign_bounds(budget_seconds: float | None,
                     max_cases: int | None) -> None:
    if budget_seconds is None and max_cases is None:
        raise ValueError("need a budget_seconds or max_cases bound")


def run_plans(config: FuzzConfig, budget_seconds: float | None = None,
              max_cases: int | None = None) -> FuzzReport:
    """Fuzz the option surface: random cases under random run plans.

    Every drawn case executes its plan -- kernel choice, dense cutover,
    accumulation strategy, mid-run reordering, node budgets,
    checkpoint-interrupt-resume -- on a fresh engine and must
    reproduce the dense statevector oracle at the fidelity floor.
    Budget-aborted runs count as skips.  Failures are minimized down to
    gates *and* plan options before they are reported.
    """
    _campaign_bounds(budget_seconds, max_cases)
    engine_cls = engine_class(config.plan_engine)
    report = FuzzReport(config=config,
                        backends=[f"engine:{config.plan_engine}"])
    master = Random(config.seed)
    started = time.perf_counter()
    index = 0
    while True:
        if max_cases is not None and index >= max_cases:
            break
        if index > 0 and budget_seconds is not None and \
                time.perf_counter() - started >= budget_seconds:
            break
        if len(report.failures) >= config.max_failures:
            break
        case_seed = master.getrandbits(32)
        case = draw_case(Random(case_seed),
                         min_qubits=config.min_qubits,
                         max_qubits=config.max_qubits,
                         min_operations=config.min_operations,
                         max_operations=config.max_operations,
                         rotation_probability=config.rotation_probability,
                         block_probability=config.block_probability,
                         seed=case_seed)
        report.circuits_checked += 1
        report.comparisons += 1
        index += 1
        verdict = check_case(case, engine_cls, config.fidelity_floor)
        if verdict.status == "skip":
            report.cases_skipped += 1
            continue
        if verdict.failed:
            minimized = minimize_case(
                case, lambda c: check_case(c, engine_cls,
                                           config.fidelity_floor).failed)
            report.failures.append(_case_failure(
                case, minimized, config,
                kind="error" if verdict.error is not None else "fidelity",
                fidelity=verdict.fidelity, error=verdict.error))
    report.wall_seconds = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------
# coverage-guided mutation campaign (fuzz --mutate)
# ----------------------------------------------------------------------

#: cases the mutation pool keeps; older interesting cases rotate out
MUTATION_POOL_LIMIT = 64

#: fresh-draw seeds planted before mutation starts
MUTATION_SEED_CASES = 8


def run_mutation(config: FuzzConfig, budget_seconds: float | None = None,
                 max_cases: int | None = None) -> FuzzReport:
    """Coverage-guided fuzzing: mutate the cases that found new behaviour.

    The campaign seeds a pool with fresh draws, then repeatedly mutates a
    random pool member.  A mutant whose run lights up any new
    :mod:`~repro.verification.coverage` bucket (cache hit-rate quartiles,
    reorder/degradation/dense-cutover counts, node-count bands...) joins
    the pool; one that reproduces known behaviour is discarded.  Oracle
    mismatches are minimized and reported exactly like plan-campaign
    failures.
    """
    _campaign_bounds(budget_seconds, max_cases)
    engine_cls = engine_class(config.plan_engine)
    report = FuzzReport(config=config,
                        backends=[f"engine:{config.plan_engine}"])
    coverage = CoverageMap()
    pool: list[FuzzCase] = []
    master = Random(config.seed)
    started = time.perf_counter()

    def out_of_budget(index: int) -> bool:
        if max_cases is not None and index >= max_cases:
            return True
        if index > 0 and budget_seconds is not None and \
                time.perf_counter() - started >= budget_seconds:
            return True
        return len(report.failures) >= config.max_failures

    def run_one(case: FuzzCase) -> bool:
        """Check one case; returns True if it joined the pool."""
        report.circuits_checked += 1
        report.comparisons += 1
        verdict = check_case(case, engine_cls, config.fidelity_floor)
        if verdict.status == "skip":
            report.cases_skipped += 1
        elif verdict.failed:
            minimized = minimize_case(
                case, lambda c: check_case(c, engine_cls,
                                           config.fidelity_floor).failed)
            report.failures.append(_case_failure(
                case, minimized, config,
                kind="error" if verdict.error is not None else "fidelity",
                fidelity=verdict.fidelity, error=verdict.error))
        novel = coverage.observe(
            coverage_signature(case.plan, verdict.outcome))
        if novel:
            pool.append(case)
            if len(pool) > MUTATION_POOL_LIMIT:
                pool.pop(0)
        return novel

    index = 0
    while index < MUTATION_SEED_CASES and not out_of_budget(index):
        case_seed = master.getrandbits(32)
        run_one(draw_case(
            Random(case_seed),
            min_qubits=config.min_qubits, max_qubits=config.max_qubits,
            min_operations=config.min_operations,
            max_operations=config.max_operations,
            rotation_probability=config.rotation_probability,
            block_probability=config.block_probability, seed=case_seed))
        index += 1
    while not out_of_budget(index):
        case_seed = master.getrandbits(32)
        rng = Random(case_seed)
        if pool:
            parent = rng.choice(pool)
            case = mutate_case(parent, rng)
            case = replace_seed(case, case_seed)
        else:
            case = draw_case(
                rng, min_qubits=config.min_qubits,
                max_qubits=config.max_qubits,
                min_operations=config.min_operations,
                max_operations=config.max_operations,
                rotation_probability=config.rotation_probability,
                block_probability=config.block_probability,
                seed=case_seed)
        run_one(case)
        index += 1
    report.coverage_buckets = len(coverage)
    report.novel_cases = coverage.novel
    report.wall_seconds = time.perf_counter() - started
    return report


def replace_seed(case: FuzzCase, seed: int) -> FuzzCase:
    """The case re-stamped with the seed that derived it (lineage)."""
    return dataclasses_replace(case, seed=seed)


# ----------------------------------------------------------------------
# the injected faulty backend (CI acceptance + selector tests)
# ----------------------------------------------------------------------

class BrokenPhaseBackend(DenseBackend):
    """Dense variant with a deliberate T-gate phase bug.

    Applies ``T`` as a pi/3 phase instead of pi/4 -- subtle enough to
    survive Clifford-only circuits (fidelity stays 1.0 without a T gate),
    so only a differential check over the right gate mix catches it, and
    the minimized reproducer is tiny (one superposition + one ``t``).
    """

    name = "broken-phase"

    def apply(self, state: np.ndarray, operation: Operation,
              num_qubits: int) -> None:
        if operation.gate == "t":
            operation = Operation("p", operation.target,
                                  operation.controls, (math.pi / 3,))
        super().apply(state, operation, num_qubits)


def register_broken_backend() -> str:
    """Register the faulty backend; returns its name (for cleanup)."""
    register_backend(BrokenPhaseBackend.name, BrokenPhaseBackend,
                     replace=True)
    return BrokenPhaseBackend.name


def unregister_broken_backend() -> None:
    unregister_backend(BrokenPhaseBackend.name)


# ----------------------------------------------------------------------
# corpus I/O
# ----------------------------------------------------------------------

def write_corpus(report: FuzzReport, directory: str) -> list[str]:
    """Write one JSON reproducer per failure plus a campaign summary.

    Returns the written file paths.  The directory is created on demand;
    an empty failure list writes only the summary.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, failure in enumerate(report.failures):
        path = os.path.join(
            directory,
            f"repro_{failure.backend}_{failure.seed}_{index}.json")
        with open(path, "w") as handle:
            json.dump(failure.as_dict(), handle, indent=2)
            handle.write("\n")
        paths.append(path)
    summary_path = os.path.join(directory, "summary.json")
    with open(summary_path, "w") as handle:
        json.dump(report.as_dict(), handle, indent=2)
        handle.write("\n")
    paths.append(summary_path)
    return paths


# ----------------------------------------------------------------------
# sweep integration (kind="fuzz" cells)
# ----------------------------------------------------------------------

def run_fuzz_cell(metadata: dict, seed: int = 0) -> SimulationStatistics:
    """Execute one fuzz campaign as a sweep cell.

    ``metadata`` carries a :meth:`FuzzConfig.as_dict` payload plus
    optional ``mode`` (``differential`` | ``plans`` | ``mutate``),
    ``budget_seconds`` / ``max_circuits`` / ``corpus`` /
    ``register_broken`` keys.  The cell's deterministic sweep seed
    replaces the config seed unless the config pinned one explicitly.

    Success returns statistics (checked-circuit count in
    ``operations_applied``); any disagreement raises :class:`FuzzMismatch`
    with the minimized reproducers in the message, so the sweep runner
    records the cell as failed and the report carries the evidence.
    """
    payload = dict(metadata)
    if "seed" not in payload or payload.get("seed") is None:
        payload["seed"] = seed
    if payload.pop("register_broken", False):
        register_broken_backend()
    mode = payload.pop("mode", "differential")
    budget = payload.pop("budget_seconds", None)
    max_circuits = payload.pop("max_circuits", None)
    corpus = payload.pop("corpus", None)
    config = FuzzConfig.from_dict(payload)
    if mode == "plans":
        report = run_plans(config, budget_seconds=budget,
                           max_cases=max_circuits)
    elif mode == "mutate":
        report = run_mutation(config, budget_seconds=budget,
                              max_cases=max_circuits)
    elif mode == "differential":
        fuzzer = DifferentialFuzzer(config)
        report = fuzzer.run(budget_seconds=budget,
                            max_circuits=max_circuits)
    else:
        raise ValueError(f"unknown fuzz mode {mode!r}; expected "
                         f"'differential', 'plans' or 'mutate'")
    if corpus:
        write_corpus(report, corpus)
    if not report.ok:
        details = "\n".join(failure.summary()
                            for failure in report.failures)
        raise FuzzMismatch(
            f"{len(report.failures)} disagreement(s) in "
            f"{report.circuits_checked} circuit(s) ({mode}):\n{details}")
    statistics = SimulationStatistics(
        strategy="fuzz" if mode == "differential" else f"fuzz-{mode}",
        circuit_name=f"fuzz-seed-{config.seed}",
        num_qubits=config.max_qubits, backend="+".join(report.backends))
    statistics.operations_applied = report.circuits_checked
    statistics.matrix_vector_mults = report.comparisons
    statistics.wall_time_seconds = report.wall_seconds
    return statistics
