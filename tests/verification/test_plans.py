"""Option-surface fuzzing: plans, cases, coverage, mutation.

The option surface (kernel choice, dense blocks, strategy, reordering
cadence, memory budgets, checkpoint/resume) is where bugs have
historically hidden -- each past PR's post-mortem bug lived in an option
*interaction*, not in a single gate path.  These tests pin the fuzzing
machinery itself plus the acceptance property: a planted reorder-path bug
is caught and minimized to a tiny reproducer.
"""

import math
from random import Random

import pytest

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.operation import Operation
from repro.verification import (BrokenReorderEngine, CoverageMap,
                                FuzzCase, FuzzConfig, RunPlan, check_case,
                                coverage_signature, dense_fidelity,
                                draw_case, draw_plan, engine_class,
                                execute_plan, mutate_case, run_mutation,
                                run_plans)
from repro.verification.cases import _delete_operation


def entangler(num_qubits=5):
    circuit = QuantumCircuit(num_qubits, name="entangler")
    for qubit in range(num_qubits):
        circuit.append(Operation("h", qubit))
    for qubit in range(num_qubits - 1):
        circuit.append(Operation("x", qubit + 1, ((qubit, 1),)))
    for qubit in range(num_qubits):
        circuit.append(Operation("t", qubit))
    for qubit in range(num_qubits - 1):
        circuit.append(Operation("x", 0, ((qubit + 1, 1),)))
    return circuit


# -- RunPlan: the option schedule as data ------------------------------


class TestRunPlan:
    def test_defaults_are_the_plain_path(self):
        plan = RunPlan()
        assert plan.options() == []
        assert plan.describe() == "plain"

    def test_options_and_without_are_inverse(self):
        plan = RunPlan(kernel="iterative", reorder="every=2",
                       max_nodes=96)
        assert len(plan.options()) == 3
        for option in plan.options():
            shrunk = plan.without(option)
            assert len(shrunk.options()) == 2
            assert option not in shrunk.options()

    def test_round_trip(self):
        plan = RunPlan(kernel="iterative", strategy="repeating:k=2",
                       reorder="governor", max_nodes=48, checkpoint_at=7)
        assert RunPlan.from_dict(plan.as_dict()) == plan

    @pytest.mark.parametrize("payload", [
        {"kernel": "vectorised"},
        {"strategy": "no-such-strategy"},
        {"reorder": "sometimes"},
        {"max_nodes": 0},
        {"checkpoint_at": -3},
    ])
    def test_validate_rejects_bad_options(self, payload):
        with pytest.raises(ValueError):
            RunPlan.from_dict(payload)

    def test_without_unknown_option_raises(self):
        with pytest.raises(ValueError):
            RunPlan().without("tolerance=0")

    def test_draw_plan_always_valid(self):
        rng = Random(5)
        for _ in range(200):
            draw_plan(rng).validate()
            draw_plan(rng, block=True).validate()


# -- execute_plan: outcomes of the option schedule ---------------------


class TestExecutePlan:
    def test_plain_plan_matches_oracle(self):
        outcome = execute_plan(entangler(), RunPlan())
        assert outcome.ok and not outcome.resumed
        assert dense_fidelity(outcome.result, entangler()) == \
            pytest.approx(1.0)

    def test_option_heavy_plan_still_matches_oracle(self):
        plan = RunPlan(kernel="iterative", strategy="repeating:k=2",
                       reorder="every=2", max_nodes=96)
        outcome = execute_plan(entangler(), plan)
        assert outcome.ok
        assert dense_fidelity(outcome.result, entangler()) == \
            pytest.approx(1.0)

    def test_checkpoint_resumes_through_a_second_engine(self):
        outcome = execute_plan(entangler(), RunPlan(checkpoint_at=4))
        assert outcome.ok and outcome.resumed
        assert dense_fidelity(outcome.result, entangler()) == \
            pytest.approx(1.0)

    def test_tiny_budget_aborts_instead_of_failing(self):
        outcome = execute_plan(entangler(), RunPlan(max_nodes=8))
        assert outcome.budget_aborted
        assert not outcome.ok and outcome.error is None

    def test_crash_is_reported_not_raised(self):
        circuit = QuantumCircuit(2, name="bad")
        circuit.append(Operation("h", 0))

        class ExplodingEngine(engine_class("default")):
            def simulate(self, *args, **kwargs):
                raise RuntimeError("boom")

        outcome = execute_plan(circuit, RunPlan(),
                               engine_cls=ExplodingEngine)
        assert outcome.error == "RuntimeError: boom"
        assert not outcome.ok

    def test_engine_registry(self):
        assert engine_class("broken-reorder") is BrokenReorderEngine
        with pytest.raises(ValueError):
            engine_class("no-such-engine")


# -- FuzzCase: structural cases with blocks and plans ------------------


class TestFuzzCase:
    def test_round_trip_preserves_everything(self):
        case = draw_case(Random(17), seed=17)
        again = FuzzCase.from_dict(case.as_dict())
        assert again == case

    def test_drawn_cases_are_valid_and_runnable(self):
        rng = Random(3)
        for _ in range(30):
            case = draw_case(rng)
            case.validate()
            circuit = case.circuit()
            assert circuit.num_qubits == case.num_qubits

    def test_block_again_appends_the_same_block_object(self):
        operations = (Operation("h", 0), Operation("x", 1, ((0, 1),)),
                      Operation("t", 1))
        case = FuzzCase(num_qubits=2, operations=operations,
                        plan=RunPlan(), block=(0, 2, 2),
                        block_again=True)
        blocks = [instr for instr in case.circuit().instructions
                  if not isinstance(instr, Operation)]
        assert len(blocks) == 2
        assert blocks[0] is blocks[1]

    def test_check_case_passes_on_default_engine(self):
        case = draw_case(Random(23), seed=23)
        verdict = check_case(case)
        assert not verdict.failed


# -- coverage signatures: the novelty signal ---------------------------


class TestCoverage:
    def test_signature_reflects_plan_and_outcome(self):
        plan = RunPlan(kernel="iterative", reorder="every=1")
        outcome = execute_plan(entangler(), plan)
        signature = coverage_signature(plan, outcome)
        assert "kernel:iterative" in signature
        assert "reorder-mode:every" in signature
        assert any(bucket.startswith("mxv-band:")
                   for bucket in signature)

    def test_budget_abort_short_circuits_the_signature(self):
        plan = RunPlan(max_nodes=8)
        outcome = execute_plan(entangler(), plan)
        signature = coverage_signature(plan, outcome)
        assert "budget-aborted" in signature
        assert not any(bucket.startswith("mxv-band:")
                       for bucket in signature)

    def test_map_reports_novelty_once(self):
        coverage = CoverageMap()
        signature = frozenset({"kernel:recursive", "mxv-band:3"})
        assert coverage.observe(signature)
        assert not coverage.observe(signature)
        assert coverage.observe(signature | {"reorders:1"})
        assert len(coverage) == 3


# -- mutation: structure-preserving case perturbation ------------------


class TestMutation:
    def test_mutants_stay_valid(self):
        rng = Random(9)
        case = draw_case(rng)
        for _ in range(150):
            case = mutate_case(case, rng)
            case.validate()    # raises on any structural corruption
            case.circuit()     # and the circuit must still build

    def test_mutation_changes_the_case(self):
        rng = Random(4)
        case = draw_case(rng)
        changed = sum(mutate_case(case, Random(i)) != case
                      for i in range(20))
        assert changed == 20

    def test_rotation_angles_stay_finite(self):
        rng = Random(12)
        case = draw_case(rng, rotation_probability=1.0)
        for _ in range(60):
            case = mutate_case(case, rng)
        for operation in case.operations:
            for param in operation.params:
                assert math.isfinite(param)


# -- campaigns: the acceptance property --------------------------------


class TestCampaigns:
    def test_clean_engine_campaign_finds_nothing(self):
        report = run_plans(FuzzConfig(seed=6), max_cases=25)
        assert report.ok
        assert report.circuits_checked + report.cases_skipped == 25

    def test_mutation_campaign_accumulates_coverage(self):
        report = run_mutation(FuzzConfig(seed=6), max_cases=30)
        assert report.ok
        assert report.coverage_buckets > 10
        assert report.novel_cases > 0

    def test_planted_reorder_bug_is_caught_and_minimized(self):
        # The acceptance criterion: an engine that skips reorder
        # notifications (stale block cache, uncleared extra roots) must
        # be caught by the option-surface campaign and minimized.  It is
        # caught at case 28, whose plan interrupts at op 11 and resumes:
        # DD-repeating keeps its block cache on every run, also a resumed
        # one, so a cadence sift leaves it stale.  The minimizer stops at
        # 9 gates on 5 qubits under a 2-step plan; the corpus entry
        # reorder-notify-block-cache pins a 3-gate reproducer.
        config = FuzzConfig(seed=11, max_failures=1,
                            plan_engine="broken-reorder")
        report = run_plans(config, max_cases=400)
        assert not report.ok
        assert report.circuits_checked == 28
        failure = report.failures[0]
        assert failure.case is not None
        assert failure.engine == "broken-reorder"
        case = FuzzCase.from_dict(failure.case)
        assert (case.gate_count(), case.num_qubits) == (9, 5)
        assert len(case.plan.options()) <= 2
        assert case.plan.options() == ["strategy=repeating", "reorder=every=1"]
        # the minimized reproducer must still fail on the broken engine
        # and pass on the default one -- it pins the bug, not noise
        assert check_case(case, engine_cls=BrokenReorderEngine).failed
        assert not check_case(case).failed
        # 1-minimal: deleting any one gate (block indices adjusted, as
        # the minimizer deletes gates) makes it pass on the broken engine
        for index in range(case.gate_count()):
            shorter = _delete_operation(case, index)
            assert not check_case(shorter,
                                  engine_cls=BrokenReorderEngine).failed
