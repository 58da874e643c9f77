"""The repository's benchmark: the paper's strategy arms on both DD kernels.

    python3 perfbench/run.py --workload grover_table1 --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
A single process drives one sample at a time (closed loop, no threads):
one input on one arm with a fresh engine.  Arms are interleaved
round-robin, so that a slow phase of the host hits every arm.  Every time
is in host-normalized seconds (see ``hostindex.py``); raw wall seconds and
the host index are printed beside it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
sample once untraced and once with layer spans (``tracing.py``) and prints
the per-layer metrics.  The last line of standard output is the JSON
result.  See README.md for the workloads and the metric -> layer table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import hostindex

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
#: share of a traced sample that layer spans must account for
CLOSURE_FLOOR = 0.95

#: layers each workload must record a span in (a wrapper bound to the
#: wrong name records none, without any error)
EXPECTED_LAYERS = {
    "grover_table1": ("algorithms", "simulation.engine", "dd.apply_gate",
                      "dd.mxv", "dd.mxm", "dd.gate_dd", "dd.count_nodes",
                      "dd.solidify"),
    "supremacy_random": ("algorithms", "simulation.engine", "dd.apply_gate",
                         "dd.mxv", "dd.mxm", "dd.gate_dd", "dd.count_nodes",
                         "dd.solidify", "dd.gc", "simulation.reorder",
                         "simulation.checkpoint.write",
                         "simulation.checkpoint.read"),
    "shor_table2": ("algorithms", "simulation.engine", "dd.apply_gate",
                    "dd.mxv", "dd.mxm", "dd.gate_dd", "dd.count_nodes",
                    "dd.construct", "dd.measure"),
}
SELF_LAYERS = ("algorithms", "simulation.engine", "dd.apply_gate", "dd.mxv",
               "dd.mxm", "dd.gate_dd", "dd.count_nodes", "dd.construct",
               "dd.measure", "dd.solidify", "dd.gc", "simulation.reorder")
CALL_LAYERS = ("algorithms", "dd.apply_gate", "dd.mxv", "dd.mxm",
               "dd.gate_dd", "dd.count_nodes", "dd.construct", "dd.measure",
               "simulation.reorder")
#: (metric prefix, compute table, recursion counter)
TABLES = (("dd.apply_gate", "apply_gate", "apply_gate_recursions"),
          ("dd.mxv", "mult_mv", "mult_mv_recursions"),
          ("dd.mxm", "mult_mm", "mult_mm_recursions"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grover_table1", "supremacy_random",
                                 "shor_table2"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int) -> None:
    """One set-up in a fresh interpreter: import, inputs, engines."""
    before, _ = hostindex.measure()
    start = time.perf_counter()
    import repro  # noqa: F401  (PYTHONPATH points at src)
    import workloads
    workloads.make_inputs(workload, seed)
    for kernel in workloads.KERNELS:
        workloads.make_engine(kernel)
    wall = time.perf_counter() - start
    after, _ = hostindex.measure()
    print(json.dumps({"wall": wall, "host": (before + after) / 2}))


def measure_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """Median normalized, raw and host seconds over fresh set-ups."""
    env = dict(os.environ, PYTHONPATH=SRC)
    normalized, raw, hosts = [], [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(probe["wall"])
        hosts.append(probe["host"])
        normalized.append(probe["wall"] * hostindex.REFERENCE_S
                          / probe["host"])
    return (statistics.median(normalized), statistics.median(raw),
            statistics.median(hosts))


class Probe:
    """Host readings inside a long sample, at engine op boundaries.

    A 2-s supremacy sample often spans a change of host speed that the
    readings before and after it miss; one loop pass every ``EVERY``
    seconds of sample time follows it.  The passes' own time is taken out
    of the sample.  ``on_op`` costs one clock read between readings.
    """

    EVERY = 0.1

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent = 0.0
        self._due = time.perf_counter() + self.EVERY

    def __call__(self, _index: int) -> None:
        now = time.perf_counter()
        if now < self._due:
            return
        seconds, _ = hostindex.measure(passes=1)
        self.readings.append(seconds)
        done = time.perf_counter()
        self.spent += done - now
        self._due = done + self.EVERY


class Host:
    """Reference-loop readings between samples; one reading is shared by
    the sample before it and the sample after it."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.last = self._read()

    def _read(self) -> float:
        gc.collect()
        seconds, gc_off = hostindex.measure()
        if not gc_off:
            raise RuntimeError("reference loop ran with the cyclic GC on")
        self.readings.append(seconds)
        return seconds

    def around_sample(self, inside: list[float] = ()) -> float:
        """Host index of the sample that just ended."""
        before, self.last = self.last, self._read()
        return statistics.fmean([before, *inside, self.last])


def sample_counts(outcome, repeats: int, workloads) -> Counter:
    """Work counts of a sample: its last run's package counts times the
    number of (identical) runs, and that run's schedule."""
    counts: Counter = Counter()
    for package in outcome.packages:
        cache = package.cache_stats()
        counters = package.counters
        compute = cache["compute"]
        for prefix, table, recursions in TABLES:
            counts[prefix + ".hits"] += compute[table]["hits"]
            counts[prefix + ".lookups"] += compute[table]["lookups"]
            counts[prefix + ".recursions"] += getattr(counters, recursions)
        counts["add_vec.hits"] += compute["add_vec"]["hits"]
        counts["add_vec.lookups"] += compute["add_vec"]["lookups"]
        for table in cache["unique"].values():
            counts["unique.hits"] += table["hits"]
            counts["unique.lookups"] += table["lookups"]
        counts["complex.hits"] += cache["complex"]["hits"]
        counts["complex.lookups"] += (cache["complex"]["hits"]
                                      + cache["complex"]["misses"])
        counts["dd.tables.add_recursions"] += counters.add_recursions
        counts["dd.tables.nodes_created"] += counters.nodes_created
        counts["dd.gc.collections"] += package.gc_stats.collections
        dense = cache.get("kernel", {}).get("dense", {})
        counts["dense.applies"] += dense.get("applies", 0)
        counts["dd.kernel.dense_cutovers"] += dense.get("cutovers", 0)
    stats = outcome.statistics
    counts["state_updates"] += stats.matrix_vector_mults
    for name in counts:
        counts[name] *= repeats
    for name, value in zip(("schedule.mxv", "schedule.mxm",
                            "schedule.reused", "schedule.direct"),
                           workloads.schedule(stats)):
        counts[name] += value
    return counts


class Run:
    """One benchmark run: samples, checks and the metrics they give."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        import workloads
        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.inputs = workloads.make_inputs(workload, seed)
        workloads.add_references(self.inputs)
        self.checker = workloads.Checker()
        self.attempted = 0
        self.failed = 0
        self.host = Host()
        os.makedirs(WORKDIR, exist_ok=True)

    def sample(self, arm, inp, tracer=None):
        """Run, time and check one sample; returns (normalized s, raw s,
        host s, outcome).

        A sample is ``arm.repeats`` identical fresh runs; between them,
        outside the timed region, the previous run's DDs are dropped and
        the host is read once more.
        """
        self.attempted += 1
        probe = Probe()
        wall = 0.0
        outcome = None
        try:
            for repeat in range(arm.repeats):
                outcome = None
                if repeat:
                    probe.readings.append(hostindex.measure(passes=1)[0])
                start = time.perf_counter()
                try:
                    if tracer is None:
                        outcome = self.w.run_sample(arm, inp, WORKDIR, probe)
                    else:
                        tracer.sample_id = f"{arm.name}/{inp.label}"
                        with tracer.installed():
                            outcome = tracer.call("sample",
                                                  self.w.run_sample, arm,
                                                  inp, WORKDIR)
                finally:
                    wall += time.perf_counter() - start
            problems = self.checker.check(arm, inp, outcome)
        except Exception as exc:  # noqa: BLE001 -- a raising sample fails
            outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
        host = self.host.around_sample(probe.readings)
        if problems:
            self.failed += 1
            print(f"FAIL {arm.name} {inp.label}: {'; '.join(problems)}",
                  file=sys.stderr)
        wall = (wall - probe.spent) / arm.repeats
        return wall * hostindex.REFERENCE_S / host, wall, host, outcome

    def rounds(self, arms):
        """(arm, input) pairs, input-major and arm-rotated, until the
        whole batch ran once and ``seconds`` are used up."""
        start = time.perf_counter()
        last_round: dict[int, float] = {}
        index = 0
        while True:
            i = index % len(self.inputs)
            elapsed = time.perf_counter() - start
            if index >= len(self.inputs) and \
                    elapsed + last_round.get(i, 0.0) > self.seconds:
                return
            began = time.perf_counter()
            shift = index % len(arms)
            for arm in arms[shift:] + arms[:shift]:
                yield arm, self.inputs[i]
            last_round[i] = time.perf_counter() - began
            index += 1

    # -- end-to-end ----------------------------------------------------

    def end_to_end(self, setup) -> dict:
        arms = self.w.arms(self.workload, traced=False)
        times = {arm.name: defaultdict(list) for arm in arms}
        for arm, inp in self.rounds(arms):
            normalized, raw, host, _ = self.sample(arm, inp)
            times[arm.name][inp.label].append((normalized, raw, host))
        metrics = {}
        for arm in arms:
            per_input = times[arm.name].values()
            value = sum(statistics.median(s[0] for s in samples)
                        for samples in per_input)
            raw = sum(statistics.median(s[1] for s in samples)
                      for samples in per_input)
            hosts = [s[2] for samples in per_input for s in samples]
            count = sum(len(samples) for samples in per_input)
            metrics[arm.name] = (value, "s")
            print(f"{arm.name:28s} {value:10.4f} s normalized  "
                  f"raw {raw:9.4f} s  host.calibration_s "
                  f"{statistics.median(hosts):.5f}  samples {count}")
        value, raw, host = setup
        metrics["setup_s"] = (value, "s")
        print(f"{'setup_s':28s} {value:10.4f} s normalized  raw {raw:9.4f}"
              f" s  host.calibration_s {host:.5f}  set-ups "
              f"{SETUP_REPEATS}")
        metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
        metrics["pass_ratio"] = ((self.attempted - self.failed)
                                 / self.attempted, "ratio")
        return metrics

    # -- per layer -----------------------------------------------------

    def per_layer(self) -> tuple[dict, list[str]]:
        import tracing
        tracer = tracing.Tracer()
        groups = {"": Counter(), ".iterative": Counter()}
        peaks = {"": Counter(), ".iterative": Counter()}
        layers_seen: set[str] = set()
        problems: list[str] = []
        # Inputs rebuilt under the tracer: the generators' share of set-up.
        tracer.sample_id = "setup"
        tracer.call("setup", self.w.make_inputs, self.workload, self.seed,
                    tracer.call)
        self._fold(groups[""], tracer, self.host.around_sample(),
                   layers_seen)
        traced_total = untraced_total = 0.0
        # arm -> [covered normalized s, traced normalized s, traced raw s,
        #         peak state nodes]
        closure: dict[str, list[float]] = defaultdict(lambda: [0.0] * 4)
        for inp in self.inputs:
            for arm in self.w.arms(self.workload, traced=True):
                # A resilient run costs ~10 s; one input keeps the traced
                # run well inside its time limit.
                if arm.strategy == "resilient" and inp is not self.inputs[0]:
                    continue
                group = ".iterative" if arm.kernel == "iterative" else ""
                if arm.strategy != "resilient":
                    untraced, _, _, _ = self.sample(arm, inp)
                normalized, raw, host, outcome = self.sample(arm, inp,
                                                             tracer)
                if arm.strategy == "resilient":
                    groups[group][arm.name] += normalized
                else:
                    untraced_total += untraced
                    traced_total += normalized
                covered, total = self._fold(groups[group], tracer, host,
                                            layers_seen)
                closure[arm.name][0] += covered
                closure[arm.name][1] += total
                closure[arm.name][2] += raw * arm.repeats
                if outcome is None:
                    continue
                groups[group].update(sample_counts(outcome, arm.repeats,
                                                   self.w))
                stats = outcome.statistics
                closure[arm.name][3] = max(closure[arm.name][3],
                                           stats.peak_state_nodes)
                for name, value in (
                        ("dd.peak_state_nodes", stats.peak_state_nodes),
                        ("dd.peak_matrix_nodes", stats.peak_matrix_nodes)):
                    peaks[group][name] = max(peaks[group][name], value)
        for arm_name, (covered, total, raw, peak) in sorted(closure.items()):
            share = covered / total if total else 1.0
            print(f"trace closure {arm_name:26s} {share:.4f} of "
                  f"{total:.4f} s normalized  raw {raw:.4f} s  "
                  f"peak state nodes {peak:.0f}")
            if share < CLOSURE_FLOOR:
                problems.append(f"layers cover only {share:.1%} of "
                                f"{arm_name}")
        missing = [layer for layer in EXPECTED_LAYERS[self.workload]
                   if layer not in layers_seen]
        if missing:
            problems.append(f"no spans recorded for {missing}")
        metrics = {}
        for group, counts in groups.items():
            metrics.update(layer_metrics(counts, peaks[group], group))
        metrics["trace.overhead_ratio"] = (traced_total / untraced_total,
                                           "ratio")
        metrics["host.calibration_s"] = (
            statistics.median(self.host.readings), "s")
        return metrics, problems

    def _fold(self, counts: Counter, tracer, host: float,
              layers_seen: set) -> tuple[float, float]:
        """Add a sample's spans to ``counts``; returns (covered, total)
        normalized seconds."""
        factor = hostindex.REFERENCE_S / host
        self_s, calls, root = tracer.summarize()
        layers_seen.update(calls)
        for layer, seconds in self_s.items():
            counts[layer + ".self_s"] += seconds * factor
        for layer, number in calls.items():
            counts[layer + ".calls"] += number
        counts["simulation.checkpoint.bytes"] += tracer.checkpoint_bytes
        tracer.checkpoint_bytes = 0
        uncovered = self_s.get("<sample>", 0.0)
        return (root - uncovered) * factor, root * factor


def _ratio(counts: Counter, hits: str, lookups: str) -> float:
    return counts[hits] / counts[lookups] if counts[lookups] else 0.0


def layer_metrics(counts: Counter, peaks: Counter, group: str) -> dict:
    """Per-layer metrics of one kernel group ("" or ".iterative")."""
    metrics = {}

    def put(name, value, unit):
        metrics[name + group] = (value, unit)

    for layer in SELF_LAYERS:
        put(f"{layer}.self_s", counts[f"{layer}.self_s"], "s")
    for layer in CALL_LAYERS:
        put(f"{layer}.calls", counts[f"{layer}.calls"], "count")
    for prefix, _, _ in TABLES:
        put(f"{prefix}.hit_rate",
            _ratio(counts, f"{prefix}.hits", f"{prefix}.lookups"), "ratio")
        put(f"{prefix}.recursions", counts[f"{prefix}.recursions"], "count")
    put("dd.tables.add_vec_hit_rate",
        _ratio(counts, "add_vec.hits", "add_vec.lookups"), "ratio")
    put("dd.tables.unique_hit_rate",
        _ratio(counts, "unique.hits", "unique.lookups"), "ratio")
    put("dd.tables.complex_hit_rate",
        _ratio(counts, "complex.hits", "complex.lookups"), "ratio")
    for name in ("dd.tables.add_recursions", "dd.tables.nodes_created",
                 "dd.gc.collections", "schedule.mxv", "schedule.mxm",
                 "schedule.reused", "schedule.direct"):
        put(name, counts[name], "count")
    put("dd.peak_matrix_nodes", peaks["dd.peak_matrix_nodes"], "nodes")
    put("simulation.checkpoint.write_s",
        counts["simulation.checkpoint.write.self_s"], "s")
    put("simulation.checkpoint.read_s",
        counts["simulation.checkpoint.read.self_s"], "s")
    put("simulation.checkpoint.bytes", counts["simulation.checkpoint.bytes"],
        "B")
    resilient = "t_resilient_iterative_s" if group else "t_resilient_s"
    metrics[resilient] = (counts[resilient], "s")
    # Dense blocks exist only on the iterative kernel, and there a dense
    # state reports its amplitude capacity as its node count.
    if group:
        put("dd.kernel.dense_cutovers", counts["dd.kernel.dense_cutovers"],
            "count")
        put("dd.kernel.dense_share",
            _ratio(counts, "dense.applies", "state_updates"), "ratio")
    else:
        put("dd.peak_state_nodes", peaks["dd.peak_state_nodes"], "nodes")
    return metrics


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    # Self-check of the host index: it must be measurable before (and so
    # without) anything from repro being imported.
    hostindex.measure()
    if any(name == "repro" or name.startswith("repro.")
           for name in sys.modules):
        print("error: the reference loop imported repro", file=sys.stderr)
        return 2
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    sys.path.insert(0, SRC)
    run = Run(args.workload, args.seed, args.seconds)
    gc.collect()
    gc.freeze()
    problems: list[str] = []
    if args.trace:
        metrics, problems = run.per_layer()
    else:
        metrics = run.end_to_end(setup)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
