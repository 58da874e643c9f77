"""Outside-in layer spans: wrappers around the public call of each layer.

Wrappers are installed only around traced samples and patched where the
caller looks the name up -- ``engine.py`` and ``algorithms/shor.py`` import
several layer functions by name, so patching the defining module would
record nothing and raise no error (the closure check in ``run.py`` catches
exactly that).  Private recursions such as ``_mult_mv`` or ``_add`` are
never wrapped; the package's own counters already cover that work.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.algorithms import shor as shor_module
from repro.dd.package import Package
from repro.simulation import engine as engine_module
from repro.simulation.engine import SimulationEngine

import workloads

#: (layer, owner, attribute): every public call the benchmark times.
PATCHES = (
    # the fresh engine (and DD package) each sample builds
    ("simulation.engine", workloads, "make_engine"),
    ("simulation.engine", SimulationEngine, "simulate"),
    ("simulation.engine", SimulationEngine, "resume"),
    ("dd.apply_gate", Package, "apply_gate"),
    ("dd.mxv", Package, "multiply_matrix_vector"),
    ("dd.mxm", Package, "multiply_matrix_matrix"),
    ("dd.count_nodes", Package, "count_nodes"),
    ("dd.gc", Package, "garbage_collect"),
    ("dd.solidify", Package, "solidify"),
    ("dd.gate_dd", engine_module, "build_gate_dd"),
    ("dd.gate_dd", shor_module, "build_gate_dd"),
    ("dd.construct", shor_module, "build_controlled_permutation_dd"),
    ("dd.construct", shor_module, "modular_multiplication_permutation"),
    ("dd.measure", shor_module, "measure_qubit"),
    ("algorithms", shor_module.ShorOrderFinder, "run"),
    ("algorithms", shor_module, "append_controlled_ua"),
    ("simulation.reorder", engine_module, "sift"),
    ("simulation.checkpoint.write", engine_module, "save_checkpoint"),
    ("simulation.checkpoint.write", engine_module, "serialize_dd"),
    ("simulation.checkpoint.read", engine_module, "load_checkpoint"),
    ("simulation.checkpoint.read", engine_module, "deserialize_dd"),
)


class Tracer:
    """Keeps the spans of one sample in memory: name, start, end, parent.

    Every span of a sample carries the sample's id; :meth:`summarize`
    folds them into per-layer self time and call counts.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.sample_id = ""
        self.checkpoint_bytes = 0

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``layer``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [layer, time.perf_counter(), 0.0, parent, self.sample_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if fn.__name__ == "save_checkpoint":
                self.checkpoint_bytes += os.path.getsize(result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every layer boundary for the duration of the block."""
        originals = [(owner, name, owner.__dict__[name])
                     for _, owner, name in PATCHES]
        try:
            for layer, owner, name in PATCHES:
                setattr(owner, name, self._wrap(layer, owner.__dict__[name]))
            yield self
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)

    def summarize(self) -> tuple[dict[str, float], dict[str, int], float]:
        """``(self seconds by layer, calls by layer, root span seconds)``.

        Self time is a span's duration minus its children's durations.
        The root span (the sample itself) is reported separately; its self
        time is the part of the sample no layer accounts for.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if parent < 0:
                root += end - start
                self_s["<sample>"] += end - start - child[index]
                continue
            self_s[name] += end - start - child[index]
            calls[name] += 1
        self.spans.clear()
        return dict(self_s), dict(calls), root
