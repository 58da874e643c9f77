"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.circuit import GATES, Operation, QuantumCircuit
from repro.dd import Package

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def package() -> Package:
    return Package()


@pytest.fixture
def recursive_apply_calls(monkeypatch) -> list[int]:
    """The level of every ``Package._mult_mv`` call made during the test:
    the object core's Eq. 1 step, which an iterative-kernel run of
    elementary gates never needs."""
    calls: list[int] = []
    original = Package._mult_mv

    def recording(self, mn, vn):
        calls.append(vn.level)
        return original(self, mn, vn)

    monkeypatch.setattr(Package, "_mult_mv", recording)
    return calls


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------

def amplitudes(num_qubits: int):
    """Non-zero complex amplitude vectors of length 2^num_qubits."""
    size = 1 << num_qubits
    component = st.floats(min_value=-1.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False, width=32)
    return st.lists(
        st.tuples(component, component), min_size=size, max_size=size,
    ).map(
        lambda pairs: np.array([complex(re, im) for re, im in pairs])
    ).filter(lambda v: np.linalg.norm(v) > 1e-3)


def unit_vectors(num_qubits: int):
    """Normalised random state vectors."""
    return amplitudes(num_qubits).map(lambda v: v / np.linalg.norm(v))


def square_matrices(num_qubits: int):
    """Random dense complex matrices of side 2^num_qubits."""
    size = 1 << num_qubits
    component = st.floats(min_value=-1.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False, width=32)
    return st.lists(
        st.tuples(component, component),
        min_size=size * size, max_size=size * size,
    ).map(lambda pairs: np.array(
        [complex(re, im) for re, im in pairs]).reshape(size, size))


_PARAMETRIC = {"rx", "ry", "rz", "p"}
_SIMPLE_GATES = sorted(set(GATES) - {"u", "gu", "id"})


@st.composite
def operations(draw, num_qubits: int, max_controls: int = 2):
    """A random (multi-)controlled single-qubit operation."""
    gate = draw(st.sampled_from(_SIMPLE_GATES))
    target = draw(st.integers(0, num_qubits - 1))
    available = [q for q in range(num_qubits) if q != target]
    control_count = draw(st.integers(0, min(max_controls, len(available))))
    control_qubits = draw(st.permutations(available)) if control_count else []
    controls = tuple(
        (qubit, draw(st.integers(0, 1)))
        for qubit in control_qubits[:control_count])
    params = ()
    if gate in _PARAMETRIC:
        params = (draw(st.floats(min_value=-math.pi, max_value=math.pi,
                                 allow_nan=False)),)
    return Operation(gate, target, controls, params)


@st.composite
def circuits(draw, min_qubits: int = 1, max_qubits: int = 4,
             max_operations: int = 12):
    """A random circuit of random elementary operations."""
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    count = draw(st.integers(0, max_operations))
    circuit = QuantumCircuit(num_qubits, name="random")
    for _ in range(count):
        circuit.append(draw(operations(num_qubits)))
    return circuit
