"""Conversion between DDs and dense numpy arrays.

Dense conversion is exponential in the qubit count by nature; it exists for
validation, testing and debugging on small systems, and deliberately lives
outside the hot simulation path.
"""

from __future__ import annotations

import numpy as np

from .edge import Edge
from .package import Package

__all__ = [
    "vector_to_numpy",
    "matrix_to_numpy",
    "vector_from_numpy",
    "matrix_from_numpy",
]


def vector_to_numpy(state: Edge, num_qubits: int) -> np.ndarray:
    """Expand a state DD into its dense ``2^n`` amplitude vector."""
    size = 1 << num_qubits
    result = np.zeros(size, dtype=complex)
    if state.weight == 0:
        return result
    if state.node.level != num_qubits - 1:
        raise ValueError(f"state has {state.node.level + 1} qubits, "
                         f"expected {num_qubits}")
    _fill_vector(result, state.node, 0, state.weight)
    return result


def matrix_to_numpy(matrix: Edge, num_qubits: int) -> np.ndarray:
    """Expand a matrix DD into its dense ``2^n x 2^n`` array."""
    size = 1 << num_qubits
    result = np.zeros((size, size), dtype=complex)
    if matrix.weight == 0:
        return result
    if matrix.node.level > num_qubits - 1:
        raise ValueError(f"matrix has {matrix.node.level + 1} qubits, "
                         f"expected {num_qubits}")
    _fill_matrix(result, matrix.node, 0, 0, matrix.weight, num_qubits - 1)
    return result


def vector_from_numpy(package: Package, amplitudes) -> Edge:
    """Build a state DD from a dense amplitude vector (length ``2^n``)."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    size = amplitudes.shape[0]
    num_qubits = size.bit_length() - 1
    if size != 1 << num_qubits or amplitudes.ndim != 1:
        raise ValueError("amplitude vector length must be a power of two")
    return _build_vector(package, amplitudes, num_qubits - 1, 0)


def matrix_from_numpy(package: Package, matrix) -> Edge:
    """Build a matrix DD from a dense square array (side ``2^n``)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    size = matrix.shape[0]
    num_qubits = size.bit_length() - 1
    if size != 1 << num_qubits:
        raise ValueError("matrix side must be a power of two")
    return _build_matrix(package, matrix, num_qubits - 1, 0, 0)


# Module-level walkers: a self-calling closure would keep the package (or
# the output array) alive in a reference cycle until the cyclic collector
# runs.

def _fill_vector(result: np.ndarray, node, offset: int,
                 weight: complex) -> None:
    if node.level == -1:
        result[offset] = weight
        return
    span = 1 << node.level
    for bit, child in enumerate(node.edges):
        if child.weight != 0:
            _fill_vector(result, child.node, offset + bit * span,
                         weight * child.weight)


def _fill_matrix(result: np.ndarray, node, row: int, col: int,
                 weight: complex, expected: int) -> None:
    # Identity-skipping DDs (``Package(identity_edges=True)``) may point an
    # edge at a node more than one level down (or at the terminal from any
    # level); the skipped levels are implicit identity factors.  ``expected``
    # tracks the level this position *should* be at; while the node sits
    # lower, expand one implicit I2 level: only the diagonal blocks exist
    # and both reuse the same (node, weight) payload.
    if node.level < expected:
        span = 1 << expected
        _fill_matrix(result, node, row, col, weight, expected - 1)
        _fill_matrix(result, node, row + span, col + span, weight,
                     expected - 1)
        return
    if node.level == -1:
        result[row, col] = weight
        return
    span = 1 << node.level
    for index, child in enumerate(node.edges):
        if child.weight != 0:
            _fill_matrix(result, child.node, row + (index >> 1) * span,
                         col + (index & 1) * span, weight * child.weight,
                         node.level - 1)


def _build_vector(package: Package, amplitudes, level: int,
                  offset: int) -> Edge:
    if level < 0:
        return package.terminal_edge(complex(amplitudes[offset]))
    span = 1 << level
    low = _build_vector(package, amplitudes, level - 1, offset)
    high = _build_vector(package, amplitudes, level - 1, offset + span)
    return package.make_vector_node(level, (low, high))


def _build_matrix(package: Package, matrix, level: int, row: int,
                  col: int) -> Edge:
    if level < 0:
        return package.terminal_edge(complex(matrix[row, col]))
    span = 1 << level
    children = tuple(
        _build_matrix(package, matrix, level - 1, row + row_bit * span,
                      col + col_bit * span)
        for row_bit in (0, 1) for col_bit in (0, 1)
    )
    return package.make_matrix_node(level, children)
