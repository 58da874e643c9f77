"""repro -- DD-based simulation of quantum computations.

A from-scratch reproduction of

    A. Zulehner and R. Wille,
    "Matrix-Vector vs. Matrix-Matrix Multiplication:
     Potential in DD-based Simulation of Quantum Computations",
    Design, Automation and Test in Europe (DATE), 2019.

The package provides:

* ``repro.dd``         -- a QMDD-style decision-diagram package (vectors,
                          matrices, edge weights, add / MxV / MxM / kron).
* ``repro.circuit``    -- a quantum-circuit IR with repeated-block structure
                          and an OpenQASM-2 subset reader/writer.
* ``repro.simulation`` -- the simulation engine and the paper's operation
                          combining strategies (sequential, k-operations,
                          max-size, DD-repeating) plus instrumentation.
* ``repro.algorithms`` -- benchmark generators: Grover, Shor (Beauregard's
                          2n+3-qubit circuit and the n+1-qubit DD-construct
                          semiclassical simulator), Google supremacy-style
                          random circuits, QFT and Draper arithmetic.
* ``repro.baseline``   -- a dense numpy statevector simulator for
                          cross-validation (the ``dense`` backend).
* ``repro.analysis``   -- the experiment runners behind
                          ``python -m repro experiments``, regenerating
                          Fig. 8, Fig. 9, Table I and Table II of the paper.
"""

from .circuit import QuantumCircuit
from .dd import Package
from .simulation import (KOperationsStrategy, MaxSizeStrategy,
                         RepeatingBlockStrategy, SequentialStrategy,
                         SimulationEngine, SimulationResult)

__version__ = "1.0.0"

__all__ = [
    "KOperationsStrategy",
    "MaxSizeStrategy",
    "Package",
    "QuantumCircuit",
    "RepeatingBlockStrategy",
    "SequentialStrategy",
    "SimulationEngine",
    "SimulationResult",
    "__version__",
]
