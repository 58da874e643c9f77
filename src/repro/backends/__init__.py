"""Multi-backend dispatch: every way to simulate, behind one protocol.

The repo computes the same quantum state four ways -- the recursive DD
core, the iterative flat-array DD kernel, the paper's strategy-driven
matrix-DD pathway, and a dense statevector.  This package puts them behind
one :class:`Backend` protocol with a registry, so callers (CLI, sweeps,
the differential fuzzer) treat "which simulator" as data, and an ``auto``
selector that picks per circuit from cheap structural predictors.

Importing this package registers the built-ins::

    from repro.backends import create_backend
    result = create_backend("dd-iterative").run(circuit)
    result.amplitude(0), result.probabilities(), result.sample(100)

Register your own (it immediately joins the fuzz pool)::

    from repro.backends import register_backend
    register_backend("my-backend", MyBackend)
"""

from .base import (ArrayResult, Backend, BackendCapabilities, BackendResult,
                   MAX_DENSE_QUBITS)
from .dd import (DDBackendResult, DDFastBackend, DDIterativeBackend,
                 DDMatrixBackend)
from .dense import DenseBackend
from .registry import (available_backends, backend_description,
                       create_backend, register_backend, unregister_backend)
from .selector import (Selection, resolve_backend, score_backends,
                       select_backend)

__all__ = ["ArrayResult", "Backend", "BackendCapabilities", "BackendResult",
           "DDBackendResult", "DDFastBackend", "DDIterativeBackend",
           "DDMatrixBackend", "DenseBackend", "MAX_DENSE_QUBITS",
           "Selection", "available_backends", "backend_description",
           "create_backend", "register_backend", "resolve_backend",
           "score_backends", "select_backend", "unregister_backend"]

#: the built-ins; re-registration on re-import is a no-op thanks to
#: ``replace=True``
for _name, _factory in (("dd", DDFastBackend),
                        ("dd-iterative", DDIterativeBackend),
                        ("dd-matrix", DDMatrixBackend),
                        ("dense", DenseBackend)):
    register_backend(_name, _factory, replace=True)
del _name, _factory
