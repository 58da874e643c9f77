"""Canonicalisation of complex edge weights.

Decision diagrams obtain their compactness from *node sharing*: two sub-DDs
are merged when they are structurally identical, which requires their edge
weights to compare equal.  Floating-point noise would break this sharing
(two weights that are mathematically equal may differ in the last few bits
after long chains of multiplications), blowing the diagram up to exponential
size.  The standard remedy -- used by the QMDD packages this work builds on
(see ref. [21] of the paper) -- is a *complex table* that snaps every weight
to a canonical representative: values closer than a tolerance are mapped to
the same stored complex number.

The table buckets values on a grid of width ``tolerance`` and, on a miss of
the exact bucket, searches the 3x3 neighbourhood so that values straddling a
bucket boundary are still merged.
"""

from __future__ import annotations

import cmath
import math

__all__ = ["ComplexTable", "DEFAULT_TOLERANCE"]

#: Default snapping tolerance.  Large enough to absorb accumulated rounding
#: error over thousands of multiplications, small enough not to distort any
#: amplitude an experiment would report.
DEFAULT_TOLERANCE = 1e-10

#: Values every simulation touches -- 0, +-1, +-i, +-sqrt(1/2), +-1/2 --
#: seeded into every fresh or cleared table so they are stable anchors
#: regardless of lookup order.
_ANCHORS = (0j, 1 + 0j, -1 + 0j, 1j, -1j,
            complex(math.sqrt(0.5), 0), complex(-math.sqrt(0.5), 0),
            complex(0.5, 0), complex(-0.5, 0))

_NEIGHBOUR_OFFSETS = (
    (0, 0),
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


class ComplexTable:
    """Interning table mapping complex values to canonical representatives.

    Parameters
    ----------
    tolerance:
        Two values whose real and imaginary parts each differ by less than
        this amount are considered equal and share one representative.
    """

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE) -> None:
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self.tolerance = tolerance
        self._buckets: dict[tuple[int, int], complex] = {}
        # Exact-value front cache: most lookups repeat bit-identical floats
        # (re-occurring products), so one dict probe answers them without
        # the grid arithmetic and neighbour search.  Bounded by wholesale
        # clearing; representatives never change once interned, so cached
        # answers stay valid until clear().
        self._exact: dict[complex, complex] = {}
        self._exact_limit = 1 << 18
        self.clear()  # zeroes hits/misses and seeds the anchors

    def __len__(self) -> int:
        return len(self._buckets)

    def _key(self, value: complex) -> tuple[int, int]:
        tol = self.tolerance
        return (math.floor(value.real / tol), math.floor(value.imag / tol))

    def lookup(self, value: complex) -> complex:
        """Return the canonical representative for ``value``.

        The first value seen in a tolerance neighbourhood becomes the
        representative for all later lookups in that neighbourhood.
        """
        if type(value) is not complex:
            value = complex(value)
        exact = self._exact
        found = exact.get(value)
        if found is not None:
            self.hits += 1
            return found
        if value != value:  # NaN guard: propagating NaN silently corrupts DDs
            raise ValueError("cannot intern NaN complex value")
        kr, ki = self._key(value)
        buckets = self._buckets
        tol = self.tolerance
        if len(exact) >= self._exact_limit:
            exact.clear()
        # Fast path: exact bucket holds a close-enough representative.
        found = buckets.get((kr, ki))
        if found is not None and abs(found.real - value.real) < tol \
                and abs(found.imag - value.imag) < tol:
            self.hits += 1
            exact[value] = found
            return found
        for dr, di in _NEIGHBOUR_OFFSETS[1:]:
            found = buckets.get((kr + dr, ki + di))
            if found is not None and abs(found.real - value.real) < tol \
                    and abs(found.imag - value.imag) < tol:
                self.hits += 1
                exact[value] = found
                return found
        self.misses += 1
        buckets[(kr, ki)] = value
        exact[value] = value
        return value

    def is_zero(self, value: complex) -> bool:
        """Whether ``value`` would canonicalise to (exactly) zero."""
        return abs(value.real) < self.tolerance and abs(value.imag) < self.tolerance

    def is_one(self, value: complex) -> bool:
        """Whether ``value`` would canonicalise to (exactly) one."""
        return (abs(value.real - 1.0) < self.tolerance
                and abs(value.imag) < self.tolerance)

    def approx_equal(self, a: complex, b: complex) -> bool:
        """Tolerance comparison used throughout the package."""
        return (abs(a.real - b.real) < self.tolerance
                and abs(a.imag - b.imag) < self.tolerance)

    def state_dict(self) -> list[list[float]]:
        """All canonical representatives, in insertion order.

        Checkpoints store this so a resumed run's package can replay the
        same representatives: bit-exact resumption requires that every
        value computed after the resume point snaps to the *same* canonical
        float it would have snapped to in the uninterrupted run, and the
        first value seen in a neighbourhood decides that.
        """
        return [[value.real, value.imag]
                for value in self._buckets.values()]

    def load_state_dict(self, values: list) -> None:
        """Replay representatives captured by :meth:`state_dict`.

        Replaying through :meth:`lookup` in insertion order reconstructs
        the bucket map exactly: any two surviving representatives are
        outside each other's tolerance neighbourhood (otherwise the later
        one would have been merged instead of stored), so each replayed
        value re-interns itself.  Values already present (the pre-seeded
        anchors) are no-ops.
        """
        for entry in values:
            self.lookup(complex(entry[0], entry[1]))

    def clear(self) -> None:
        """Drop all interned values but the anchors: the table is as new."""
        self._buckets.clear()
        self._exact.clear()
        self.hits = 0
        self.misses = 0
        for anchor in _ANCHORS:
            self.lookup(anchor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ComplexTable(entries={len(self)}, hits={self.hits}, "
                f"misses={self.misses}, tol={self.tolerance})")


def polar_str(value: complex) -> str:
    """Human-readable polar form used by the dot exporter."""
    magnitude, angle = cmath.polar(value)
    return f"{magnitude:.4g}∠{angle / math.pi:.4g}π"
