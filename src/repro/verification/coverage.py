"""Engine-native coverage signals for the mutation fuzzer.

Coverage-guided fuzzing needs a cheap novelty signal: "did this input make
the system do something no earlier input did?".  We have no branch
instrumentation, but the engine already measures itself --
:class:`~repro.simulation.statistics.SimulationStatistics` counts Eq. 1 /
Eq. 2 multiplications, reorders, checkpoints and dense cutovers, and
carries end-of-run cache hit rates.  Bucketing those
into a :func:`coverage_signature` gives a behaviour fingerprint: two runs
with the same signature exercised the engine the same way, a run with any
*new* bucket found new behaviour and its case is worth mutating further.

Buckets are deliberately coarse (log2 bands, capped counters, hit-rate
quartiles) so the map saturates in thousands -- not millions -- of runs,
which is what a CI-sized mutation budget can afford.
"""

from __future__ import annotations

from .plans import PlanOutcome, RunPlan

__all__ = ["CoverageMap", "coverage_signature"]


def _band(value: int) -> int:
    """Log2 band of a non-negative counter (0 -> 0, 1 -> 1, 2-3 -> 2...)."""
    if value <= 0:
        return 0
    return value.bit_length()


def _cap(value: int, limit: int = 4) -> int:
    return value if value < limit else limit


def coverage_signature(plan: RunPlan, outcome: PlanOutcome) -> frozenset:
    """The behaviour fingerprint of one plan run.

    A frozenset of string buckets; :class:`CoverageMap` treats each bucket
    independently, so a run is novel if *any* bucket is unseen (not only
    if the exact combination is).
    """
    buckets = {
        f"kernel:{plan.kernel}",
        f"strategy:{plan.strategy.split(':')[0].split('=')[0]}",
        f"reorder-mode:{(plan.reorder or 'off').split('=')[0]}",
    }
    if not plan.dense_blocks:
        buckets.add("dense-blocks-off")
    if outcome.budget_aborted:
        buckets.add("budget-aborted")
        return frozenset(buckets)
    if outcome.error is not None:
        buckets.add("errored")
        return frozenset(buckets)
    stats = outcome.statistics
    if stats is None:
        return frozenset(buckets)
    buckets.add(f"mxv-band:{_band(stats.matrix_vector_mults)}")
    buckets.add(f"mxm-band:{_band(stats.matrix_matrix_mults)}")
    buckets.add(f"peak-state-band:{_band(stats.peak_state_nodes)}")
    buckets.add(f"reorders:{_cap(stats.reorders)}")
    buckets.add(f"checkpoints:{_cap(stats.checkpoints_written)}")
    buckets.add(f"dense-cutovers:{_cap(stats.dense_cutovers)}")
    buckets.add(f"reused-blocks:{_cap(stats.reused_block_applications)}")
    if outcome.resumed:
        buckets.add("resumed")
    for table, rate in stats.cache_hit_rates.items():
        quartile = min(3, int(rate * 4))
        buckets.add(f"hit-rate:{table}:{quartile}")
    return frozenset(buckets)


class CoverageMap:
    """The set of behaviour buckets seen so far in a campaign."""

    def __init__(self) -> None:
        self._seen: set = set()
        #: runs observed (novel or not)
        self.observations = 0
        #: runs that contributed at least one new bucket
        self.novel = 0

    def observe(self, signature: frozenset) -> bool:
        """Record one run's signature; ``True`` if it added new buckets."""
        self.observations += 1
        new = signature - self._seen
        if not new:
            return False
        self._seen |= new
        self.novel += 1
        return True

    def __len__(self) -> int:
        return len(self._seen)

    def buckets(self) -> list[str]:
        """All buckets seen, sorted (for reports and tests)."""
        return sorted(self._seen)
