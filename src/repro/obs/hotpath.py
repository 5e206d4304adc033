"""Hot-path work counters for the allocation inner loop.

The controller's single hottest loop is :func:`~repro.core.allocation.
path_calculation`: on every task arrival it re-plans all in-flight flows,
and for each flow it evaluates every candidate path against the per-link
occupancy sets.  :class:`HotPathCounters` counts some of the work that
loop does — how often the :class:`~repro.core.occupancy.OccupancyLedger`
segment cache hits, how many candidate paths the exact lower bounds skip,
how many occupancy intervals ``OccupancyLedger.union_for`` reads — so
benchmarks report *work done*, not just elapsed seconds, and optimisation
work has a trajectory to beat.  The interval count is narrow: only flows
with a single candidate path reach ``union_for``, so the group and
segment folds and the splices inside commits, most of Alg. 2's merge
work, are not in it.  The counters hold no time: two runs of one workload
give equal counts.  Where time goes is the job of telemetry spans, the
only timer.

One instance lives on :class:`~repro.core.controller.TapsStats` (as
``stats.profile``); the controller hands it to every ledger it creates
and to every ``path_calculation`` call, and counts the calls itself.  A
ledger or planner given no instance counts into a private one, so the
hot path never tests whether counting is on.  The counters are plain
attribute increments so the instrumented hot path stays cheap.  This is
the one instrumentation surface that does *not* go through
:class:`~repro.obs.registry.MetricsRegistry` instruments inline: at
millions of increments per run, even a dict-free counter object is
borderline, so the counts accumulate here and are published into a
registry once per run via :meth:`publish_to`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(slots=True)
class HotPathCounters:
    """Counters for the controller's allocation hot path.

    Attributes
    ----------
    union_cache_hits, union_cache_misses:
        Interior-segment folds served from / missing the ledger's segment
        cache (``OccupancyLedger.segment_fold``).  Every
        ``OccupancyLedger.union_for`` call also counts as a miss:
        full-path unions are never cached.  Alg. 2 asks for a candidate's
        interior fold only after its group's bound failed to skip it, so
        group-bound skips are lookups never made: they lower both counts,
        hits more than misses.
    intervals_scanned:
        Occupancy intervals fed into ``OccupancyLedger.union_for``'s
        full-path folds, which Alg. 3 runs only for a flow with a single
        candidate path.  Multi-candidate flows are scored from group and
        segment folds and sliced straight from the winner's two folds,
        and commits splice into the per-link lists: none of those merges
        is counted.
    candidates_evaluated:
        Candidate paths considered by Alg. 2's multi-path comparison
        (single-candidate flows skip the comparison and are not counted).
    candidates_pruned:
        Candidates skipped without a scan of their own: those after a
        candidate reached the contention-free completion
        (``release + duration``), and those whose group's exact bound
        (the fit on the links the group shares) reached the best
        completion so far.  Mid-scan ``stop_at`` aborts are not counted
        here (their partial scan is real work).
    path_calculation_calls:
        Planner calls, counted by
        :meth:`~repro.core.controller.TapsScheduler._path_calculation`.
        An admission trial makes up to two: ``Ftmp`` up to the newcomer's
        last flow, then the rest unless the newcomer already misses.
    trials_rolled_back:
        Ledger trials undone via the rollback journal (discard-victim
        retries and rejected incremental admissions).
    max_reallocation_depth:
        Largest number of victims discarded while admitting one task —
        how deep the Alg. 1 retry loop has ever gone.
    """

    union_cache_hits: int = 0
    union_cache_misses: int = 0
    intervals_scanned: int = 0
    candidates_evaluated: int = 0
    candidates_pruned: int = 0
    path_calculation_calls: int = 0
    trials_rolled_back: int = 0
    max_reallocation_depth: int = 0

    @property
    def union_cache_hit_rate(self) -> float:
        """Fraction of segment-fold and full-path union requests served
        from the cache (``union_for`` requests always miss)."""
        total = self.union_cache_hits + self.union_cache_misses
        return self.union_cache_hits / total if total else 0.0

    @property
    def prune_rate(self) -> float:
        """Fraction of evaluated candidates skipped by the lower bounds."""
        return (
            self.candidates_pruned / self.candidates_evaluated
            if self.candidates_evaluated
            else 0.0
        )

    def as_dict(self) -> dict[str, float]:
        """All counters plus the derived rates, JSON-ready."""
        out: dict[str, float] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        out["union_cache_hit_rate"] = self.union_cache_hit_rate
        out["prune_rate"] = self.prune_rate
        return out

    def publish_to(self, registry) -> None:
        """Mirror every field into the registry as an ``alloc/<field>``
        counter (once, at end of run)."""
        for f in fields(self):
            registry.counter("alloc/" + f.name).inc(getattr(self, f.name))
