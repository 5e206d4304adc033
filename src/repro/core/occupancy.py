"""Per-link occupancy ledger — the ``O_x`` sets of paper Table I.

The ledger records, for every link, the union of transmission slices of all
flows allocated onto it.  Full Alg. 1 plans every arrival on a fresh ledger
holding only the outage blocks; incremental admission plans on the live
ledger around the committed plans.

Two mechanisms keep Alg. 2's inner loop cheap (both exact):

**Interior-segment cache.**  Alg. 2 scores every candidate path of every
flow from two partial folds (:meth:`OccupancyLedger.union_parts`): the
endpoint links every candidate shares, folded per flow, and the interior
(aggregation ↔ core) segment.  Interior segments are dirtied only by
commits routed through them, so their folds are cached across flows, and
:meth:`~OccupancyLedger.commit` (and journal rollback) evict exactly the
cached folds that include a changed link, via a link → cached-segments
reverse index.  Full-path unions (:meth:`~OccupancyLedger.union_for`) are
not cached: Alg. 2 asks for one only right before committing on that path,
which would evict it at once.

**Trial journal.**  :meth:`~OccupancyLedger.begin_trial` snapshots each
link's boundary list lazily on first touch;
:meth:`~OccupancyLedger.rollback_trial` restores exactly those links (and
evicts their cached folds), and :meth:`~OccupancyLedger.commit_trial`
simply drops the journal.  Undo cost is proportional to what the trial
touched, not to the whole network.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.net.topology import Path
from repro.util.intervals import IntervalSet, merge_boundaries


class OccupancyLedger:
    """Occupied-time sets for every link of a topology.

    Only links that have ever been touched hold an entry; untouched links
    are implicitly idle everywhere (important on 36k-server topologies
    where a workload touches a tiny fraction of links).

    Parameters
    ----------
    profile:
        Optional :class:`~repro.obs.hotpath.HotPathCounters`
        (duck-typed — any object with the counter attributes works).
        Counts union-cache hits/misses, intervals scanned and rolled-back
        trials; ``None`` disables counting.

    Note: :meth:`occupied` returns the ledger's internal set for zero-copy
    reads — callers must not mutate it, or cached folds go stale.
    """

    __slots__ = ("_occ", "_unions", "_paths_by_link", "_profile", "_journal")

    def __init__(self, profile=None) -> None:
        self._occ: dict[int, IntervalSet] = {}
        #: interior segment → boundary list of its cached fold
        self._unions: dict[Path, list[float]] = {}
        #: link → cached segments that include it (eviction reverse index)
        self._paths_by_link: dict[int, set[Path]] = {}
        self._profile = profile
        #: link → pre-trial boundary list (None = link did not exist)
        self._journal: dict[int, list[float] | None] | None = None

    def occupied(self, link_index: int) -> IntervalSet:
        """The occupied set of one link (empty set if untouched)."""
        got = self._occ.get(link_index)
        return got if got is not None else IntervalSet()

    def union_for(self, path: Path) -> IntervalSet:
        """``T_ocp`` — union of occupied sets along a path (Alg. 3 lines 1–4).

        Always a fresh fold the caller may freely mutate.  Counted as one
        union-cache miss (full-path unions are never cached; see the module
        docstring).
        """
        occ = self._occ
        out: list[float] = []
        scanned = 0
        for l in path:
            s = occ.get(l)
            if s is not None and s._b:
                scanned += len(s._b)
                out = merge_boundaries(out, s._b) if out else list(s._b)
        profile = self._profile
        if profile is not None:
            profile.union_cache_misses += 1
            profile.intervals_scanned += scanned >> 1
        return IntervalSet._from_boundaries(out)

    def union_parts(
        self, path: Path, memo: dict[Path, list[float]]
    ) -> tuple[list[float], list[float]]:
        """``union_for(path)`` as two partial folds, for the fused pair scan.

        Returns ``(shared, interior)`` boundary lists whose union is
        exactly the path's occupancy union: ``shared`` is the per-flow
        memoised fold of the access/aggregation links common to the
        endpoint pair's candidates, ``interior`` the ledger-cached fold of
        the remaining links (see :meth:`_segment_fold`).  Alg. 2 scores a
        candidate straight off the pair via
        :func:`~repro.util.intervals.occupied_fit_end_pair` — no union is
        materialised for losing candidates.  Both lists are shared
        internals: callers may use them as merge/scan inputs only, never
        mutate them.
        """
        occ = self._occ
        k1 = (path[0], path[-1])
        acc = memo.get(k1)
        if acc is None:
            acc = []
            for l in k1:
                s = occ.get(l)
                if s is not None and s._b:
                    acc = merge_boundaries(acc, s._b) if acc else s._b
            memo[k1] = acc
        shared = acc
        if len(path) >= 5:
            k2 = (path[0], path[-1], path[1], path[-2])
            acc2 = memo.get(k2)
            if acc2 is None:
                acc2 = acc
                for l in (path[1], path[-2]):
                    s = occ.get(l)
                    if s is not None and s._b:
                        acc2 = merge_boundaries(acc2, s._b) if acc2 else s._b
                memo[k2] = acc2
            shared = acc2
            interior = path[2:-2]
        else:
            interior = path[1:-1]
        n = len(interior)
        if n >= 2:
            return shared, self._segment_fold(interior)
        if n == 1:
            s = occ.get(interior[0])
            return shared, (s._b if s is not None else [])
        return shared, []

    def _segment_fold(self, seg: Path) -> list[float]:
        """Cached fold of a link segment's occupancies.

        Stored on the first miss: unlike access links, which every commit
        of the endpoint host dirties, interior segments are re-queried many
        times between evictions.  The returned list may be the cached entry
        itself — callers use it as merge input only and must not mutate it.
        """
        profile = self._profile
        cached = self._unions.get(seg)
        if cached is not None:
            if profile is not None:
                profile.union_cache_hits += 1
            return cached
        if profile is not None:
            profile.union_cache_misses += 1
        occ = self._occ
        acc: list[float] = []
        for l in seg:
            s = occ.get(l)
            if s is not None and s._b:
                acc = merge_boundaries(acc, s._b) if acc else list(s._b)
        self._unions[seg] = acc
        by_link = self._paths_by_link
        for l in seg:
            bucket = by_link.get(l)
            if bucket is None:
                by_link[l] = {seg}
            else:
                bucket.add(seg)
        return acc

    def commit(self, path: Path, slices: IntervalSet) -> None:
        """Mark ``slices`` occupied on every link of ``path`` (Alg. 2 line 15)."""
        occ = self._occ
        journal = self._journal
        for l in path:
            existing = occ.get(l)
            if journal is not None and l not in journal:
                # Reference snapshot, not a copy: ledger-owned boundary
                # lists are only ever *rebound* (merge_boundaries builds a
                # new list), never mutated in place, so the old list
                # survives untouched for rollback to restore.
                journal[l] = None if existing is None else existing._b
            if existing is None:
                occ[l] = slices.copy()
            else:
                # rebind, never mutate in place: the trial journal and the
                # segment cache both rely on old boundary lists surviving
                existing._b = merge_boundaries(existing._b, slices._b)
        self._evict(path)

    def _evict(self, links: Iterable[int]) -> None:
        """Drop every cached fold that includes one of ``links``."""
        unions = self._unions
        by_link = self._paths_by_link
        for l in links:
            stale = by_link.pop(l, None)
            if stale:
                for p in stale:
                    unions.pop(p, None)

    # -- trial journal -------------------------------------------------------

    def begin_trial(self) -> None:
        """Start recording commits so :meth:`rollback_trial` can undo them.

        Exactly one trial may be active at a time.
        """
        if self._journal is not None:
            raise RuntimeError("a ledger trial is already active")
        self._journal = {}

    @property
    def in_trial(self) -> bool:
        """Whether a trial journal is currently recording."""
        return self._journal is not None

    def commit_trial(self) -> None:
        """Keep the trial's commits; forget the undo journal."""
        if self._journal is None:
            raise RuntimeError("no active ledger trial")
        self._journal = None

    def rollback_trial(self) -> None:
        """Restore every link touched since :meth:`begin_trial`."""
        if self._journal is None:
            raise RuntimeError("no active ledger trial")
        journal, self._journal = self._journal, None
        occ = self._occ
        for l, prev in journal.items():
            if prev is None:
                occ.pop(l, None)
            else:
                occ[l] = IntervalSet._from_boundaries(prev)
        if journal:
            self._evict(journal.keys())
        if self._profile is not None:
            self._profile.trials_rolled_back += 1

    # -- diagnostics ---------------------------------------------------------

    def touched_links(self) -> list[int]:
        """Indices of links with any occupancy (diagnostics)."""
        return sorted(l for l, s in self._occ.items() if s)

    def cache_info(self) -> dict[str, int]:
        """Diagnostics: cached segment folds and reverse-index size."""
        return {
            "entries": len(self._unions),
            "indexed_links": len(self._paths_by_link),
        }

    def assert_exclusive(self, plans: list[tuple[Path, IntervalSet]]) -> None:
        """Invariant check: no two plans overlap in time on a shared link.

        Exact: plan slices are on the plan grid, so any overlap at all is
        a collision.  O(n² · slices) — test/debug use only.
        """
        by_link: dict[int, list[IntervalSet]] = {}
        for path, slices in plans:
            for l in path:
                by_link.setdefault(l, []).append(slices)
        for l, sets in by_link.items():
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    inter = sets[i].intersection(sets[j])
                    if inter:
                        raise AssertionError(
                            f"link {l}: overlapping slices {inter!r}"
                        )
