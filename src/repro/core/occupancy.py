"""Per-link occupancy ledger — the ``O_x`` sets of paper Table I.

The ledger records, for every link, the union of transmission slices of all
flows allocated onto it, as a plain sorted boundary list (the
:class:`~repro.util.intervals.IntervalSet` encoding).  Full Alg. 1 plans
every arrival on a fresh ledger holding only the outage blocks; incremental
admission plans on the live ledger around the committed plans.

Every list the ledger holds is only ever *rebound*, never mutated in
place: a commit builds each link's new list, and folds may hand out a
link's own list without copying.  Five mechanisms keep Alg. 2's inner
loop cheap (all exact):

**Unique paths build no union.**  A flow with a single candidate path is
allocated by Alg. 3 straight from its links' own lists
(:meth:`OccupancyLedger.occupied_lists`), walked by bisection
(:func:`~repro.util.intervals.occupied_first_fit_walk`): nothing is
merged, so the cost follows the idle gaps the fit visits, not the
lengths of the busiest links' lists.

**Folds without copies.**  Alg. 2 scores a candidate path from two partial
folds: the links it shares with the other members of its candidate group
(:meth:`OccupancyLedger.fold`, built once per group and flow) and its
interior (aggregation ↔ core) segment (:meth:`~OccupancyLedger.segment_fold`).
A fold of one occupied link is that link's list itself.

**Interior-segment cache.**  Interior segments are dirtied only by commits
routed through them, so their folds are cached across flows, and
:meth:`~OccupancyLedger.commit` (and journal rollback) evict exactly the
cached folds that include a changed link, via a link → cached-segments
reverse index.  Alg. 2 asks for a segment only for a candidate its group
bound did not skip, so the cache sees fewer lookups, hits and misses
than a scan of every candidate would make.

**Spliced commits.**  A commit's slices are idle time on every link of
its path, so :func:`~repro.util.intervals.splice_boundaries` inserts them
into each link's list by bisection, coalescing touching ends; a slice
that overlaps a link's occupancy falls back to the general merge.  A plan
that starts at or after a link's last boundary, the common case, is
appended by concatenation.

**Trial journal.**  :meth:`~OccupancyLedger.begin_trial` records each
link's boundary list lazily on first touch (by reference: the list is
never mutated); :meth:`~OccupancyLedger.rollback_trial` restores exactly
those links (and evicts their cached folds), and
:meth:`~OccupancyLedger.commit_trial` simply drops the journal.  Undo cost
is proportional to what the trial touched, not to the whole network.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.net.topology import Path
from repro.obs.hotpath import HotPathCounters
from repro.util.intervals import IntervalSet, merge_boundaries, splice_boundaries


class OccupancyLedger:
    """Occupied-time sets for every link of a topology.

    Only links that have ever been touched hold an entry; untouched links
    are implicitly idle everywhere (important on 36k-server topologies
    where a workload touches a tiny fraction of links).

    Parameters
    ----------
    profile:
        The :class:`~repro.obs.hotpath.HotPathCounters` that receives
        segment-cache hits/misses and rolled-back trials (and, from Alg. 3,
        the busy intervals its walk steps over); without one they go to a
        private instance.

    Note: :meth:`occupied`, :meth:`occupied_lists`, :meth:`fold` and
    :meth:`segment_fold` share the ledger's own boundary lists for
    zero-copy reads — callers must
    not mutate them in place, or cached folds and the journal go stale
    (``IntervalSet`` operations never do: they rebind).
    """

    __slots__ = ("_occ", "_unions", "_paths_by_link", "_profile", "_journal")

    def __init__(self, profile: HotPathCounters | None = None) -> None:
        #: link → boundary list of its occupied set
        self._occ: dict[int, list[float]] = {}
        #: interior segment → boundary list of its cached fold
        self._unions: dict[Path, list[float]] = {}
        #: link → cached segments that include it (eviction reverse index)
        self._paths_by_link: dict[int, set[Path]] = {}
        self._profile = profile if profile is not None else HotPathCounters()
        #: link → pre-trial boundary list (None = link did not exist)
        self._journal: dict[int, list[float] | None] | None = None

    def occupied(self, link_index: int) -> IntervalSet:
        """The occupied set of one link (empty set if untouched)."""
        return IntervalSet._from_boundaries(self._occ.get(link_index, []))

    def fold(self, links: Iterable[int], acc: list[float] | None = None) -> list[float]:
        """The union of ``links``' occupancy, folded onto ``acc``.

        Neither cached nor counted.  The result may be ``acc`` or a
        ledger list itself when nothing else is occupied: merge input
        only, never to be mutated.
        """
        occ = self._occ
        if acc is None:
            acc = []
        for link in links:
            b = occ.get(link)
            if b:
                acc = merge_boundaries(acc, b) if acc else b
        return acc

    def occupied_lists(self, path: Path) -> list[list[float]]:
        """The boundary lists of ``path``'s occupied links, in path order.

        The ledger's own lists, not copies (merge or scan input only), and
        neither cached nor counted: Alg. 3 walks them without building
        their union (:func:`~repro.util.intervals.occupied_first_fit_walk`).
        """
        occ = self._occ
        return [b for link in path if (b := occ.get(link))]

    def segment_fold(self, seg: Path) -> list[float]:
        """The fold of an interior segment, cached for two or more links.

        Stored on the first miss: unlike access links, which every commit
        of the endpoint host dirties, interior segments are re-queried many
        times between evictions.  A one-link segment is that link's list
        and is neither cached nor counted.  The returned list may be the
        cached entry or a ledger list itself — merge input only.
        """
        if len(seg) < 2:
            b = self._occ.get(seg[0]) if seg else None
            return b if b is not None else []
        cached = self._unions.get(seg)
        if cached is not None:
            self._profile.union_cache_hits += 1
            return cached
        self._profile.union_cache_misses += 1
        acc = self._unions[seg] = self.fold(seg)
        by_link = self._paths_by_link
        for link in seg:
            bucket = by_link.get(link)
            if bucket is None:
                by_link[link] = {seg}
            else:
                bucket.add(seg)
        return acc

    def commit(self, path: Path, slices: IntervalSet) -> None:
        """Mark ``slices`` occupied on every link of ``path`` (Alg. 2 line 15)."""
        b = slices._b
        occ = self._occ
        journal = self._journal
        for link in path:
            held = occ.get(link)
            if journal is not None and link not in journal:
                # a reference, not a copy: the old list is never mutated
                journal[link] = held
            # rebind, never mutate in place: the trial journal and the
            # segment cache both rely on old boundary lists surviving
            occ[link] = splice_boundaries(held, b) if held else b
        self._evict(path)

    def _evict(self, links: Iterable[int]) -> None:
        """Drop every cached fold that includes one of ``links``."""
        unions = self._unions
        by_link = self._paths_by_link
        for link in links:
            stale = by_link.pop(link, None)
            if stale:
                for seg in stale:
                    unions.pop(seg, None)

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
        for link, prev in journal.items():
            if prev is None:
                occ.pop(link, None)
            else:
                occ[link] = prev
        if journal:
            self._evict(journal.keys())
        self._profile.trials_rolled_back += 1

    # -- diagnostics ---------------------------------------------------------

    def touched_links(self) -> list[int]:
        """Indices of links with any occupancy (diagnostics)."""
        return sorted(link for link, b in self._occ.items() if b)

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
            for link in path:
                by_link.setdefault(link, []).append(slices)
        for link, sets in by_link.items():
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    inter = sets[i].intersection(sets[j])
                    if inter:
                        raise AssertionError(
                            f"link {link}: overlapping slices {inter!r}"
                        )
