"""Interval-set arithmetic over the real line.

This module implements the occupancy bookkeeping that TAPS' centralized
algorithm (paper Alg. 3, *TimeAllocation*) is built on.  Every link keeps an
*occupied* set ``O_x`` of time intervals; allocating a flow on a path means

1. unioning the occupied sets of all links on the path (``T_ocp``),
2. complementing it to get the *idle* set, and
3. carving the first ``E_i`` time units of idle time (after the flow's
   release time) into transmission slices.

The representation is a flat, sorted ``list[float]`` of boundaries
``[s0, e0, s1, e1, ...]`` encoding disjoint, non-empty, non-touching
half-open intervals ``[s0, e0) ∪ [s1, e1) ∪ …``.  A flat list keeps the hot
merge loops allocation-free and cache-friendly (per the HPC guide: avoid
per-element object churn in inner loops).

Plan time is exact.  The planner rounds its inputs up onto the grid of
multiples of :data:`GRID` once (:func:`up`), and every boundary it then
derives is a sum or difference of grid values, so the arithmetic here
never rounds and needs no tolerance: intervals that touch merge, and a
gap of one grid unit is a gap.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

GRID: float = 2.0 ** -36
"""The plan-time quantum in seconds (about 14.6 ps).

Multiples of ``GRID`` below ``2**53 * GRID = 2**17`` s (about 36 h) are
exact floats, and so are their sums, differences and comparisons while
they stay in that range.  A coarser grid would add engine events: a flow
finishes up to one grid unit before its rounded-up slice end, and on a
nanosecond grid that gap often lands between the sender model's change
and rate thresholds (see DESIGN.md §5.1).
"""

Interval = tuple[float, float]


def up(t: float) -> float:
    """Round ``t`` up onto the plan grid (exact: scaling by a power of two
    is)."""
    return math.ceil(t / GRID) * GRID


class IntervalSet:
    """A set of disjoint half-open intervals ``[start, end)`` on the reals.

    The pure operations (:meth:`union`, :meth:`complement`,
    :meth:`intersection`) and the first-fit scans serve the allocation
    algorithms; the occupancy ledger works on the boundary lists directly.

    Invariant (checked by :meth:`check_invariants` and the property
    tests): boundaries strictly increase, so every interval is non-empty
    and consecutive intervals neither touch nor overlap.
    """

    __slots__ = ("_b",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._b: list[float] = []
        for start, end in intervals:
            self.add(start, end)

    # -- construction -----------------------------------------------------

    @classmethod
    def single(cls, start: float, end: float) -> "IntervalSet":
        """Return a set holding the single interval ``[start, end)``."""
        return cls._from_boundaries([start, end] if end > start else [])

    @classmethod
    def _from_boundaries(cls, boundaries: list[float]) -> "IntervalSet":
        out = cls()
        out._b = boundaries
        return out

    def copy(self) -> "IntervalSet":
        """Return an independent copy."""
        out = IntervalSet()
        out._b = list(self._b)
        return out

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._b) // 2

    def __bool__(self) -> bool:
        return bool(self._b)

    def __iter__(self) -> Iterator[Interval]:
        b = self._b
        for i in range(0, len(b), 2):
            yield (b[i], b[i + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._b == other._b

    def __hash__(self) -> int:  # pragma: no cover - sets are mutable
        raise TypeError("IntervalSet is mutable and unhashable")

    def __repr__(self) -> str:
        parts = ", ".join(f"[{s:g}, {e:g})" for s, e in self)
        return f"IntervalSet({parts})"

    def intervals(self) -> list[Interval]:
        """Return the intervals as a list of ``(start, end)`` tuples."""
        return list(self)

    def measure(self) -> float:
        """Total length covered by the set."""
        b = self._b
        return sum(b[i + 1] - b[i] for i in range(0, len(b), 2))

    def start(self) -> float:
        """Leftmost boundary. Raises ``ValueError`` on an empty set."""
        if not self._b:
            raise ValueError("empty IntervalSet has no start")
        return self._b[0]

    def end(self) -> float:
        """Rightmost boundary. Raises ``ValueError`` on an empty set."""
        if not self._b:
            raise ValueError("empty IntervalSet has no end")
        return self._b[-1]

    def contains(self, t: float) -> bool:
        """Whether time ``t`` lies inside the set (half-open semantics)."""
        # an odd count of boundaries <= t means t is inside an interval
        return bisect_right(self._b, t) % 2 == 1

    def locate(self, t: float) -> tuple[bool, float | None]:
        """Where ``t`` falls: ``(self.contains(t), first boundary > t)``.

        The boundary is ``None`` past the last one.  Membership can only
        change at that boundary, which is what the TAPS sender model keys
        its slice-boundary heaps on.
        """
        b = self._b
        k = bisect_right(b, t)
        return k % 2 == 1, (b[k] if k < len(b) else None)

    # -- mutation ------------------------------------------------------------

    def add(self, start: float, end: float) -> None:
        """Insert ``[start, end)``, merging with touching/overlapping spans.

        Empty intervals are ignored.  The boundary list is rebound, never
        mutated in place.
        """
        if end > start:
            self._b = merge_boundaries(self._b, [start, end])

    # -- pure set algebra ------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Return the union of the two sets."""
        return IntervalSet._from_boundaries(_merge_union(self._b, other._b))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Return the intersection of the two sets."""
        out: list[float] = []
        a, b = self._b, other._b
        i = j = 0
        while i < len(a) and j < len(b):
            s = max(a[i], b[j])
            e = min(a[i + 1], b[j + 1])
            if e > s:
                out.extend((s, e))
            if a[i + 1] < b[j + 1]:
                i += 2
            else:
                j += 2
        return IntervalSet._from_boundaries(out)

    def complement(self, lo: float, hi: float) -> "IntervalSet":
        """Return ``[lo, hi)`` minus this set — the *idle* time window.

        This is the complement step of paper Alg. 3 line 5.
        """
        out: list[float] = []
        cursor = lo
        for s, e in self:
            if e <= lo:
                continue
            if s >= hi:
                break
            if s > cursor:
                out.extend((cursor, s))
            cursor = max(cursor, min(e, hi))
        if hi > cursor:
            out.extend((cursor, hi))
        return IntervalSet._from_boundaries(out)

    # -- allocation ---------------------------------------------------------

    def first_fit(self, duration: float, after: float) -> "IntervalSet":
        """Carve the earliest ``duration`` units of *this* set at/after ``after``.

        ``self`` is interpreted as an **idle** set.  Returns the allocated
        slices (possibly split across several idle gaps — TAPS flows are
        preemptible, so an allocation may pause and resume).  The last slice
        ends at the flow's completion time.

        Used for paper Alg. 3 line 5: "first ``E_i`` time slices in the
        complementary set of ``T_ocp``".

        Note: ``self`` must extend far enough to the right to fit
        ``duration``; callers complement over a horizon past any deadline.
        Raises ``ValueError`` if the idle time available is insufficient.
        """
        if duration <= 0:
            return IntervalSet()
        remaining = duration
        out: list[float] = []
        for s, e in self:
            if e <= after:
                continue
            s = max(s, after)
            width = e - s
            if width >= remaining:
                out.extend((s, s + remaining))
                return IntervalSet._from_boundaries(out)
            out.extend((s, e))
            remaining -= width
        raise ValueError(
            f"insufficient idle time: needed {duration:g}, "
            f"short by {remaining:g} after t={after:g}"
        )

    def idle_fit_end(self, duration: float, after: float) -> float:
        """Completion time of a :meth:`first_fit` allocation, without building it.

        Cheaper than :meth:`first_fit` when only the completion time is
        needed (path comparison in Alg. 2 evaluates many candidate paths and
        keeps slices only for the winner).
        """
        if duration <= 0:
            return after
        remaining = duration
        b = self._b
        for i in range(0, len(b), 2):
            s, e = b[i], b[i + 1]
            if e <= after:
                continue
            s = max(s, after)
            width = e - s
            if width >= remaining:
                return s + remaining
            remaining -= width
        raise ValueError(
            f"insufficient idle time: needed {duration:g}, "
            f"short by {remaining:g} after t={after:g}"
        )

    def next_boundary(self, t: float) -> float | None:
        """Earliest boundary later than ``t`` (slice starts and ends).

        Used by the TAPS sender model to know when its rate next changes
        (a slice begins or ends).  Returns ``None`` past the last boundary.
        """
        return self.locate(t)[1]

    # -- validation -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the canonical-form invariants; used by tests."""
        b = self._b
        if len(b) % 2 != 0:
            raise AssertionError("odd boundary count")
        for i in range(len(b) - 1):
            if not b[i] < b[i + 1]:
                kind = "degenerate interval" if i % 2 == 0 else "touching intervals"
                raise AssertionError(f"{kind} at boundary {i}: {b[i]}..{b[i + 1]}")


def _merge_union(a: list[float], b: list[float]) -> list[float]:
    """Union two flat boundary lists with a two-pointer sweep."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    out: list[float] = []
    i = j = 0
    la, lb = len(a), len(b)
    # pull the earlier-starting interval each step, merging overlaps into out
    while i < la or j < lb:
        if j >= lb or (i < la and a[i] <= b[j]):
            s, e = a[i], a[i + 1]
            i += 2
        else:
            s, e = b[j], b[j + 1]
            j += 2
        if out and s <= out[-1]:
            if e > out[-1]:
                out[-1] = e
        else:
            out.extend((s, e))
    return out


def merge_boundaries(a: list[float], b: list[float]) -> list[float]:
    """Union two flat boundary lists, returning a new list.

    Same result as :func:`_merge_union` (the union is unique, so any
    strategy must agree float-for-float), but when one side is much
    shorter it splices each of its intervals into a copy of the longer
    side by bisection — O(small · log(large)) Python steps plus C-level
    ``memmove``, instead of walking the whole long list element-wise.
    """
    if not a:
        return list(b)
    if not b:
        return list(a)
    if len(b) > len(a):
        a, b = b, a
    if len(b) * 4 > len(a):
        return _merge_union(a, b)
    out = list(a)
    for j in range(0, len(b), 2):
        s, e = b[j], b[j + 1]
        # intervals of `out` that touch or overlap [s, e) run from the
        # first one ending at/after s to the last one starting at/before
        # e; the flat list is globally sorted, so the bisect positions
        # translate directly to interval indices
        k0 = bisect_left(out, s) >> 1
        k1 = (bisect_right(out, e) - 1) >> 1
        if k1 < k0:
            out[2 * k0 : 2 * k0] = (s, e)
        else:
            lo = out[2 * k0]
            hi = out[2 * k1 + 1]
            out[2 * k0 : 2 * k1 + 2] = (
                s if s < lo else lo,
                e if e > hi else hi,
            )
    return out


def splice_boundaries(a: list[float], b: list[float]) -> list[float]:
    """Union two flat boundary lists, for a ``b`` that lies in ``a``'s gaps.

    Same result as :func:`merge_boundaries`.  A commit's slices are idle
    time on every link of their path, so each of ``b``'s intervals falls
    in one gap of the link's list ``a``, at most touching its neighbours:
    it is spliced into a copy of ``a`` by one bisection and coalesced
    with the intervals it touches.  The first interval of ``b`` that
    overlaps ``a`` sends the whole union to :func:`merge_boundaries`.
    When ``b`` starts at or after ``a``'s last boundary (a plan that
    begins after everything the link has booked), the two lists are
    simply concatenated, coalescing the one pair of ends that touches.
    Returns a new list.
    """
    if not a or not b:
        return merge_boundaries(a, b)
    if b[0] > a[-1]:
        return a + b
    if b[0] == a[-1]:
        return a[:-1] + b[1:]
    out = list(a)
    for j in range(0, len(b), 2):
        s, e = b[j], b[j + 1]
        # out[k - 1] <= s < out[k]: an odd k puts s inside an interval,
        # and an even k overlaps unless e reaches at most the next start
        k = bisect_right(out, s)
        n = len(out)
        if k & 1 or (k < n and out[k] < e):
            return merge_boundaries(a, b)
        if k and out[k - 1] == s:
            if k < n and out[k] == e:
                del out[k - 1 : k + 1]  # fills the gap exactly
            else:
                out[k - 1] = e  # extends the interval ending at s
        elif k < n and out[k] == e:
            out[k] = s  # extends the interval starting at e
        else:
            out[k:k] = (s, e)
    return out


def occupied_first_fit_pair(
    a: list[float],
    b: list[float],
    duration: float,
    lo: float,
    hi: float,
) -> list[float]:
    """First-fit slices over the **union** of two occupied boundary lists,
    without materialising the union; returns the slices' boundary list.

    Exactly ``merge(a, b) → complement(lo, hi) → first_fit(duration,
    lo)``: the scan of :func:`occupied_fit_end_pair`, recording each idle
    gap it uses.  Alg. 2 slices the winning candidate straight from its
    two partial folds with it.  Pass ``b=[]`` for a single occupied list.
    Raises ``ValueError`` when ``[lo, hi)`` holds less than ``duration``
    of idle time.
    """
    if duration <= 0:
        return []
    remaining = duration
    cursor = lo
    out: list[float] = []
    i = bisect_right(a, lo)
    i -= i & 1
    j = bisect_right(b, lo)
    j -= j & 1
    la, lb = len(a), len(b)
    while i < la or j < lb:
        if j >= lb or (i < la and a[i] <= b[j]):
            s, e = a[i], a[i + 1]
            i += 2
        else:
            s, e = b[j], b[j + 1]
            j += 2
        if s > cursor:
            if s >= hi:
                break
            gap = s - cursor
            if gap >= remaining:
                out += (cursor, cursor + remaining)
                return out
            out += (cursor, s)
            remaining -= gap
        if e > cursor:
            cursor = e if e < hi else hi
    if hi - cursor >= remaining:
        out += (cursor, cursor + remaining)
        return out
    raise ValueError(
        f"insufficient idle time: needed {duration:g}, "
        f"short by {remaining:g} after t={lo:g}"
    )


def occupied_first_fit_walk(
    lists: list[list[float]],
    duration: float,
    lo: float,
    hi: float,
    stepped: list[int] | None = None,
) -> list[float]:
    """First-fit slices over the **union** of any number of occupied
    boundary lists, without building it; returns the slices' boundary
    list.

    Exactly ``union_all → complement(lo, hi) → first_fit(duration, lo)``.
    A cursor is pushed past every list's busy interval that covers it
    until none does; the earliest busy start after it (or ``hi``) ends the
    idle gap, which is sliced, and the walk goes on from that start.  One
    bisection per list both tests whether the list covers the cursor (an
    odd insertion point: the next boundary is that interval's end) and
    finds its next start, and the next start collected so far is dropped
    whenever the cursor moves.  So the cost follows the gaps visited and
    the busy intervals stepped over, not the lengths of the lists.  Alg. 3
    slices a flow with a single candidate path with it.

    ``stepped``, when given, is a one-item tally that grows by the number
    of busy intervals the cursor stepped over.  Returns ``[]`` for
    ``duration <= 0``; raises ``ValueError`` when ``[lo, hi)`` holds less
    than ``duration`` of idle time, a cursor pushed to or past ``hi``
    included.
    """
    if duration <= 0:
        return []
    remaining = duration
    cursor = lo
    out: list[float] = []
    n = len(lists)
    i = steps = 0
    while True:
        # visit the lists round-robin until n in a row leave the cursor
        # where it is; a list that moved it is one of those n
        nxt = hi
        still = 0
        while still < n:
            b = lists[i]
            k = bisect_right(b, cursor)
            if k & 1:
                cursor = b[k]
                k += 1
                nxt = hi
                still = 1
                steps += 1
            else:
                still += 1
            if k < len(b) and b[k] < nxt:
                nxt = b[k]
            i += 1
            if i == n:
                i = 0
        if cursor >= hi:
            break
        gap = nxt - cursor
        if gap >= remaining:
            out += (cursor, cursor + remaining)
            if stepped is not None:
                stepped[0] += steps
            return out
        out += (cursor, nxt)
        remaining -= gap
        cursor = nxt
    if stepped is not None:
        stepped[0] += steps
    raise ValueError(
        f"insufficient idle time: needed {duration:g}, "
        f"short by {remaining:g} after t={lo:g}"
    )


def occupied_fit_end_pair(
    a: list[float],
    b: list[float],
    duration: float,
    lo: float,
    hi: float,
    stop_at: float = float("inf"),
) -> float:
    """First-fit completion over the **union** of two occupied boundary
    lists, without materialising the union.

    Exactly ``merge(a, b) → complement(lo, hi) → idle_fit_end(duration,
    lo)``, as one two-pointer scan.  Intervals are visited in start order;
    ``cursor``, the union's end so far clipped to ``[lo, hi]``, is where
    the next idle gap would begin, and an interval starting past it opens
    one.  This is Alg. 2's per-candidate score when the candidate's union
    is available as two partial folds (shared prefix + interior segment);
    only the winning candidate ever materialises its union.

    ``stop_at`` aborts the scan once the completion provably cannot fall
    below it: at any point the fit cannot end before ``cursor +
    remaining``, so when that reaches ``stop_at`` the exact value no
    longer matters and ``inf`` is returned.  Alg. 2 passes the current
    best completion, so losing candidates stop as soon as they are beaten.
    Pass ``b=[]`` to score a single occupied list.  Raises ``ValueError``
    when ``[lo, hi)`` holds less than ``duration`` of idle time (never
    raised after an abort).
    """
    if duration <= 0:
        return lo
    remaining = duration
    cursor = lo
    # skip the intervals that end at/before lo in each list
    i = bisect_right(a, lo)
    i -= i & 1
    j = bisect_right(b, lo)
    j -= j & 1
    la, lb = len(a), len(b)
    while i < la or j < lb:
        if j >= lb or (i < la and a[i] <= b[j]):
            s, e = a[i], a[i + 1]
            i += 2
        else:
            s, e = b[j], b[j + 1]
            j += 2
        if s > cursor:
            if s >= hi:
                break
            gap = s - cursor
            if gap >= remaining:
                return cursor + remaining
            remaining -= gap
        if e > cursor:
            cursor = e if e < hi else hi
            if cursor + remaining >= stop_at:
                return float("inf")
    if hi - cursor >= remaining:
        return cursor + remaining
    raise ValueError(
        f"insufficient idle time: needed {duration:g}, "
        f"short by {remaining:g} after t={lo:g}"
    )


def union_all(sets: Iterable[IntervalSet]) -> IntervalSet:
    """Union an iterable of interval sets (paper Alg. 3 lines 1–4).

    Pairwise-merges in sequence; occupancy sets per link are short in
    practice (one interval per allocated slice), so a sweep is adequate.
    The union is association-free — any fold order yields the identical
    boundary list, because it is the unique canonical form of the input
    intervals' union — which is what lets the occupancy ledger share
    partial folds across candidate paths without changing a single float.
    """
    acc: list[float] = []
    for s in sets:
        acc = _merge_union(acc, s._b)
    return IntervalSet._from_boundaries(acc)
