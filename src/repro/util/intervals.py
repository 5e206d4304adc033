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

All operations treat intervals closer than :data:`EPS` as touching and merge
them, which keeps floating-point dust from fragmenting allocations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

EPS: float = 1e-9
"""Two boundaries closer than this are considered equal.

The simulator's natural time quantum is ~1e-6 s (microseconds) and horizons
are ~1e2 s, so 1e-9 is far below any meaningful gap while far above float64
noise accumulated by the arithmetic here.
"""

Interval = tuple[float, float]


class IntervalSet:
    """A set of disjoint half-open intervals ``[start, end)`` on the reals.

    Instances are mutable; the in-place operations (:meth:`add`,
    :meth:`subtract`, :meth:`union_update`) are used by the occupancy
    ledger, while the pure operations (:meth:`union`, :meth:`complement`,
    :meth:`intersection`) are used by the allocation algorithms.

    Invariants (checked by :meth:`check_invariants` and the property
    tests): boundaries strictly increase, every interval is wider than
    :data:`EPS`, and consecutive intervals are separated by more than
    :data:`EPS`.
    """

    __slots__ = ("_b",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._b: list[float] = []
        for start, end in intervals:
            self.add(start, end)

    # -- construction -----------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        """Return a new empty set."""
        return cls()

    @classmethod
    def single(cls, start: float, end: float) -> "IntervalSet":
        """Return a set holding the single interval ``[start, end)``."""
        out = cls()
        out.add(start, end)
        return out

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
        if len(self._b) != len(other._b):
            return False
        return all(abs(x - y) <= EPS for x, y in zip(self._b, other._b))

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

    def overlaps(self, start: float, end: float) -> bool:
        """Whether ``[start, end)`` intersects the set by more than EPS."""
        if end - start <= EPS:
            return False
        b = self._b
        for i in range(0, len(b), 2):
            if b[i] >= end - EPS:
                break
            if b[i + 1] > start + EPS:
                return True
        return False

    # -- mutation ------------------------------------------------------------

    def add(self, start: float, end: float) -> None:
        """Insert ``[start, end)``, merging with touching/overlapping spans.

        Intervals narrower than :data:`EPS` are ignored.
        """
        if end - start <= EPS:
            return
        b = self._b
        if not b:
            b.extend((start, end))
            return
        if start > b[-1] + EPS:  # fast path: append at the right edge
            b.extend((start, end))
            return
        if start <= b[-1] + EPS and start >= b[-2] - EPS and end >= b[-1] - EPS:
            # fast path: extend the last interval
            b[-2] = min(b[-2], start)
            b[-1] = max(b[-1], end)
            return
        merged: list[float] = []
        i = 0
        n = len(b)
        # copy intervals entirely left of the new one
        while i < n and b[i + 1] < start - EPS:
            merged.extend((b[i], b[i + 1]))
            i += 2
        # absorb all intervals that touch [start, end)
        new_s, new_e = start, end
        while i < n and b[i] <= end + EPS:
            new_s = min(new_s, b[i])
            new_e = max(new_e, b[i + 1])
            i += 2
        merged.extend((new_s, new_e))
        merged.extend(b[i:])
        self._b = merged

    def subtract(self, start: float, end: float) -> None:
        """Remove ``[start, end)`` from the set."""
        if end - start <= EPS:
            return
        b = self._b
        out: list[float] = []
        for i in range(0, len(b), 2):
            s, e = b[i], b[i + 1]
            if e <= start + EPS or s >= end - EPS:
                out.extend((s, e))
                continue
            if s < start - EPS:
                out.extend((s, start))
            if e > end + EPS:
                out.extend((end, e))
        self._b = out

    def union_update(self, other: "IntervalSet") -> None:
        """In-place union with ``other``."""
        self._b = _merge_union(self._b, other._b)

    def clear(self) -> None:
        """Remove all intervals."""
        self._b.clear()

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
            if e - s > EPS:
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
            if e <= lo + EPS:
                continue
            if s >= hi - EPS:
                break
            s_clip = max(s, lo)
            e_clip = min(e, hi)
            if s_clip - cursor > EPS:
                out.extend((cursor, s_clip))
            cursor = max(cursor, e_clip)
        if hi - cursor > EPS:
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
        if duration <= EPS:
            return IntervalSet()
        remaining = duration
        out: list[float] = []
        for s, e in self:
            # subtraction form, as in complement(): a gap complement() kept
            # because it ends more than EPS past its start is never dropped
            # here by one ulp of rounding in ``after + EPS``
            if e - after <= EPS:
                continue
            s = max(s, after)
            width = e - s
            if width <= EPS:
                continue
            if width >= remaining - EPS:
                # final gap: a shortfall within EPS counts as a full fit,
                # mirroring idle_fit_end exactly
                out.extend((s, s + min(width, remaining)))
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
        if duration <= EPS:
            return after
        remaining = duration
        b = self._b
        for i in range(0, len(b), 2):
            s, e = b[i], b[i + 1]
            if e - after <= EPS:
                continue
            s = max(s, after)
            width = e - s
            if width <= EPS:
                continue
            if width >= remaining - EPS:
                return s + min(width, remaining)
            remaining -= width
        raise ValueError(
            f"insufficient idle time: needed {duration:g}, "
            f"short by {remaining:g} after t={after:g}"
        )

    def occupied_first_fit(self, duration: float, lo: float, hi: float) -> "IntervalSet":
        """First-fit slices treating *this* set as **occupied**.

        Exactly ``self.complement(lo, hi).first_fit(duration, lo)`` — one
        fused scan instead of materialising the idle set first.  Used by
        Alg. 3 to build the winning path's slices.

        Raises ``ValueError`` when ``[lo, hi)`` holds less than
        ``duration`` of idle time.
        """
        if duration <= EPS:
            return IntervalSet()
        remaining = duration
        b = self._b
        cursor = lo
        out: list[float] = []
        k = bisect_right(b, lo + EPS)
        for i in range(k - (k & 1), len(b), 2):
            s, e = b[i], b[i + 1]
            if e <= lo + EPS:
                continue
            if s >= hi - EPS:
                break
            gs = s if s > lo else lo
            width = gs - cursor
            if width > EPS:
                if width >= remaining - EPS:
                    out.extend(
                        (cursor,
                         cursor + (width if width < remaining else remaining))
                    )
                    return IntervalSet._from_boundaries(out)
                out.extend((cursor, gs))
                remaining -= width
            e_clip = min(e, hi)
            if e_clip > cursor:
                cursor = e_clip
        width = hi - cursor
        if width > EPS and width >= remaining - EPS:
            out.extend(
                (cursor, cursor + (width if width < remaining else remaining))
            )
            return IntervalSet._from_boundaries(out)
        raise ValueError(
            f"insufficient idle time: needed {duration:g}, "
            f"short by {remaining:g} after t={lo:g}"
        )

    def next_boundary(self, t: float) -> float | None:
        """Earliest boundary later than ``t + EPS`` (slice starts and ends).

        Used by the TAPS sender model to know when its rate next changes
        (a slice begins or ends).  Returns ``None`` past the last boundary.
        """
        return self.locate(t + EPS)[1]

    # -- validation -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the canonical-form invariants; used by tests."""
        b = self._b
        if len(b) % 2 != 0:
            raise AssertionError("odd boundary count")
        for i in range(0, len(b), 2):
            if not b[i + 1] - b[i] > EPS:
                raise AssertionError(f"degenerate interval at {i}: {b[i]}..{b[i+1]}")
        for i in range(1, len(b) - 1, 2):
            if not b[i + 1] - b[i] > EPS:
                raise AssertionError(f"touching intervals at boundary {i}")


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
        if out and s <= out[-1] + EPS:
            if e > out[-1]:
                out[-1] = e
        else:
            out.extend((s, e))
    return out


def merge_boundaries(a: list[float], b: list[float]) -> list[float]:
    """Union two flat boundary lists, returning a new list.

    Same result as :func:`_merge_union` (the union is association-free,
    so any strategy must agree float-for-float), but when one side is much
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
        # intervals of `out` gluing with [s, e): those with end >= s - EPS
        # and start <= e + EPS (the flat list is globally sorted, so plain
        # bisect positions translate directly to interval indices).  The
        # bisect lands within one interval of the exact spot; refine with
        # the two-pointer sweep's literal glue predicate so hairline
        # cases resolve identically.
        n = len(out) >> 1
        k0 = bisect_left(out, s - EPS) >> 1
        while k0 > 0 and s <= out[2 * k0 - 1] + EPS:
            k0 -= 1
        while k0 < n and out[2 * k0 + 1] + EPS < s:
            k0 += 1
        k1 = (bisect_right(out, e + EPS) - 1) >> 1
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
    lo)``, as one two-pointer scan.  Intervals are visited in start order
    and grouped into the union's canonical intervals with the merge's own
    glue predicate — a new union interval starts only where ``s`` exceeds
    the running *unclipped* union end (``uend``) by more than ``EPS``, the
    literal ``s <= out[-1] + EPS`` test of :func:`_merge_union` — and the
    fit's gap logic runs once per group start, against the fit's clipped
    ``cursor``.  Keeping the two predicates separate matters: on
    EPS-chained boundaries the addition form (``s > uend + EPS``) and the
    subtraction form (``s - cursor > EPS``) can disagree by one ulp, and
    only this composition reproduces ``merge → fit`` float-for-float.
    This is Alg. 2's per-candidate score when the candidate's union is
    available as two partial folds (shared prefix + interior segment);
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
    if duration <= EPS:
        return lo
    remaining = duration
    cursor = lo
    i = bisect_right(a, lo + EPS)
    i -= i & 1
    j = bisect_right(b, lo + EPS)
    j -= j & 1
    la, lb = len(a), len(b)
    # The bisects skip intervals ending at/before lo+EPS, but a skipped
    # interval of one list may still EPS-glue to the first visited
    # interval of the other (lists are canonical individually, not
    # jointly): seed ``uend`` with the latest skipped end so head glue
    # suppresses a phantom sub-2·EPS gap exactly as the real merge would.
    uend = a[i - 1] if i else lo - 1.0
    if j and b[j - 1] > uend:
        uend = b[j - 1]
    while i < la or j < lb:
        if j >= lb or (i < la and a[i] <= b[j]):
            s, e = a[i], a[i + 1]
            i += 2
        else:
            s, e = b[j], b[j + 1]
            j += 2
        if s > uend + EPS:
            # the merge would start a new union interval here: close the
            # previous group and run the union fit's per-interval step
            if s >= hi - EPS:
                break
            gap = (s if s > lo else lo) - cursor
            if gap > EPS:
                if gap >= remaining - EPS:
                    return cursor + (gap if gap < remaining else remaining)
                remaining -= gap
        if e > uend:
            uend = e
        if e <= lo + EPS:
            continue
        e_clip = e if e < hi else hi
        if e_clip > cursor:
            cursor = e_clip
            if cursor + remaining >= stop_at:
                return float("inf")
    gap = hi - cursor
    if gap > EPS and gap >= remaining - EPS:
        return cursor + (gap if gap < remaining else remaining)
    raise ValueError(
        f"insufficient idle time: needed {duration:g}, "
        f"short by {remaining:g} after t={lo:g}"
    )


def union_all(sets: Iterable[IntervalSet]) -> IntervalSet:
    """Union an iterable of interval sets (paper Alg. 3 lines 1–4).

    Pairwise-merges in sequence; occupancy sets per link are short in
    practice (one interval per allocated slice), so a sweep is adequate.
    The union is association-free — any fold order yields the identical
    boundary list, because the EPS-glue groups are determined by the
    multiset of input intervals alone — which is what lets the occupancy
    ledger's fast path share partial folds across candidate paths without
    changing a single float.
    """
    acc: list[float] = []
    for s in sets:
        acc = _merge_union(acc, s._b)
    return IntervalSet._from_boundaries(acc)
