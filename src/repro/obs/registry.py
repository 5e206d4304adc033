"""Metrics registry for one run: counters and histograms.

The registry is the single sink for everything a run observes about
itself — controller decision counts, span timings (the only timer: the
admission latency is the ``admission`` span's histogram), engine and
hot-path work counts.  Design rules (see DESIGN.md §7):

* **Negligible when absent.**  Every instrumented component takes
  ``telemetry=None`` and guards with one ``is None`` test — no registry,
  no work.  That is the one off-switch: a registry, once passed, records.
* **One run.**  A registry describes exactly one run and holds only the
  instrument kinds its readers read: counters and histograms.  Every
  histogram shares one fixed bucket layout (:data:`LO`, :data:`GROWTH`,
  :data:`BUCKETS`), a name identifies one instrument (there are no
  labels), and no registry is ever merged into another.
* **Outside the trace.**  Telemetry records *how long and how much*,
  never *what was decided*; decision facts belong to :mod:`repro.trace`.
  Nothing here may be consulted by scheduling code, which is what keeps
  traces byte-identical with telemetry on or off.

Instrument names are hierarchical ``/``-separated paths
(``controller/tasks_accepted``, ``span/run/arrival/admission``).
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"kind": "counter", "name": self.name, "value": self.value}


#: the one histogram layout: log buckets from 100 ns up to ~3e7 s — wide
#: enough for any duration this codebase times, fine enough that a
#: quantile is exact to within a factor of √2
LO = 1e-7
GROWTH = 2.0 ** 0.5
BUCKETS = 96

#: upper edge of bucket i; _EDGES[0] == LO is the underflow bucket's
_EDGES = [LO * GROWTH ** i for i in range(BUCKETS + 1)]


class Histogram:
    """Log-bucketed histogram with quantile extraction.

    Bucket ``i`` (0-based, ``0 <= i < BUCKETS``) covers
    ``[LO * GROWTH**i, LO * GROWTH**(i+1))``; two extra buckets catch
    underflow (``< LO``) and overflow, so ``counts`` has ``BUCKETS + 2``
    entries.

    :meth:`quantile` walks the cumulative counts to the target rank and
    interpolates by rank between the containing bucket's lower and upper
    edges (the underflow bucket starts at the observed ``min``), clamped
    into the observed ``[min, max]``; in the overflow bucket it returns
    ``max``.  The estimate always lies inside the bucket that holds the
    true order statistic, i.e. within one ``GROWTH`` factor of the exact
    percentile (property-tested against numpy in
    ``tests/obs/test_registry.py``), and it moves when the samples shift
    by less than a bucket.
    """

    __slots__ = ("name", "counts", "sum", "count", "min", "max")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        #: [underflow] + BUCKETS + [overflow]
        self.counts = [0] * (BUCKETS + 2)
        self.sum = 0.0
        self.count = 0
        self.min = inf
        self.max = -inf

    def observe(self, v: float) -> None:
        self.sum += v
        self.count += 1
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        # index 0 = underflow, 1..BUCKETS = log buckets, BUCKETS+1 = overflow
        self.counts[bisect_right(_EDGES, v)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1), exact to one bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        idx = len(self.counts) - 1
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= rank and c:
                idx = i
                break
        if idx >= BUCKETS + 1:  # overflow bucket: only max is known
            return self.max
        # interpolate by rank across the containing bucket, whose lower
        # edge is min for the underflow bucket; clamp into observed range
        c = self.counts[idx]
        lo = _EDGES[idx - 1] if idx else self.min
        hi = _EDGES[idx]
        est = lo + (hi - lo) * (rank - (cum - c)) / c
        return max(self.min, min(est, self.max))

    def percentiles(self, *qs: float) -> dict[str, float]:
        """``{"p50": ..., "p99": ...}`` for the requested quantiles."""
        return {f"p{100 * q:g}": self.quantile(q) for q in qs}

    def snapshot(self) -> dict:
        return {
            "kind": "histogram",
            "name": self.name,
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": 0.0 if self.count == 0 else self.min,
            "max": 0.0 if self.count == 0 else self.max,
        }


class MetricsRegistry:
    """Get-or-create instrument store for one run.

    The same name always returns the same instrument; requesting an
    existing name as the other kind raises.
    """

    def __init__(self, meta: dict | None = None):
        self.meta: dict = dict(meta) if meta else {}
        self._instruments: dict[str, Counter | Histogram] = {}
        self._spans = None

    # -- instrument factories ------------------------------------------------

    def _get(self, cls, name: str):
        got = self._instruments.get(name)
        if got is None:
            if not name:
                raise ValueError("instrument name must be non-empty")
            got = self._instruments[name] = cls(name)
        elif type(got) is not cls:
            raise TypeError(
                f"instrument {name!r} already registered as {got.kind}"
            )
        return got

    def counter(self, name: str) -> Counter:
        return self._get(Counter, name)

    def histogram(self, name: str) -> Histogram:
        return self._get(Histogram, name)

    # -- spans ---------------------------------------------------------------

    @property
    def spans(self):
        """This registry's hierarchical span timers (one shared stack, so
        spans opened by different components nest into one tree)."""
        if self._spans is None:
            from repro.obs.spans import SpanTimers

            self._spans = SpanTimers(self)
        return self._spans

    # -- snapshots -----------------------------------------------------------

    def set_meta(self, **kwargs) -> None:
        """Merge metadata into the export header (scheduler, topology…)."""
        self.meta.update(kwargs)

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> list:
        """All instruments, sorted by name for stable export."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def get(self, name: str):
        """The instrument named ``name``, or ``None``."""
        return self._instruments.get(name)

    def snapshot(self) -> list[dict]:
        """Every instrument as a JSON-able dict, stably ordered."""
        return [inst.snapshot() for inst in self.instruments()]
