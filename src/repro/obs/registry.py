"""Typed metrics registry: Counter / Gauge / Histogram instruments.

The registry is the single sink for everything the runtime observes about
itself — controller decision counts, admission-latency distributions,
span timings, link-utilization gauges, cache hit counters.  Design rules
(see DESIGN.md §7):

* **Negligible when absent.**  Every instrumented component takes
  ``telemetry=None`` and guards with one ``is None`` test — no registry,
  no work.  That is the one off-switch: a registry, once passed, records.
* **Mergeable.**  Every instrument's state is a pure monoid:
  ``snapshot()`` emits JSON-able dicts and :meth:`MetricsRegistry.
  merge_snapshot` folds them into another registry.  Counters and
  histogram buckets add, gauges take the max — all associative and
  commutative, so process-pool sweep workers
  (:mod:`repro.exp.executor`) can ship snapshots back in any completion
  order and the aggregate is order-independent.
* **Outside the trace.**  Telemetry records *how long and how much*,
  never *what was decided*; decision facts belong to :mod:`repro.trace`.
  Nothing here may be consulted by scheduling code, which is what keeps
  fast/slow-mode traces byte-identical with telemetry on.

Instrument names are hierarchical ``/``-separated paths
(``controller/admission_latency_seconds``); an optional ``labels`` dict
(e.g. ``{"link": "12"}``) distinguishes per-entity series under one name.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf


def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic event count.  Merge: sum."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {
            "kind": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }

    def merge(self, snap: dict) -> None:
        self.value += snap["value"]


class Gauge:
    """Last-observed value, with the peak retained.

    Merge semantics take the **max** of both ``value`` and ``max`` —
    across sweep workers "the last value" of a shared gauge is
    meaningless, while "the highest anyone saw" (peak queue depth, peak
    link utilization) is the quantity the SLO questions ask.  Max is
    associative and commutative, keeping merges order-independent.
    """

    __slots__ = ("name", "labels", "value", "max")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max = -inf

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max:
            self.max = v

    def snapshot(self) -> dict:
        return {
            "kind": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
            "max": self.value if self.max == -inf else self.max,
        }

    def merge(self, snap: dict) -> None:
        if self.max == -inf:
            # never set: take the snapshot as is (0.0 is no identity for max)
            self.value, self.max = snap["value"], snap["max"]
            return
        self.set(max(self.value, snap["value"]))
        if snap["max"] > self.max:
            self.max = snap["max"]


#: default histogram shape: half-decade-ish log buckets from 100 ns up to
#: ~3e7 s — wide enough for any duration this codebase times, fine enough
#: that a quantile is exact to within a factor of √2
DEFAULT_LO = 1e-7
DEFAULT_GROWTH = 2.0 ** 0.5
DEFAULT_BUCKETS = 96


class Histogram:
    """Fixed log-bucketed histogram with quantile extraction.

    Bucket ``i`` (0-based, ``0 <= i < buckets``) covers
    ``[lo * growth**i, lo * growth**(i+1))``; two extra buckets catch
    underflow (``< lo``) and overflow.  The bucket layout is *fixed at
    construction* so histograms of the same name merge exactly across
    processes (elementwise count addition — no rebinning, no
    approximation drift).

    :meth:`quantile` walks the cumulative counts to the target rank and
    returns the containing bucket's upper edge clamped into the observed
    ``[min, max]`` — the estimate always lies inside the bucket that
    holds the true order statistic, i.e. within one ``growth`` factor of
    the exact percentile (property-tested against numpy in
    ``tests/obs/test_registry.py``).
    """

    __slots__ = ("name", "labels", "lo", "growth", "buckets", "counts",
                 "sum", "count", "min", "max", "_edges")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...] = (),
        lo: float = DEFAULT_LO,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
    ):
        if lo <= 0 or growth <= 1 or buckets < 1:
            raise ValueError("need lo > 0, growth > 1, buckets >= 1")
        self.name = name
        self.labels = labels
        self.lo = lo
        self.growth = growth
        self.buckets = buckets
        #: [underflow] + buckets + [overflow]
        self.counts = [0] * (buckets + 2)
        self.sum = 0.0
        self.count = 0
        self.min = inf
        self.max = -inf
        #: upper edge of bucket i is _edges[i]; _edges[0] == lo is the
        #: upper edge of the underflow bucket
        self._edges = [lo * growth ** i for i in range(buckets + 1)]

    def observe(self, v: float) -> None:
        self.sum += v
        self.count += 1
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        # index 0 = underflow, 1..buckets = log buckets, buckets+1 = overflow
        self.counts[bisect_right(self._edges, v)] += 1

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
        if idx >= self.buckets + 1:  # overflow bucket: only max is known
            return self.max
        # upper edge of the containing bucket, clamped into observed range
        return max(self.min, min(self._edges[idx], self.max))

    def percentiles(self, *qs: float) -> dict[str, float]:
        """``{"p50": ..., "p99": ...}`` for the requested quantiles."""
        return {f"p{100 * q:g}": self.quantile(q) for q in qs}

    def snapshot(self) -> dict:
        return {
            "kind": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "lo": self.lo,
            "growth": self.growth,
            "buckets": self.buckets,
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": 0.0 if self.count == 0 else self.min,
            "max": 0.0 if self.count == 0 else self.max,
        }

    def merge(self, snap: dict) -> None:
        if (snap["lo"], snap["growth"], snap["buckets"]) != (
            self.lo, self.growth, self.buckets
        ):
            raise ValueError(
                f"histogram {self.name!r}: incompatible bucket layout "
                f"{(snap['lo'], snap['growth'], snap['buckets'])} vs "
                f"{(self.lo, self.growth, self.buckets)}"
            )
        self.counts = [a + b for a, b in zip(self.counts, snap["counts"])]
        self.sum += snap["sum"]
        self.count += snap["count"]
        if snap["count"]:
            self.min = min(self.min, snap["min"])
            self.max = max(self.max, snap["max"])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create instrument store with mergeable snapshots.

    One registry observes one scope — a run, a sweep, a service.  The
    same ``(name, labels)`` always returns the same instrument;
    requesting an existing name as a different kind raises.
    """

    def __init__(self, meta: dict | None = None):
        self.meta: dict = dict(meta) if meta else {}
        self._instruments: dict[tuple[str, tuple], Counter | Gauge | Histogram] = {}
        self._spans = None

    # -- instrument factories ------------------------------------------------

    def _get(self, cls, name: str, labels: dict[str, str] | None, **kwargs):
        if not name:
            raise ValueError("instrument name must be non-empty")
        key = (name, _label_key(labels))
        got = self._instruments.get(key)
        if got is None:
            got = cls(name, key[1], **kwargs)
            self._instruments[key] = got
        elif type(got) is not cls:
            raise TypeError(
                f"instrument {name!r} already registered as {got.kind}"
            )
        return got

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: dict[str, str] | None = None,
        lo: float = DEFAULT_LO,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, labels,
                         lo=lo, growth=growth, buckets=buckets)

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
        """All instruments, sorted by (name, labels) for stable export."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def find(self, name: str) -> list:
        """Every instrument with this name (one per label set)."""
        return [inst for (n, _), inst in sorted(self._instruments.items())
                if n == name]

    def get(self, name: str, labels: dict[str, str] | None = None):
        """The instrument at (name, labels), or ``None``."""
        return self._instruments.get((name, _label_key(labels)))

    def snapshot(self) -> list[dict]:
        """Every instrument as a JSON-able dict, stably ordered."""
        return [inst.snapshot() for inst in self.instruments()]

    def merge_snapshot(self, snap: list[dict] | dict) -> None:
        """Fold instrument snapshots (from :meth:`snapshot` or a loaded
        JSONL export) into this registry, creating instruments as needed.

        Counters add, gauges max, histogram buckets add elementwise —
        associative and commutative, so worker snapshots may arrive in
        any order (property-tested).
        """
        if isinstance(snap, dict):
            snap = [snap]
        for item in snap:
            cls = _KINDS.get(item.get("kind"))
            if cls is None:
                raise ValueError(f"unknown instrument kind {item.get('kind')!r}")
            kwargs = {}
            if cls is Histogram:
                kwargs = {k: item[k] for k in ("lo", "growth", "buckets")}
            self._get(cls, item["name"], item.get("labels"), **kwargs).merge(item)
