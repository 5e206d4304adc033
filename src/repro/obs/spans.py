"""Hierarchical span timers over a :class:`~repro.obs.registry.MetricsRegistry`.

A *span* is a named, timed region of code::

    with registry.spans.span("controller/admission"):
        ...

Spans nest: while one is open, inner spans extend its path, so the
controller's ``path_calculation`` span opened inside the engine's
``arrival`` span lands in the histogram
``span/engine/arrival/controller/admission/path_calculation`` — the full
causal pipeline is readable straight off the instrument name.
:func:`span_tree` is the one reader of that naming: the ``repro-taps
stats`` report, the Perfetto flame, ``repro-taps diff`` and the perf
record's ``layers`` block all take each node's call count and total time
from it.

Every span exit records its wall duration into a histogram named
``span/<full-path>``, so span timings inherit everything histograms give
us: percentiles, and exact cross-process merging (a sweep's span tree is
the elementwise sum of its workers' trees).

One :class:`SpanTimers` (one stack) is shared per registry via
``registry.spans`` — components must not construct private instances, or
their spans would not nest into the shared tree.  The timers are not
thread-safe (neither is anything else in a simulation run); the parallel
executor gives each worker process its own registry instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from repro.obs.registry import Histogram, MetricsRegistry

_PREFIX = "span/"


class SpanTimers:
    """Span-name stack + duration recording for one registry."""

    __slots__ = ("_registry", "_stack")

    def __init__(self, registry) -> None:
        self._registry = registry
        self._stack: list[str] = []

    @property
    def current_path(self) -> str:
        """The open span path ("" at top level) — diagnostics only."""
        return "/".join(self._stack)

    @contextmanager
    def span(self, name: str):
        """Time a region under ``name`` (nested under any open span)."""
        self._stack.append(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            path = "/".join(self._stack)
            self._stack.pop()
            self._registry.histogram(_PREFIX + path).observe(dt)


def span_tree(registry: MetricsRegistry) -> dict[str, tuple[int, float]]:
    """Every span in ``registry`` as ``{path: (calls, total seconds)}``,
    in path order (each parent before its children)."""
    return {
        h.name[len(_PREFIX):]: (h.count, h.sum)
        for h in registry.instruments()
        if isinstance(h, Histogram) and h.name.startswith(_PREFIX)
    }
