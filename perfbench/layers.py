"""The traced pass: per-layer call counts and times.

Spans are recorded from the benchmark's side of each layer boundary: the
scheduler callbacks the engine makes (through :class:`TracedTaps`) and
the module-level functions and methods in :data:`TARGETS`, which are
swapped for timing wrappers only inside :func:`patched`.  Every wrapped
object is put back before :func:`patched` returns, and
:func:`assert_originals` lets the timed pass prove it runs the program's
own objects.

A span's self time is its duration minus the time of the spans opened
inside it.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import repro.core.allocation as allocation
import repro.core.controller as controller
from repro.core.controller import TapsScheduler
from repro.core.occupancy import OccupancyLedger
from repro.core.reject import RejectRule
from repro.trace.recorder import TraceRecorder

#: (owner, attribute, span name) of every wrapped layer function.
#: ``path_calculation`` and ``occupied_fit_end_pair`` are wrapped where
#: their callers look them up: the controller and the allocation module.
TARGETS = (
    (controller, "path_calculation", "path_calc"),
    (allocation, "occupied_fit_end_pair", "path_calc.scan"),
    (RejectRule, "evaluate", "reject"),
    (OccupancyLedger, "commit", "ledger.commit"),
    (OccupancyLedger, "rollback_trial", "ledger.rollback"),
    (TraceRecorder, "emit", "trace.emit"),
)

#: the program's own objects, captured before anything is wrapped
ORIGINALS = {(owner, attr): getattr(owner, attr) for owner, attr, _ in TARGETS}


def assert_originals() -> None:
    """Raise unless every wrapped attribute holds the program's object."""
    for (owner, attr), fn in ORIGINALS.items():
        if getattr(owner, attr) is not fn:
            raise RuntimeError(
                f"{owner.__name__}.{attr} is still wrapped by the traced pass"
            )


class LayerTracer:
    """Call counts, total and self seconds per span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # child time of each open span

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        children = self._children
        children.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = children.pop()
            self.calls[name] += 1
            self.seconds[name] += dt
            self.self_seconds[name] += dt - child
            if children:
                children[-1] += dt

    def wrap(self, name: str, fn, sized: bool = False):
        """``fn`` timed as ``name``; ``sized`` also sums ``len(args[0])``
        into ``items[name]``."""
        timed, items = self.timed, self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sized:
                items[name] += len(args[0])
            return timed(name, fn, *args, **kwargs)

        return wrapper


@contextmanager
def patched(tracer: LayerTracer):
    """Wrap every function in :data:`TARGETS` for the ``with`` body."""
    try:
        for owner, attr, name in TARGETS:
            fn = ORIGINALS[(owner, attr)]
            setattr(owner, attr, tracer.wrap(name, fn, sized=name == "path_calc"))
        yield tracer
    finally:
        for (owner, attr), fn in ORIGINALS.items():
            setattr(owner, attr, fn)
        assert_originals()


#: scheduler callbacks whose time is not the engine's own
CALLBACK_SPANS = ("admission", "rates", "next_change", "fault", "lifecycle")


class TracedTaps(TapsScheduler):
    """TAPS whose engine callbacks are spans of ``self.tracer``."""

    tracer: LayerTracer

    def on_task_arrival(self, task_state, now):
        self.tracer.timed("admission", super().on_task_arrival, task_state, now)

    def assign_rates(self, now):
        self.tracer.timed("rates", super().assign_rates, now)

    def next_change(self, now):
        return self.tracer.timed("next_change", super().next_change, now)

    def on_link_state_change(self, down_links, now):
        self.tracer.timed("fault", super().on_link_state_change, down_links, now)

    def on_flow_completed(self, fs, now):
        self.tracer.timed("lifecycle", super().on_flow_completed, fs, now)

    def on_deadline_expired(self, fs, now):
        self.tracer.timed("lifecycle", super().on_deadline_expired, fs, now)
