"""The reference oracle: TAPS with Alg. 2/3 and the sender model read literally.

:class:`ReferenceTaps` is the production controller
(:class:`~repro.core.controller.TapsScheduler`) with three pieces swapped
for their textbook forms, each through its own hook:

* the occupancy ledger (``_new_ledger``) is a plain
  ``dict[link, IntervalSet]`` whose trials deep-copy it
  (:class:`ReferenceLedger`) — no segment cache, no undo journal;
* Alg. 2/3 (``_plan``) scores every candidate path as ``union_all →
  complement → idle_fit_end`` and slices the winner with ``first_fit``
  (:func:`reference_path_calculation`) — no partial folds, pruning or
  fused scans;
* the sender model (``assign_rates``/``next_change``) scans the whole
  plan table on every call — no slice-boundary heaps.

Alg. 1's own plumbing (the ``Ftmp`` sort, reject rule, retries, commit and
trace) is shared with the controller, and so are the count of planner
calls and the ``path_calculation`` telemetry span around each one; the
offline auditor (:mod:`repro.trace.audit`) re-derives the plumbing
independently.  Decisions must match the controller's byte for byte —
traces, outcomes and decision counters — which the differential tests and
``benchmarks/test_perf_controller.py`` assert.  Only tests and benchmarks
use this module.
"""

from __future__ import annotations

from repro.core.allocation import FlowPlan, transmission_time
from repro.core.controller import TapsScheduler
from repro.net.paths import PathService
from repro.net.topology import Path
from repro.sim.state import EPS, FlowState, FlowStatus
from repro.util.intervals import IntervalSet, union_all, up


class ReferenceLedger:
    """Alg. 3's ``O_x`` sets kept the obvious way; a trial deep-copies them."""

    def __init__(self) -> None:
        self.occ: dict[int, IntervalSet] = {}
        self._saved: dict[int, IntervalSet] | None = None

    def union_for(self, path: Path) -> IntervalSet:
        """``T_ocp`` — the union of the path's occupied sets (lines 1–4)."""
        return union_all(self.occ[l] for l in path if l in self.occ)

    def commit(self, path: Path, slices: IntervalSet) -> None:
        for l in path:
            held = self.occ.get(l)
            self.occ[l] = slices.copy() if held is None else held.union(slices)

    def copy(self) -> ReferenceLedger:
        out = ReferenceLedger()
        out.occ = {l: s.copy() for l, s in self.occ.items()}
        return out

    def begin_trial(self) -> None:
        if self._saved is not None:
            raise RuntimeError("a ledger trial is already active")
        self._saved = self.copy().occ

    def commit_trial(self) -> None:
        self._saved = None

    def rollback_trial(self) -> None:
        self.occ, self._saved = self._saved, None


def reference_path_calculation(
    flows: list[FlowState],
    ledger: ReferenceLedger,
    paths: PathService,
    capacity: float,
    now: float,
    horizon: float,
) -> dict[int, FlowPlan]:
    """Alg. 2 and 3 as written: for each flow in order, the candidate with
    the earliest completion wins (ties keep the first), its first
    ``E_i`` idle slices are committed.  A flow no candidate can fit gets
    no plan."""
    plans: dict[int, FlowPlan] = {}
    for fs in flows:
        f = fs.flow
        duration = transmission_time(fs, capacity)
        release = max(now, up(f.release))
        best: tuple[float, Path, IntervalSet] | None = None
        for path in paths.candidates(f.src, f.dst):
            idle = ledger.union_for(path).complement(release, horizon)
            try:
                end = idle.idle_fit_end(duration, release)
            except ValueError:
                continue  # a blocked link leaves too little idle time
            if best is None or end < best[0]:
                best = (end, path, idle)
        if best is None:
            continue
        _, path, idle = best
        slices = idle.first_fit(duration, release)
        ledger.commit(path, slices)
        plans[f.flow_id] = FlowPlan(fs, path, slices, slices.end())
    return plans


class ReferenceTaps(TapsScheduler):
    """:class:`TapsScheduler` with the literal ledger, Alg. 2/3 and sender
    model — the oracle the controller's fast paths are checked against.

    The trial's early stop at the newcomer's last ``Ftmp`` flow is shared
    plumbing, inherited through ``_trial``, so this oracle cannot referee
    it; ``test_refused_trial_stop_is_exact`` checks it against a
    controller whose trial plans all of ``Ftmp``.
    """

    def _new_ledger(self) -> ReferenceLedger:
        return ReferenceLedger()

    def _plan(self, ftmp, ledger, start, horizon):
        return reference_path_calculation(
            ftmp, ledger, self.paths, self._capacity, start, horizon
        )

    def assign_rates(self, now: float) -> None:
        if self._flush_at is not None and now >= self._flush_at - EPS:
            self._flush_pending(now)
        probe = now + 2 * EPS
        for plan in self.plans.values():
            fs = plan.flow_state
            if fs.status is FlowStatus.PENDING:
                fs.rate = self._capacity if plan.slices.contains(probe) else 0.0

    def next_change(self, now: float) -> float | None:
        times = [
            plan.slices.next_boundary(now + EPS)
            for plan in self.plans.values()
            if plan.flow_state.status is FlowStatus.PENDING
        ]
        times = [t for t in times if t is not None]
        if self._flush_at is not None and self._flush_at > now + EPS:
            times.append(self._flush_at)
        return min(times, default=None)
