"""Differential fuzz: the engine's rate-report path against its full scans.

After a rate recompute the engine updates its sending set, the down-link
zeroing and the slice events from the scheduler's rate report
(``Scheduler.rate_changes``), and rescans every active flow only when the
report is ``None`` or a fault transition happened.  Each case of the
oracle fuzz (:func:`tests.core.test_reference_differential.cases`:
outages, a batch window whose flush runs inside ``assign_rates``, control
latency, every preemption policy and priority, incremental admission),
plus an optional hard horizon, runs through three controllers that differ
only in what they report:

* :class:`FullScanTaps` reports ``None`` always, so the engine rescans at
  every recompute — the reference;
* :class:`~repro.core.controller.TapsScheduler` reports the plans its
  slice-boundary heaps re-evaluated, and ``None`` after a plan-table
  replacement;
* :class:`EagerReportTaps` reports after a replacement too: every pending
  planned flow.  A flow left without a plan keeps a stale rate and is
  not named, so only the engine's own rescan at a fault transition stops
  it on a down link.  It also reports in reverse order, which a report
  may: flows then join the engine's sending set out of arrival order.

Traces, outcomes and engine counters must be byte-identical, and the
trace must pass the audit.  With flow sizes rounded onto a grid, flows
often complete at one instant, so the reversed report checks that such
completions are still finished in arrival order.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.controller import TapsScheduler
from repro.sim.state import FlowStatus
from repro.trace import audit_trace
from repro.util.units import KB, ms
from repro.workload.flow import Task, make_task
from tests.core.test_reference_differential import _run, cases


class FullScanTaps(TapsScheduler):
    """Reports nothing: the engine rescans at every recompute."""

    def assign_rates(self, now):
        super().assign_rates(now)
        self.rate_changes = None


class EagerReportTaps(TapsScheduler):
    """Reports every pending planned flow after a plan-table replacement,
    which names every flow whose rate or path the controller wrote, and
    reports in reverse order."""

    def assign_rates(self, now):
        super().assign_rates(now)
        report = self.rate_changes
        if report is None:
            report = [
                p.flow_state for p in self.plans.values()
                if p.flow_state.status is FlowStatus.PENDING
            ]
        self.rate_changes = report[::-1]


def _on_grid(tasks: list[Task], grain: float) -> list[Task]:
    """The same tasks with every flow size rounded up to a multiple of
    ``grain``, so that flows often finish at one instant."""
    out = []
    for task in tasks:
        specs = [(f.src, f.dst, grain * -(-f.size // grain)) for f in task.flows]
        out.append(make_task(task.task_id, task.arrival, task.deadline, specs,
                             task.flows[0].flow_id))
    return out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases(), st.sampled_from([None, 100 * KB]),
       st.sampled_from([None, None, 8 * ms, 20 * ms]))
def test_rate_report_matches_full_scans(case, grain, horizon):
    topo, tasks, faults, max_paths, knobs = case
    if grain is not None:
        tasks = _on_grid(tasks, grain)
    ref, ref_outcome = _run(FullScanTaps, topo, tasks, faults, max_paths,
                            knobs, horizon)
    for cls in (TapsScheduler, EagerReportTaps):
        got, outcome = _run(cls, topo, tasks, faults, max_paths, knobs, horizon)
        assert got.dumps() == ref.dumps(), cls.__name__
        assert outcome == ref_outcome, cls.__name__
    report = audit_trace(ref)
    assert report.ok, report.summary()
