"""The invariant auditor, exercised on clean and deliberately corrupted
traces — a clean run passes; each seeded corruption is pinned to the
invariant that must catch it."""

import dataclasses
import re

import pytest

from repro.core import allocation, reference
from repro.core.controller import TapsScheduler
from repro.core.reference import ReferenceTaps
from repro.net.fattree import FatTree
from repro.net.paths import PathService
from repro.sim.engine import Engine
from repro.trace import (
    AuditReport,
    FlowCompleted,
    PlanRecord,
    Preemption,
    SliceEnd,
    SliceStart,
    TaskAccept,
    TaskArrival,
    TaskReject,
    TraceRecorder,
    TrialBegin,
    TrialRollback,
    Violation,
    audit_events,
    audit_trace,
)
from repro.util.intervals import GRID, up
from repro.workload.generator import WorkloadConfig, generate_workload


def _plan(flow_id, task_id, path, slices, deadline):
    return PlanRecord(flow_id=flow_id, task_id=task_id, path=tuple(path),
                      slices=tuple(slices), completion=slices[-1],
                      deadline=deadline)


def _stamp(events):
    """Assign sequence numbers the way a recorder would."""
    for i, ev in enumerate(events):
        ev.seq = i
    return events


def _clean_stream():
    """A minimal legal trace: two tasks, one accept, one clause-3 reject."""
    return _stamp([
        TaskArrival(0.0, task_id=1, deadline=1.0, num_flows=1,
                    total_bytes=100.0),
        TrialBegin(0.0, task_id=1, attempt=1, flows=((10, 1.0, 100.0, 0.0),)),
        TaskAccept(0.0, task_id=1, victims=(),
                   plans=(_plan(10, 1, (5, 6), (0.0, 0.5), 1.0),)),
        SliceStart(0.0, flow_id=10, task_id=1, path=(5, 6)),
        TaskArrival(0.1, task_id=2, deadline=0.4, num_flows=1,
                    total_bytes=50.0),
        TrialBegin(0.1, task_id=2, attempt=1,
                   flows=((20, 0.4, 50.0, 0.1), (10, 1.0, 80.0, 0.0))),
        TaskReject(0.1, task_id=2, reason="would-miss", clause=2,
                   missing=((20, 2),), lateness=((20, 0.2),)),
        SliceEnd(0.5, flow_id=10, task_id=1),
        FlowCompleted(0.5, flow_id=10, task_id=1, met_deadline=True),
    ])


def _first_invariants(report):
    return {v.invariant for v in report.violations}


class TestCleanTraces:
    def test_synthetic_clean_stream_passes(self):
        report = audit_events(_clean_stream())
        assert report.ok, report.summary()
        assert report.events_audited == 9

    def test_real_run_passes_and_violations_pin_to_events(self):
        topo = FatTree(k=4)
        cfg = WorkloadConfig(seed=5, num_tasks=10, arrival_rate=300.0,
                             mean_deadline=0.1, mean_flow_size=300_000.0,
                             mean_flows_per_task=4.0)
        tasks = generate_workload(cfg, list(topo.hosts))
        recorder = TraceRecorder()
        Engine(topo, tasks, TapsScheduler(),
               path_service=PathService(topo, max_paths=4),
               trace=recorder).run()
        report = audit_trace(recorder)
        assert report.ok, report.summary()
        assert report.counts["task-arrival"] == 10
        assert report.counts["run-end"] == 1

    @pytest.mark.parametrize("batch_window", [0.0, 0.004])
    def test_control_latency_run_passes(self, batch_window):
        """Controller events carry the decision time, not the planning
        time ``now + control_latency``, so the stream never runs backwards
        against the engine's own events."""
        topo = FatTree(k=4)
        cfg = WorkloadConfig(seed=3, num_tasks=12, arrival_rate=300.0,
                             mean_deadline=0.05, mean_flow_size=300_000.0,
                             mean_flows_per_task=4.0)
        tasks = generate_workload(cfg, list(topo.hosts))
        recorder = TraceRecorder()
        sched = TapsScheduler(control_latency=0.0004, batch_window=batch_window)
        Engine(topo, tasks, sched, path_service=PathService(topo, max_paths=4),
               trace=recorder).run()
        report = audit_trace(recorder)
        assert report.ok, report.summary()
        assert report.counts["task-accept"] and report.counts["task-reject"]

    def test_truncated_recorder_is_flagged_unsound(self):
        rec = TraceRecorder(capacity=2)
        for ev in _clean_stream():
            rec.emit(ev)
        report = audit_trace(rec)
        assert report.truncated
        assert "unsound" in report.summary()


class TestSummary:
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_every_violation_is_listed_or_counted(self, n):
        """The summary lists the first six violations and counts the
        rest, so none goes unmentioned."""
        violations = [Violation(f"inv-{i}", i, float(i), f"breach {i}")
                      for i in range(n)]
        text = AuditReport(events_audited=n, violations=violations).summary()
        listed = sum(str(v) in text for v in violations)
        more = re.search(r"\.\.\. and (\d+) more", text)
        assert listed + (int(more.group(1)) if more else 0) == n


class TestCorruptedPlans:
    def test_mutated_slice_overlap_is_caught(self):
        """Corrupt a committed plan table so two flows' slices overlap on a
        shared link — the exclusive-link invariant must name the collision."""
        events = _clean_stream()
        accept = events[2]
        overlapping = accept.plans + (
            _plan(11, 1, (6, 7), (0.25, 0.75), 1.0),  # link 6 ∩ [0.25,0.5)
        )
        events[2] = dataclasses.replace(accept, plans=overlapping)
        events[2].seq = accept.seq
        report = audit_events(events)
        assert not report.ok
        v = report.first_violation
        assert v.invariant == "exclusive-link"
        assert v.seq == accept.seq
        assert v.context["link"] == 6
        assert set(v.context["flows"]) == {10, 11}

    def test_committed_plan_past_deadline_is_caught(self):
        events = _clean_stream()
        accept = events[2]
        late = (_plan(10, 1, (5, 6), (0.0, 1.5), 1.0),)  # completes at 1.5
        events[2] = dataclasses.replace(accept, plans=late)
        events[2].seq = accept.seq
        report = audit_events(events)
        assert "deadline-at-commit" in _first_invariants(report)

    def test_one_grid_unit_overlap_is_caught(self):
        """Plan times are exact, so two flows sharing link 6 for a single
        grid unit collide — no float tolerance may hide it."""
        events = _clean_stream()
        accept = events[2]
        events[2] = dataclasses.replace(
            accept,
            plans=accept.plans + (_plan(11, 1, (6, 7), (0.5 - GRID, 0.75), 1.0),),
        )
        events[2].seq = accept.seq
        v = audit_events(events).first_violation
        assert v.invariant == "exclusive-link"
        assert v.context["overlap"] == (0.5 - GRID, 0.5)

    def test_inconsistent_completion_is_caught(self):
        events = _clean_stream()
        accept = events[2]
        plan = dataclasses.replace(accept.plans[0], completion=0.3)
        events[2] = dataclasses.replace(accept, plans=(plan,))
        events[2].seq = accept.seq
        report = audit_events(events)
        assert "plan-consistency" in _first_invariants(report)


class TestConservation:
    """Each committed plan of an admission's trial books exactly the
    flow's transmission time."""

    def test_checks_trial_flows_against_the_capacity(self):
        # the trial's flow 10 has 100 bytes left and is booked [0, 0.5)
        events = _clean_stream()
        accept = events[2]
        events[2] = dataclasses.replace(  # flow 11 is frozen: not checked
            accept,
            plans=accept.plans + (_plan(11, 1, (7,), (0.0, 0.1), 1.0),),
        )
        events[2].seq = accept.seq
        assert audit_events(events).ok  # no capacity in the meta: skipped
        assert audit_events(events, meta={"capacity": 200.0}).ok
        report = audit_events(events, meta={"capacity": 100.0})
        assert _first_invariants(report) == {"conservation"}
        assert report.first_violation.context["flow_id"] == 10

    @staticmethod
    def _trace(make_scheduler) -> TraceRecorder:
        topo = FatTree(k=4)
        cfg = WorkloadConfig(seed=3, num_tasks=25, arrival_rate=300.0,
                             mean_deadline=0.05, mean_flow_size=300_000.0,
                             mean_flows_per_task=4.0)
        tasks = generate_workload(cfg, list(topo.hosts))
        recorder = TraceRecorder()
        Engine(topo, tasks, make_scheduler(),
               path_service=PathService(topo, max_paths=4),
               trace=recorder).run()
        return recorder

    def test_committed_plans_are_on_the_plan_grid(self):
        recorder = self._trace(
            lambda: TapsScheduler(control_latency=0.0004, batch_window=0.002)
        )
        assert audit_trace(recorder).ok
        bounds = [
            t
            for ev in recorder.events if ev.kind == "task-accept"
            for pr in ev.plans for t in pr.slices
        ]
        assert bounds and all(up(t) == t for t in bounds)

    def test_short_booking_caught_although_the_oracle_agrees(self, monkeypatch):
        """Book every flow one grid unit short, in the controller and the
        oracle alike: the two still agree byte for byte, so only the
        auditor can see it."""
        exact = allocation.transmission_time

        def short(fs, capacity):
            return exact(fs, capacity) - GRID

        monkeypatch.setattr(allocation, "transmission_time", short)
        monkeypatch.setattr(reference, "transmission_time", short)
        recorder = self._trace(TapsScheduler)
        assert recorder.dumps() == self._trace(ReferenceTaps).dumps()
        report = audit_trace(recorder)
        assert _first_invariants(report) == {"conservation"}


class TestCorruptedRejects:
    def test_skipped_reject_clause_is_caught(self):
        """Strip the clause from a would-miss rejection — the auditor must
        refuse a rejection that cannot name which rule clause fired."""
        events = _clean_stream()
        reject = events[6]
        events[6] = dataclasses.replace(reject, clause=None)
        events[6].seq = reject.seq
        report = audit_events(events)
        assert not report.ok
        v = report.first_violation
        assert v.invariant == "reject-rule"
        assert "no reject-rule clause" in v.message

    def test_misattributed_clause_is_caught(self):
        """Claim clause 1 (several tasks missing) when the evidence shows
        only the newcomer's own flows missing."""
        events = _clean_stream()
        reject = events[6]
        events[6] = dataclasses.replace(reject, clause=1)
        events[6].seq = reject.seq
        report = audit_events(events)
        assert "reject-rule" in _first_invariants(report)

    def test_clause3_wrong_direction_is_caught(self):
        """A clause-3 rejection where the victim's recorded ratio is
        strictly below the newcomer's should have been a preemption."""
        events = _clean_stream()
        reject = events[6]
        events[6] = dataclasses.replace(
            reject, clause=3, missing=((30, 3),), lateness=((30, 0.1),),
            victim_ratio=0.1, new_ratio=0.9,
        )
        events[6].seq = reject.seq
        report = audit_events(events)
        assert "reject-rule" in _first_invariants(report)

    def test_rollback_under_never_policy_is_caught(self):
        events = _stamp([
            TrialBegin(0.0, task_id=2, attempt=1, flows=()),
            TrialRollback(0.0, task_id=2, attempt=1, victim_task_id=1,
                          victim_ratio=0.0, new_ratio=0.5),
        ])
        report = audit_events(events, meta={"preemption": "never"})
        assert "reject-rule" in _first_invariants(report)
        assert "'never'" in report.first_violation.message

    def test_rollback_with_inverted_ratios_is_caught(self):
        events = _stamp([
            TrialRollback(0.0, task_id=2, attempt=1, victim_task_id=1,
                          victim_ratio=0.9, new_ratio=0.1),
        ])
        report = audit_events(events)
        assert "reject-rule" in _first_invariants(report)


class TestPriorityAndTimeline:
    def test_unsorted_ftmp_is_caught(self):
        events = _clean_stream()
        trial = events[5]
        events[5] = dataclasses.replace(
            trial, flows=tuple(reversed(trial.flows))
        )
        events[5].seq = trial.seq
        report = audit_events(events, meta={"priority": "edf_sjf"})
        assert "priority-order" in _first_invariants(report)

    def test_physical_double_booking_is_caught(self):
        """A second flow starts on a link another flow still holds."""
        events = _clean_stream()
        events.insert(4, SliceStart(0.05, flow_id=99, task_id=1, path=(6,)))
        _stamp(events)
        report = audit_events(events)
        assert not report.ok
        assert report.first_violation.invariant == "slice-exclusive"
        assert report.first_violation.context["holder"] == 10

    def test_same_instant_handoff_is_legal(self):
        """Half-open slices: flow A ends and flow B starts at the same
        instant on the same link — legal, ends resolve first."""
        events = _clean_stream()
        events.insert(8, SliceStart(0.5, flow_id=99, task_id=1, path=(5, 6)))
        _stamp(events)
        report = audit_events(events)
        assert report.ok, report.summary()

    def test_accepted_task_missing_deadline_without_faults_is_caught(self):
        events = _clean_stream()
        done = events[-1]
        events[-1] = dataclasses.replace(done, met_deadline=False)
        events[-1].seq = done.seq
        report = audit_events(events)
        assert "deadline-met" in _first_invariants(report)

    def test_preempted_task_is_exempt_from_deadline_met(self):
        events = _clean_stream()
        events.insert(7, Preemption(0.2, victim_task_id=1, by_task_id=2,
                                    killed_flows=(10,)))
        done = events[-1]
        events[-1] = dataclasses.replace(done, met_deadline=False)
        _stamp(events)
        report = audit_events(events)
        assert report.ok, report.summary()

    def test_sequence_regression_is_caught(self):
        events = _clean_stream()
        events[3].seq = 1  # duplicate of an earlier seq
        report = audit_events(events)
        assert "well-formed" in _first_invariants(report)

    def test_time_regression_is_caught(self):
        events = _clean_stream()
        events[4].time = 0.05
        events[5].time = 0.01  # jumps backwards
        report = audit_events(events)
        assert "well-formed" in _first_invariants(report)


class TestCorruptedJsonlEndToEnd:
    def test_corruption_survives_export_and_reload(self, tmp_path):
        """The acceptance-criteria path: corrupt, export, reload, audit."""
        events = _clean_stream()
        accept = events[2]
        events[2] = dataclasses.replace(
            accept,
            plans=accept.plans + (_plan(11, 1, (6,), (0.1, 0.4), 1.0),),
        )
        events[2].seq = accept.seq
        rec = TraceRecorder()
        for ev in events:
            rec.emit(ev)
        path = rec.to_jsonl(tmp_path / "corrupt.jsonl")

        from repro.trace import load_jsonl

        report = audit_trace(load_jsonl(path))
        assert not report.ok
        assert report.first_violation.invariant == "exclusive-link"
