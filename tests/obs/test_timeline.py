"""Timeline reconstruction: the trace pivots into consistent entities."""

import pytest

from repro.metrics import trace_digest
from repro.obs.timeline import build_timeline, timeline_from
from repro.trace.events import (
    Preemption,
    TaskAccept,
    TaskArrival,
    TaskDrop,
    TaskReject,
)
from repro.trace.recorder import TraceRecorder, load_jsonl


def test_entities_match_digest(traced_run):
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    d = trace_digest(recorder.events)
    assert tl.events == d.events
    assert len(tl.tasks) == d.tasks_arrived
    outcomes = tl.outcomes()
    assert len(outcomes.get("rejected", [])) == d.tasks_rejected
    completed = outcomes.get("completed", [])
    assert completed, "the smoke workload completes tasks"
    # every decision settled: accepted+rejected partition the arrivals
    decided = [t for t in tl.tasks.values() if t.decision is not None]
    assert len(decided) == d.tasks_accepted + d.tasks_rejected
    assert len(tl.flows) == d.flows_completed
    assert tl.end_time > 0


def test_slices_and_links_are_consistent(traced_run):
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    for flow in tl.flows.values():
        for sl in flow.slices:
            assert sl.end is not None and sl.end >= sl.start
            assert sl.path, "slice without a path"
    # exclusive links: busy intervals on one link never overlap
    for link, entry in tl.links.items():
        spans = sorted((iv.start, iv.end) for iv in entry.busy)
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 >= e0 - 1e-9, f"link {link} double-booked"


def test_plan_snapshots(traced_run):
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    d = trace_digest(recorder.events)
    assert len(tl.plan_snapshots) == d.tasks_accepted + d.fault_reallocations
    # the snapshots are the trace's own accept/reallocation events
    assert tl.plan_snapshots == [
        e for e in recorder.events
        if e.kind in ("task-accept", "fault-reallocation")
    ]
    seqs = [s.seq for s in tl.plan_snapshots]
    assert seqs == sorted(seqs)
    # snapshot_before finds the table in force at a rejection
    rejected = [t for t in tl.tasks.values() if t.rejection is not None]
    assert rejected
    for task in rejected:
        snap = tl.snapshot_before(task.rejection.seq)
        assert snap is not None and snap.seq < task.rejection.seq


def test_completion_respects_deadlines_without_faults(traced_run):
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    for task in tl.tasks.values():
        if task.outcome == "completed":
            assert task.completed_at <= task.deadline + 1e-9
            assert task.settled_at == task.completed_at


def test_outage_windows_recorded(faulted_run):
    _result, recorder, _reg = faulted_run
    tl = timeline_from(recorder)
    outages = [
        (link, w) for link, entry in tl.links.items() for w in entry.outages
    ]
    assert outages, "the injected fault must appear as an outage window"
    link, (start, end) = outages[0]
    assert start == pytest.approx(0.01, abs=1e-6)
    assert end == pytest.approx(0.05, abs=1e-6)
    assert tl.links[link].down_at(0.02)
    assert not tl.links[link].down_at(0.06)


def test_handcrafted_outcomes():
    rec = TraceRecorder()
    rec.emit(TaskArrival(0.0, task_id=1, deadline=2.0, num_flows=1,
                         total_bytes=5.0))
    rec.emit(TaskArrival(0.0, task_id=2, deadline=2.0, num_flows=1,
                         total_bytes=5.0))
    rec.emit(TaskArrival(0.1, task_id=3, deadline=1.0, num_flows=1,
                         total_bytes=5.0))
    accept = rec.emit(TaskAccept(0.0, task_id=1, victims=(), plans=()))
    reject = rec.emit(TaskReject(0.1, task_id=3, reason="would-miss",
                                 clause=2, missing=((7, 3),),
                                 lateness=((7, 0.5),)))
    preempt = rec.emit(Preemption(0.2, victim_task_id=1, by_task_id=2,
                                  killed_flows=(4,)))
    drop = rec.emit(TaskDrop(0.3, task_id=2, cause="fault"))
    tl = build_timeline(rec.events)
    assert tl.tasks[1].outcome == "preempted"
    assert tl.tasks[1].decision is accept
    assert tl.tasks[1].preemption is preempt
    assert tl.tasks[1].preemption.by_task_id == 2
    assert tl.tasks[1].settled_at == 0.2
    assert tl.tasks[2].outcome == "dropped"
    assert tl.tasks[2].drop is drop and drop.cause == "fault"
    assert tl.tasks[3].outcome == "rejected"
    assert tl.tasks[3].decision is reject
    assert tl.tasks[3].rejection.clause == 2
    assert tl.tasks[3].deadline == 1.0


def test_building_timeline_leaves_trace_bytes_identical(traced_run, tmp_path):
    """The diagnosis layer is purely observational: pivoting, exporting,
    and re-loading a trace never perturbs its serialized bytes."""
    from repro.obs.chrometrace import write_chrome_trace
    from repro.obs.explain import explain_run

    _result, recorder, _reg = traced_run
    before = recorder.dumps()
    tl = timeline_from(recorder)
    write_chrome_trace(tmp_path / "t.chrome.json", tl)
    explain_run(tl)
    assert recorder.dumps() == before
    # and a loaded trace round-trips through the same pipeline
    path = tmp_path / "trace.jsonl"
    path.write_text(before)
    loaded = load_jsonl(path)
    tl2 = timeline_from(loaded)
    assert tl2.events == tl.events
    assert path.read_text() == before
