"""Rejection explainability: verdicts must agree with the auditor."""

import pytest

from repro.core.controller import TapsScheduler
from repro.core.reject import PreemptionPolicy
from repro.obs.explain import explain_run, explain_task
from repro.obs.timeline import build_timeline, timeline_from
from repro.sim.engine import Engine
from repro.trace.audit import audit_trace, derive_clause
from repro.trace.recorder import TraceRecorder
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


# -- clause derivation: the auditor's classifier, which explain calls ---------


def test_derive_clause_newcomer_in_missing():
    # the newcomer's own flows would miss → clause 2
    assert derive_clause(5, ((10, 5), (11, 5))) == 2


def test_derive_clause_single_victim():
    # exactly one *other* task affected → clause 3 (ratio comparison)
    assert derive_clause(5, ((10, 7),)) == 3


def test_derive_clause_multiple_victims():
    # several other tasks would miss → clause 1
    assert derive_clause(5, ((10, 7), (12, 8))) == 1


def test_derive_clause_no_evidence():
    assert derive_clause(5, ()) is None


# -- acceptance criterion: explain == auditor on a fig6-scale run --------------


def test_every_rejection_matches_recorded_and_derived_clause(traced_run):
    """For every rejected task in the traced smoke run, the verdict's
    derived clause equals the clause the controller recorded, and the
    auditor finds zero reject-rule violations for the same trace."""
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    rejected = [t for t in tl.tasks.values() if t.rejection is not None]
    assert rejected, "seed 7 smoke workload must reject tasks"
    for task in rejected:
        verdict = explain_task(tl, task.task_id)
        assert verdict.outcome == "rejected"
        assert verdict.clause_recorded == task.rejection.clause
        assert verdict.clause_derived == task.rejection.clause
        assert verdict.clause_consistent
    report = audit_trace(recorder)
    reject_violations = [
        v for v in report.violations if v.invariant == "reject-rule"
    ]
    assert reject_violations == []


def test_faulted_run_verdicts_stay_consistent(faulted_run):
    _result, recorder, _reg = faulted_run
    tl = timeline_from(recorder)
    verdicts = explain_run(tl)
    assert verdicts
    assert all(v.clause_consistent for v in verdicts)
    # sorted by task id, and every verdict renders to non-empty text
    ids = [v.task_id for v in verdicts]
    assert ids == sorted(ids)
    for v in verdicts:
        text = v.lines()
        assert text and v.headline in text[0]
        js = v.to_json()
        assert js["task"] == v.task_id and js["outcome"] == v.outcome


def test_rejection_verdict_names_pressure_and_competitors(traced_run):
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    task = next(t for t in tl.tasks.values() if t.rejection is not None)
    verdict = explain_task(tl, task.task_id)
    # the committed table before the rejection had traffic in the window
    assert verdict.saturated_links, "busiest links must be attributed"
    for pressure in verdict.saturated_links:
        assert 0.0 <= pressure.busy_fraction <= 1.0 + 1e-9
        assert pressure.holders, "pressure without holder tasks"
    assert verdict.competing_tasks
    assert task.task_id not in verdict.competing_tasks
    assert verdict.slack_at_decision is not None


# -- preemption and drop verdicts ----------------------------------------------


def test_preempted_verdict_names_preemptor():
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 6.5, [("L0", "R0", 6.0)], 0),
        make_task(1, 0.1, 6.2, [("L1", "R1", 6.0)], 1),
    ]
    recorder = TraceRecorder()
    sched = TapsScheduler(preemption=PreemptionPolicy.PROSPECTIVE)
    Engine(topo, tasks, sched, trace=recorder).run()
    tl = timeline_from(recorder)
    assert tl.tasks[0].outcome == "preempted"
    verdict = explain_task(tl, 0)
    assert verdict.outcome == "preempted"
    assert "task 1" in verdict.headline
    assert verdict.competing_tasks == (1,)
    # task 1's first trial discarded task 0, which had sent nothing yet
    assert ("  ratio comparison at trial 1: victim 0.000 < newcomer 1.000 "
            "— victim discarded") in verdict.lines()


def test_dropped_verdict_blames_downed_links():
    from repro.trace.events import LinkStateChange, TaskArrival, TaskDrop

    rec = TraceRecorder()
    rec.emit(TaskArrival(0.0, task_id=4, deadline=2.0, num_flows=1,
                         total_bytes=1.0))
    rec.emit(LinkStateChange(0.5, down_links=(9,)))
    rec.emit(TaskDrop(0.5, task_id=4, cause="fault"))
    tl = build_timeline(rec.events)
    verdict = explain_task(tl, 4)
    assert verdict.outcome == "dropped"
    assert "fault" in verdict.headline
    assert any("link" in line for line in verdict.lines())


def test_explain_unknown_task_raises(traced_run):
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    with pytest.raises(KeyError):
        explain_task(tl, 10_000)


def test_explain_completed_task_is_a_plain_verdict(traced_run):
    _result, recorder, _reg = traced_run
    tl = timeline_from(recorder)
    done = next(t for t in tl.tasks.values() if t.outcome == "completed")
    verdict = explain_task(tl, done.task_id)
    assert verdict.outcome == "completed"
    assert verdict.clause_recorded is None


def test_handcrafted_inconsistent_clause_is_flagged():
    """A trace whose recorded clause contradicts its own evidence yields
    clause_consistent == False — the explain CLI exits nonzero on it."""
    from repro.trace.events import TaskArrival, TaskReject

    rec = TraceRecorder()
    rec.emit(TaskArrival(0.0, task_id=1, deadline=1.0, num_flows=1,
                         total_bytes=1.0))
    # evidence says clause 2 (newcomer's flows missing), record says 1
    rec.emit(TaskReject(0.1, task_id=1, reason="would-miss", clause=1,
                        missing=((3, 1),), lateness=((3, 0.2),)))
    tl = build_timeline(rec.events)
    verdict = explain_task(tl, 1)
    assert verdict.clause_recorded == 1
    assert verdict.clause_derived == 2
    assert not verdict.clause_consistent
