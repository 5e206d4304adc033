"""Decision tracing and schedule auditing.

``repro.trace`` is the debugging substrate for the scheduling pipeline:
the engine and the controller (which gets the engine's recorder before
the run) emit typed events (:mod:`repro.trace.events`) into one
ring-buffered :class:`~repro.trace.recorder.TraceRecorder` (JSONL export;
:func:`~repro.trace.recorder.load_jsonl` reads a file back into a
recorder), and :func:`~repro.trace.audit.audit_trace` replays a finished
trace, live or loaded, against the paper's invariants — exclusive-link occupancy, EDF-then-SJF trial
ordering, the three-clause reject rule, and "no accepted task misses its
deadline absent faults" — reporting the first violating event with full
context.

Quick use::

    from repro import Engine, FatTree, TapsScheduler
    from repro.trace import TraceRecorder, audit_trace

    recorder = TraceRecorder()
    Engine(topo, tasks, TapsScheduler(), trace=recorder).run()
    report = audit_trace(recorder)
    assert report.ok, report.summary()
    recorder.to_jsonl("run.jsonl")      # repro-taps audit run.jsonl
"""

from repro.trace.audit import AuditReport, Violation, audit_events, audit_trace
from repro.trace.events import (
    SCHEMA_VERSION,
    DeadlineExpired,
    EVENT_TYPES,
    FaultReallocation,
    FlowCompleted,
    LinkStateChange,
    PlanRecord,
    Preemption,
    RunEnd,
    SliceEnd,
    SliceStart,
    TaskAccept,
    TaskArrival,
    TaskDrop,
    TaskReject,
    TraceEvent,
    TrialBegin,
    TrialRollback,
    event_from_json,
)
from repro.trace.recorder import TraceRecorder, load_jsonl

__all__ = [
    "SCHEMA_VERSION",
    "AuditReport",
    "Violation",
    "audit_events",
    "audit_trace",
    "DeadlineExpired",
    "EVENT_TYPES",
    "FaultReallocation",
    "FlowCompleted",
    "LinkStateChange",
    "PlanRecord",
    "Preemption",
    "RunEnd",
    "SliceEnd",
    "SliceStart",
    "TaskAccept",
    "TaskArrival",
    "TaskDrop",
    "TaskReject",
    "TraceEvent",
    "TrialBegin",
    "TrialRollback",
    "event_from_json",
    "TraceRecorder",
    "load_jsonl",
]
