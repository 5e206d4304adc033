"""The decision-trace event vocabulary (schema v1).

Every layer that makes or enacts a scheduling decision emits typed events
into a :class:`~repro.trace.recorder.TraceRecorder`:

* the **controller** (:class:`~repro.core.controller.TapsScheduler`) emits
  the admission pipeline — :class:`TrialBegin` / :class:`TrialRollback`
  per Alg. 1 retry, :class:`TaskAccept` with the full committed plan
  table, :class:`TaskReject` with the reject-rule clause number,
  :class:`Preemption` per discarded victim, :class:`FaultReallocation`
  and :class:`TaskDrop` for the fault path;
* the **engine** (:class:`~repro.sim.engine.Engine`) emits the physical
  timeline — :class:`TaskArrival`, :class:`LinkStateChange`,
  :class:`SliceStart` / :class:`SliceEnd` (actual transmission
  transitions, after down-link zeroing), :class:`FlowCompleted`,
  :class:`DeadlineExpired`, :class:`RunEnd`.

Events are plain slotted dataclasses with JSON round-trip
(:meth:`TraceEvent.to_json` / :func:`event_from_json`), so a trace can be
exported as JSONL, diffed byte-for-byte between runs (the tests that
check the controller against the reference oracle rely on this — nothing
implementation-dependent may appear in an event), and replayed offline by
the auditor
(:mod:`repro.trace.audit`).

Design rule: events record *decisions and physical facts*, never
implementation details (ledger mode, cache state, wall-clock timings) —
two controller modes that decide identically must emit identical streams.
"""

from __future__ import annotations

import json
import types
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, get_args, get_origin, get_type_hints

SCHEMA_VERSION = 1
"""Version of the event vocabulary; bumped on any incompatible change to
event kinds or fields (recorded in the JSONL header and in DESIGN.md)."""


@dataclass(slots=True)
class PlanRecord:
    """One flow's committed plan, as recorded in accept/realloc snapshots.

    ``slices`` is the flat boundary list ``[s0, e0, s1, e1, ...]`` of the
    plan's :class:`~repro.util.intervals.IntervalSet` — float-exact, so
    two runs that planned identically serialize identically.
    """

    flow_id: int
    task_id: int
    path: tuple[int, ...]
    slices: tuple[float, ...]
    completion: float
    deadline: float

    def to_json(self) -> dict[str, Any]:
        return {
            "flow": self.flow_id,
            "task": self.task_id,
            "path": list(self.path),
            "slices": list(self.slices),
            "completion": self.completion,
            "deadline": self.deadline,
        }

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "PlanRecord":
        _check_fields(d, set(_PLAN_KEYS), "plan record")
        return cls(**_decode(d, _PLAN_KEYS, cls, "plan record"))


@dataclass(slots=True)
class TraceEvent:
    """Base event: a timestamped, sequence-numbered record.

    ``seq`` is assigned by the recorder at emission (monotonically
    increasing within a trace); ``time`` is simulation time.
    """

    kind: ClassVar[str] = "event"

    time: float
    seq: int = field(default=-1, kw_only=True)

    def to_json(self) -> dict[str, Any]:
        """JSON-ready dict; field order is deterministic (kind, seq, t,
        then declaration order), so serialized streams diff cleanly."""
        out: dict[str, Any] = {"kind": self.kind, "seq": self.seq, "t": self.time}
        for f in fields(self):
            if f.name in ("time", "seq"):
                continue
            out[f.name] = _encode(getattr(self, f.name))
        return out


def _encode(value: Any) -> Any:
    if isinstance(value, PlanRecord):
        return value.to_json()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


# -- controller events -------------------------------------------------------


@dataclass(slots=True)
class TaskArrival(TraceEvent):
    """A task reached the controller (before any admission latency)."""

    kind: ClassVar[str] = "task-arrival"

    task_id: int
    deadline: float
    num_flows: int
    total_bytes: float


@dataclass(slots=True)
class TrialBegin(TraceEvent):
    """One Alg. 1 trial allocation starts over the recorded ``Ftmp``.

    ``flows`` is the trial's priority-ordered flow list as
    ``(flow_id, deadline, remaining, release)`` — enough for the auditor
    to re-check the EDF-then-SJF sort without replaying the run.
    ``attempt`` counts discard-victim retries within one admission (1 =
    first trial).
    """

    kind: ClassVar[str] = "trial-begin"

    task_id: int
    attempt: int
    flows: tuple[tuple[int, float, float, float], ...]


@dataclass(slots=True)
class TrialRollback(TraceEvent):
    """A trial chose *discard-victim*: the trial ledger is rolled back and
    the admission retries without ``victim_task_id``'s flows.

    ``victim_ratio`` / ``new_ratio`` are the completion ratios the
    clause-3 comparison used (policy recorded in the trace meta).
    """

    kind: ClassVar[str] = "trial-rollback"

    task_id: int
    attempt: int
    victim_task_id: int
    victim_ratio: float
    new_ratio: float


@dataclass(slots=True)
class TaskAccept(TraceEvent):
    """An admission committed.  ``plans`` snapshots the controller's
    **entire** committed plan table after the commit (not just the new
    task's flows) — the auditor's exclusive-link and deadline checks run
    against this table."""

    kind: ClassVar[str] = "task-accept"

    task_id: int
    victims: tuple[int, ...]
    plans: tuple[PlanRecord, ...]


@dataclass(slots=True)
class TaskReject(TraceEvent):
    """An admission refused the new task — the record of why.

    ``reason`` is ``deadline-expired`` (dead on arrival, control latency
    included), ``unreachable`` (some new flow has no usable path — an
    outage), ``would-miss`` (the trial allocation missed deadlines) or
    ``table-limit`` (a switch's install budget would be exceeded).
    ``clause`` is the reject-rule clause that fired for ``would-miss``
    (1 = several tasks missing, 2 = the new task's own flows missing,
    3 = single-victim ratio comparison lost), ``None`` for rejections
    outside the rule.  ``missing`` pairs each missing flow with its task;
    ``lateness`` pairs it with how far past its deadline the trial finished it;
    ``victim_ratio`` / ``new_ratio`` are set for clause 3.  For clause 2
    the evidence covers ``Ftmp`` only up to the new task's last flow: the
    trial stops there once one of the new task's flows misses, so later
    in-flight flows the full trial would also have finished late are not
    listed.  The event time is the decision time.  ``repro-taps explain``
    renders it per task.
    """

    kind: ClassVar[str] = "task-reject"

    task_id: int
    reason: str
    clause: int | None
    missing: tuple[tuple[int, int], ...]
    lateness: tuple[tuple[int, float], ...]
    victim_ratio: float | None = None
    new_ratio: float | None = None


@dataclass(slots=True)
class Preemption(TraceEvent):
    """A victim task's flows were killed at commit time (the deferred
    discard-victim enactment)."""

    kind: ClassVar[str] = "preemption"

    victim_task_id: int
    by_task_id: int
    killed_flows: tuple[int, ...]


@dataclass(slots=True)
class FaultReallocation(TraceEvent):
    """The controller re-planned every in-flight flow around a new outage
    picture.  ``dropped_tasks`` are tasks the outage made unmeetable
    (killed rather than allowed to dribble to a miss); ``plans`` is the
    full new plan table."""

    kind: ClassVar[str] = "fault-reallocation"

    down_links: tuple[int, ...]
    dropped_tasks: tuple[int, ...]
    plans: tuple[PlanRecord, ...]


@dataclass(slots=True)
class TaskDrop(TraceEvent):
    """A task was stopped mid-flight outside a commit: ``cause`` is
    ``"fault"`` (unmeetable under the outage) or ``"backstop"`` (a
    stranded flow crossed its deadline)."""

    kind: ClassVar[str] = "task-drop"

    task_id: int
    cause: str


# -- engine events -----------------------------------------------------------


@dataclass(slots=True)
class LinkStateChange(TraceEvent):
    """The set of down links changed; ``down_links`` is the full new set."""

    kind: ClassVar[str] = "link-state-change"

    down_links: tuple[int, ...]


@dataclass(slots=True)
class SliceStart(TraceEvent):
    """A flow physically started transmitting on ``path`` (rate went
    positive after down-link zeroing)."""

    kind: ClassVar[str] = "slice-start"

    flow_id: int
    task_id: int
    path: tuple[int, ...]


@dataclass(slots=True)
class SliceEnd(TraceEvent):
    """A flow physically stopped transmitting (slice boundary, completion,
    kill, or outage)."""

    kind: ClassVar[str] = "slice-end"

    flow_id: int
    task_id: int


@dataclass(slots=True)
class FlowCompleted(TraceEvent):
    """A flow delivered its last byte."""

    kind: ClassVar[str] = "flow-completed"

    flow_id: int
    task_id: int
    met_deadline: bool


@dataclass(slots=True)
class DeadlineExpired(TraceEvent):
    """A still-active flow crossed its deadline (the engine notified the
    scheduler)."""

    kind: ClassVar[str] = "deadline-expired"

    flow_id: int
    task_id: int


@dataclass(slots=True)
class RunEnd(TraceEvent):
    """The simulation reached quiescence (or its horizon)."""

    kind: ClassVar[str] = "run-end"


EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        TaskArrival,
        TrialBegin,
        TrialRollback,
        TaskAccept,
        TaskReject,
        Preemption,
        FaultReallocation,
        TaskDrop,
        LinkStateChange,
        SliceStart,
        SliceEnd,
        FlowCompleted,
        DeadlineExpired,
        RunEnd,
    )
}

#: JSON key -> attribute, per event class: ``seq``, ``t`` for ``time``,
#: then the class's own fields (``kind`` is the class itself)
_EVENT_KEYS = {
    cls: {"seq": "seq", "t": "time"} | {
        f.name: f.name for f in fields(cls) if f.name not in ("time", "seq")
    }
    for cls in EVENT_TYPES.values()
}
_PLAN_KEYS = {"flow": "flow_id", "task": "task_id", "path": "path",
              "slices": "slices", "completion": "completion",
              "deadline": "deadline"}
#: each class's resolved field types, read on load
_HINTS = {cls: get_type_hints(cls)
          for cls in (PlanRecord, *EVENT_TYPES.values())}


def _check_fields(d: Any, want: set[str], what: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be an object")
    if set(d) != want:
        raise ValueError(f"field mismatch for {what}: {sorted(set(d) ^ want)}")


def _value(value: Any, hint: Any) -> Any:
    """``value`` as JSON holds a field of type ``hint``, with its tuples
    restored; ``TypeError`` when it is not of that type.  A float field
    takes an int too; a bool is never a number."""
    if hint is float:
        ok = isinstance(value, (int, float))
    elif hint in (int, str, bool):
        ok = isinstance(value, hint)
    elif hint is PlanRecord:
        return PlanRecord.from_json(value)
    elif get_origin(hint) is types.UnionType:  # X | None
        return None if value is None else _value(value, get_args(hint)[0])
    else:  # tuple[X, ...] or a fixed-length tuple
        args = get_args(hint)
        if not isinstance(value, list):
            raise TypeError
        if args[-1] is Ellipsis:
            return tuple(_value(v, args[0]) for v in value)
        if len(value) != len(args):
            raise TypeError
        return tuple(_value(v, a) for v, a in zip(value, args))
    if not ok or (isinstance(value, bool) and hint is not bool):
        raise TypeError
    return value


def _decode(
    d: dict[str, Any], keys: dict[str, str], cls: type, what: str
) -> dict[str, Any]:
    """The constructor arguments of ``cls`` in the JSON object ``d``,
    whose key ``k`` holds attribute ``keys[k]``; ``ValueError`` naming
    the first key whose value is not of the attribute's type."""
    hints = _HINTS[cls]
    kwargs = {}
    for key, attr in keys.items():
        try:
            kwargs[attr] = _value(d[key], hints[attr])
        except TypeError:
            shown = json.dumps(d[key])
            if len(shown) > 40:
                shown = shown[:37] + "..."
            hint = hints[attr]
            raise ValueError(
                f"malformed {what}: {key!r} must be "
                f"{hint.__name__ if isinstance(hint, type) else hint}, "
                f"got {shown}"
            ) from None
    return kwargs


def event_from_json(d: dict[str, Any]) -> TraceEvent:
    """Rebuild a typed event from its :meth:`TraceEvent.to_json` dict.

    Raises ``ValueError`` unless ``d`` is an object of a known kind with
    exactly the fields that kind writes, each of its declared type, plan
    records included.
    """
    if not isinstance(d, dict):
        raise ValueError("trace event must be an object")
    kind = d.get("kind")
    cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    _check_fields(d, {"kind", *_EVENT_KEYS[cls]}, kind)
    return cls(**_decode(d, _EVENT_KEYS[cls], cls, kind))
