"""Runtime state of flows and tasks inside the simulator.

:class:`~repro.workload.flow.Flow`/:class:`~repro.workload.flow.Task` are
immutable workload descriptions; the classes here carry everything that
changes during a run — bytes remaining, current rate, lifecycle status —
so one workload can be replayed across all six schedulers.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.net.topology import Path
from repro.workload.flow import Flow, Task

EPS: float = 1e-9
"""The engine's time tolerance: two engine times closer than this are
considered equal.

Engine time is arbitrary floats (completions come from ``remaining /
rate``), so the engine, the TAPS sender model's slice probes and deadline
checks on completion times compare with this slack.  Plan time needs
none: it lives on the exact grid of :mod:`repro.util.intervals`.
"""


_KILL_SERIALS = itertools.count(1)

last_kill: int = 0
"""The serial number of the latest :meth:`FlowState.kill` in this
process, in any run.  The engine looks for killed flows only when this
has moved since it last looked.  Each kill stores a number no kill
stored before (``next`` on one shared count is atomic), so the value
moves at every kill even when threads kill at once: a kill in another
run costs the engine one needless look, never a missed kill.  It is a
module global, not a class attribute, because writing an attribute of
the ``FlowState`` class would reset the interpreter's attribute caches
for every flow state at each kill."""


class FlowStatus(enum.Enum):
    """Lifecycle of a flow inside a run."""

    PENDING = "pending"
    """Arrived and admitted (or not yet decided); not finished."""

    COMPLETED = "completed"
    """All bytes delivered. Whether the deadline was met is a separate check."""

    REJECTED = "rejected"
    """Refused at admission; never transmitted a byte."""

    TERMINATED = "terminated"
    """Killed mid-flight (early termination, quit-on-miss, task preemption)."""


class TaskOutcome(enum.Enum):
    """Final disposition of a task."""

    PENDING = "pending"
    COMPLETED = "completed"  # every flow done by the deadline
    FAILED = "failed"  # at least one flow missed/rejected/terminated


@dataclass(slots=True, eq=False)
class FlowState:
    """Mutable per-flow simulation state.

    Attributes
    ----------
    flow:
        The immutable workload record.
    remaining:
        Bytes left to deliver.
    rate:
        Current sending rate (bytes/s); written only by the scheduler's
        ``assign_rates`` (``kill``/``finish`` zero it), integrated by the
        engine.
    path:
        Link-index path the flow is (or would be) routed on; set by the
        scheduler at admission.
    status, completed_at, bytes_sent:
        Lifecycle bookkeeping.
    """

    flow: Flow
    remaining: float = field(default=-1.0)
    rate: float = 0.0
    path: Path | None = None
    status: FlowStatus = FlowStatus.PENDING
    completed_at: float | None = None
    bytes_sent: float = 0.0
    deadline_notified: bool = False
    """Engine-internal: the scheduler was told this flow's deadline passed."""

    def __post_init__(self) -> None:
        if self.remaining < 0:
            self.remaining = self.flow.size

    @property
    def active(self) -> bool:
        """Whether the flow can still transmit."""
        return self.status is FlowStatus.PENDING

    @property
    def met_deadline(self) -> bool:
        """Completed at or before its deadline (equality counts as met)."""
        return (
            self.status is FlowStatus.COMPLETED
            and self.completed_at is not None
            and self.completed_at <= self.flow.deadline + EPS
        )

    def advance(self, dt: float) -> None:
        """Integrate ``rate`` over ``dt`` seconds."""
        if dt < 0:
            raise ValueError(f"negative dt {dt}")
        if self.rate > 0 and self.status is FlowStatus.PENDING:
            sent = min(self.rate * dt, self.remaining)
            self.remaining -= sent
            self.bytes_sent += sent

    def finish(self, now: float) -> None:
        """Mark the flow completed at time ``now``."""
        self.status = FlowStatus.COMPLETED
        self.completed_at = now
        self.remaining = 0.0
        self.rate = 0.0

    def kill(self, status: FlowStatus) -> None:
        """Terminate or reject the flow; it stops transmitting for good
        (and moves :data:`last_kill`)."""
        global last_kill
        if status not in (FlowStatus.TERMINATED, FlowStatus.REJECTED):
            raise ValueError(f"kill() takes TERMINATED/REJECTED, got {status}")
        self.status = status
        self.rate = 0.0
        last_kill = next(_KILL_SERIALS)


@dataclass(slots=True, eq=False)
class TaskState:
    """Mutable per-task simulation state."""

    task: Task
    flow_states: list[FlowState] = field(default_factory=list)
    outcome: TaskOutcome = TaskOutcome.PENDING
    accepted: bool | None = None
    """Admission decision, if the scheduler makes one (TAPS/Varys)."""

    @property
    def bytes_sent(self) -> float:
        return sum(fs.bytes_sent for fs in self.flow_states)

    @property
    def completion_ratio(self) -> float:
        """Fraction of the task's bytes already delivered.

        This is the "completion ratio" the TAPS reject rule compares when
        choosing a preemption victim (§IV-B reject rule, case 3).
        """
        total = self.task.total_size
        return self.bytes_sent / total if total > 0 else 0.0

    def settle(self) -> TaskOutcome:
        """Derive the final outcome once every flow has settled."""
        if all(fs.met_deadline for fs in self.flow_states):
            self.outcome = TaskOutcome.COMPLETED
        else:
            self.outcome = TaskOutcome.FAILED
        return self.outcome

    @property
    def unfinished_flows(self) -> list[FlowState]:
        return [fs for fs in self.flow_states if fs.active]
