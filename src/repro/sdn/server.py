"""The TAPS sender agent (paper §IV-D).

Each sender maintains, per local flow: the deadline ``d_ij``, expected
transmission time ``E_ij``, and allocated slices ``A_ij``; it emits the
probe when a task arrives, honours accept/reject replies, transmits only
inside its allocated slices, and reports TERM on completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sdn.messages import AcceptReply, ProbePacket, RejectReply, TermPacket
from repro.sim.state import EPS
from repro.util.errors import SimulationError
from repro.util.intervals import IntervalSet
from repro.workload.flow import Task


@dataclass(slots=True)
class _LocalFlow:
    """Sender-side per-flow state variables (§IV-D list)."""

    flow_id: int
    deadline: float
    expected_time: float
    slices: IntervalSet | None = None
    sent_time: float = 0.0  # transmission time consumed so far
    done: bool = False


@dataclass(slots=True)
class SenderAgent:
    """One host's TAPS module.

    The agent is deliberately dumb: everything it knows arrived in a
    controller message, mirroring the paper's claim that intelligence
    lives only in the controller.

    ``clock_skew`` models §IV-D's "monitor the time and keep in touch
    with the controller to ensure time consistency": a sender whose clock
    runs ``skew`` seconds ahead starts and stops its slices early by that
    much.  Zero (synchronised) is the paper's assumption;
    :meth:`slice_violation` quantifies what a drifted clock would do —
    transmission outside the controller's pre-allocation, i.e. collisions
    on links the controller believed idle.
    """

    host: str
    capacity: float
    clock_skew: float = 0.0
    flows: dict[int, _LocalFlow] = field(default_factory=dict)

    def probe_for(self, task: Task, now: float) -> ProbePacket:
        """Build the probe for the locally-originated flows of a task."""
        local = [f for f in task.flows if f.src == self.host]
        if not local:
            raise SimulationError(f"{self.host} has no flows in task {task.task_id}")
        for f in local:
            self.flows[f.flow_id] = _LocalFlow(
                flow_id=f.flow_id,
                deadline=f.deadline,
                expected_time=f.size / self.capacity,
            )
        return ProbePacket(
            time=now,
            sender=self.host,
            task_id=task.task_id,
            flow_ids=tuple(f.flow_id for f in local),
            srcs=tuple(f.src for f in local),
            dsts=tuple(f.dst for f in local),
            sizes=tuple(f.size for f in local),
            deadline=task.deadline,
        )

    def on_accept(self, reply: AcceptReply) -> None:
        lf = self.flows.get(reply.flow_id)
        if lf is None:
            raise SimulationError(
                f"{self.host}: accept for unknown flow {reply.flow_id}"
            )
        lf.slices = reply.slices

    def on_reject(self, reply: RejectReply) -> None:
        for lf in self.flows.values():
            if lf.slices is None and not lf.done:
                lf.done = True  # never transmitted

    def sending_at(self, flow_id: int, t: float) -> bool:
        """Whether this sender transmits ``flow_id`` at (true) time ``t``.

        The sender consults its *local* clock, ``t + clock_skew``.
        """
        lf = self.flows.get(flow_id)
        if lf is None or lf.done or lf.slices is None:
            return False
        return lf.slices.contains(t + self.clock_skew + 2 * EPS)

    def slice_violation(self, flow_id: int, t: float) -> bool:
        """Whether, at true time ``t``, this sender transmits *outside*
        its controller-allocated slices (only possible with skew)."""
        lf = self.flows.get(flow_id)
        if lf is None or lf.done or lf.slices is None:
            return False
        local = lf.slices.contains(t + self.clock_skew + 2 * EPS)
        true = lf.slices.contains(t + 2 * EPS)
        return local and not true

    def advance(self, flow_id: int, dt: float, now: float) -> TermPacket | None:
        """Account ``dt`` seconds of transmission; TERM when finished."""
        lf = self.flows[flow_id]
        lf.sent_time += dt
        if lf.sent_time >= lf.expected_time - 1e-9:
            lf.done = True
            return TermPacket(time=now, sender=self.host,
                              flow_id=flow_id, completed_at=now)
        return None
