"""Baraat: decentralized task-aware scheduling (Dogar et al., SIGCOMM'14).

Per the paper (§II, Fig. 2(b) walk-through):

* tasks are prioritised **FIFO by arrival** ("earlier-arrived task has
  higher priority" — task serial number);
* within a task, flows are ordered by **SJF**;
* "The flow scheduling of Baraat is similar to PDQ except the flow
  priority" — i.e. the same exclusive full-rate preemptive transmission
  model, but ranked by (task arrival, intra-task SJF);
* Baraat is **deadline-agnostic in its scheduling**: no Early Termination,
  no deadline-based priorities — so it happily pushes flows that are
  doomed, which is why its waste is the highest of the deadline-aware
  field in the paper's Fig. 8(b).  The §V-A simulation courtesy ("useless
  transmission can be avoided") still stops a flow once its deadline has
  actually *passed*; set ``stop_missed_flows=False`` for the fully
  oblivious variant that transmits to completion.
"""

from __future__ import annotations

from repro.sched.base import Scheduler, exclusive_full_rate
from repro.sim.state import FlowState, TaskState


class Baraat(Scheduler):
    """FIFO task order, SJF within task, exclusive full-rate links."""

    name = "Baraat"

    def __init__(self, stop_missed_flows: bool = True) -> None:
        super().__init__()
        self.stop_missed_flows = stop_missed_flows
        self._task_serial: dict[int, int] = {}
        self._next_serial = 0

    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        task_state.accepted = True
        self._task_serial[task_state.task.task_id] = self._next_serial
        self._next_serial += 1
        self._admit_flows(task_state)

    def _priority(self, fs: FlowState) -> tuple[int, float, int]:
        return (
            self._task_serial[fs.flow.task_id],
            fs.remaining,  # SJF within the task
            fs.flow.flow_id,
        )

    def assign_rates(self, now: float) -> None:
        assert self.topology is not None
        if not self.active_flows:
            return
        links = self.topology.links
        exclusive_full_rate(
            self.active_flows,
            priority_key=self._priority,
            capacity_of=lambda path: min(links[link].capacity for link in path),
        )

    def on_deadline_expired(self, fs: FlowState, now: float) -> None:
        if self.stop_missed_flows:
            super().on_deadline_expired(fs, now)
        # else: fully deadline-oblivious, keep transmitting
