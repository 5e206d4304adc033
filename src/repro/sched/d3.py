"""D3: Deadline-Driven Delivery control protocol (Wilson et al., SIGCOMM'11).

Per the paper's description (§II, Fig. 1(c) walk-through):

* each deadline flow *requests* a rate ``r = remaining / time-to-deadline``;
* allocation is greedy **in arrival order** (FCFS — the paper calls out that
  this lets "large flows that arrived earlier occupy the bottleneck
  bandwidth, but blocks small flows arrived later");
* a flow whose request cannot be fully met receives whatever its bottleneck
  has left (D3's base-rate behaviour: it keeps sending header-paced packets,
  i.e. it takes the leftover share rather than zero);
* leftover capacity after all requests is spread across flows max-min
  fashion (D3 distributes spare capacity as fair share on top of granted
  requests).

Flows that miss their deadline quit (§V-A), and "the implementation of D3
includes the improvement introduced by [PDQ's comparison]" — we realise
that improvement as the quit-on-miss plus leftover redistribution.
"""

from __future__ import annotations

import math

from repro.sched.base import Scheduler
from repro.sched.waterfill import weighted_max_min
from repro.sim.state import TaskState


class D3(Scheduler):
    """Greedy FCFS deadline-rate allocation with leftover fair share.

    Real D3 renegotiates rates once per RTT; this fluid model refreshes
    them only on events — the idealised instantaneous-signalling model,
    slightly *stronger* than deployable D3 (see docs/baselines.md).
    """

    name = "D3"

    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        task_state.accepted = True
        self._admit_flows(task_state)

    def assign_rates(self, now: float) -> None:
        assert self.topology is not None
        flows = self.active_flows
        if not flows:
            return

        links = self.topology.links
        avail: dict[int, float] = {}
        for fs in flows:
            for link in fs.path:  # type: ignore[union-attr]
                if link not in avail:
                    avail[link] = links[link].capacity

        # pass 1: grant requests FCFS (arrival order == flow_id order,
        # since ids are assigned in arrival order)
        ordered = sorted(flows, key=lambda fs: fs.flow.flow_id)
        for fs in ordered:
            ttd = fs.flow.deadline - now
            request = fs.remaining / ttd if ttd > 1e-12 else math.inf
            bottleneck = min(avail[link] for link in fs.path)  # type: ignore[union-attr]
            grant = min(request, bottleneck)
            fs.rate = grant
            if grant > 0:
                for link in fs.path:  # type: ignore[union-attr]
                    avail[link] -= grant

        # pass 2: distribute leftovers max-min among all flows
        extras = weighted_max_min(
            ordered,
            [1.0] * len(ordered),
            link_capacity=lambda link: avail[link],
        )
        for fs, e in zip(ordered, extras):
            fs.rate += e
