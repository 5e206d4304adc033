"""PDQ: Preemptive Distributed Quick flow scheduling (Hong et al., SIGCOMM'12).

Per the paper (§II, §V-A, Fig. 1(d)/Fig. 3 walk-throughs):

* flows are ranked by **criticality** — EDF first, SJF tie-break;
* the most critical flow on each link transmits **alone at full rate**;
  less critical flows are *paused* (preemption);
* **Early Termination (ET)**: a flow that cannot finish before its deadline
  even running alone at full rate is killed immediately, freeing bandwidth
  ("We simulated PDQ with the basic Early Termination function" — §V-A;
  Suppressed Probing and Early Start are packet-level and excluded there);
* switches hold per-flow state in a bounded **flow list**; flows that do
  not fit in some switch's list are paused regardless of link state (this
  reproduces the paper's Fig. 3 example where "the flow list in S3 is
  full").  The default limit is effectively unbounded, matching §V's
  large-scale runs.

PDQ is distributed in reality; at flow level its behaviour is the greedy
priority allocation below (the paper simulates it the same way).
"""

from __future__ import annotations

from repro.sched.base import Scheduler, edf_sjf_key
from repro.sim.state import FlowState, FlowStatus, TaskState


class PDQ(Scheduler):
    """EDF+SJF preemptive exclusive-link scheduling with Early Termination.

    Parameters
    ----------
    flow_list_limit:
        Per-switch flow-list capacity; flows beyond it are paused at that
        switch.  ``None`` = unbounded.
    """

    name = "PDQ"

    def __init__(self, flow_list_limit: int | None = None) -> None:
        super().__init__()
        self.flow_list_limit = flow_list_limit
        self._switch_of_link: dict[int, str] = {}

    def attach(self, topology, paths) -> None:
        super().attach(topology, paths)
        # a flow "occupies a slot" at the switch that forwards it, i.e. the
        # source node of each link it traverses that is a switch
        self._switch_of_link = {
            link.index: link.src for link in topology.links if link.src in set(topology.switches)
        }

    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        task_state.accepted = True
        self._admit_flows(task_state)

    def assign_rates(self, now: float) -> None:
        assert self.topology is not None
        flows = self.active_flows
        if not flows:
            return
        links = self.topology.links

        # Early Termination: hopeless even at full rate, alone
        doomed: list[FlowState] = []
        for fs in flows:
            cap = min(links[link].capacity for link in fs.path)  # type: ignore[union-attr]
            if fs.remaining > (fs.flow.deadline - now) * cap + 1e-6:
                doomed.append(fs)
        for fs in doomed:
            fs.kill(FlowStatus.TERMINATED)
            self._drop(fs)
        flows = self.active_flows
        if not flows:
            return

        busy: set[int] = set()
        slots: dict[str, int] = {}
        limit = self.flow_list_limit
        for fs in sorted(flows, key=edf_sjf_key):
            path = fs.path
            assert path is not None
            if limit is not None:
                switches = {self._switch_of_link[link] for link in path if link in self._switch_of_link}
                if any(slots.get(sw, 0) >= limit for sw in switches):
                    fs.rate = 0.0  # no room in some switch's flow list
                    continue
                for sw in switches:
                    slots[sw] = slots.get(sw, 0) + 1
            if any(link in busy for link in path):
                fs.rate = 0.0
            else:
                fs.rate = min(links[link].capacity for link in path)
                busy.update(path)
