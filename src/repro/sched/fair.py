"""Fair Sharing: max-min fair rate allocation, deadline- and task-agnostic.

The paper's stand-in for TCP/RCP-style transports (§II, §V-A): "Each flow
that competes for a bottleneck link gets a fair share of the link
capacity."  We realise the fluid ideal of that competition — **max-min
fairness** via progressive filling: repeatedly find the most-contended link,
freeze the fair share of all its unfrozen flows, subtract, repeat.

Per §V-A, flows that have already missed their deadline stop sending
(inherited default :meth:`~repro.sched.base.Scheduler.on_deadline_expired`),
"so that useless transmission can be avoided" — the bytes they sent still
count as wasted bandwidth in the metrics.
"""

from __future__ import annotations

from repro.sched.base import Scheduler
from repro.sched.waterfill import weighted_max_min
from repro.sim.state import TaskState


class FairSharing(Scheduler):
    """Max-min fair sharing over ECMP paths.

    Parameters
    ----------
    quit_on_miss:
        §V-A grants the simulated Fair Sharing the courtesy of stopping
        flows that have already missed their deadlines.  The *testbed*
        Fair Sharing of §VI is plain TCP with no deadline knowledge, so
        the Fig. 14 experiment runs with ``quit_on_miss=False`` — doomed
        flows keep competing (and wasting) until they finish.
    """

    name = "Fair Sharing"

    def __init__(self, quit_on_miss: bool = True) -> None:
        super().__init__()
        self.quit_on_miss = quit_on_miss

    def on_deadline_expired(self, fs, now: float) -> None:
        if self.quit_on_miss:
            super().on_deadline_expired(fs, now)
        # else: deadline-oblivious, keep transmitting

    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        task_state.accepted = True  # fair sharing admits everything
        self._admit_flows(task_state)

    def assign_rates(self, now: float) -> None:
        assert self.topology is not None
        flows = self.active_flows
        if not flows:
            return
        links = self.topology.links
        rates = weighted_max_min(
            flows, [1.0] * len(flows), link_capacity=lambda link: links[link].capacity
        )
        for fs, r in zip(flows, rates):
            fs.rate = r
