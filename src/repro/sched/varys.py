"""Varys: efficient coflow scheduling (Chowdhury et al., SIGCOMM'14),
in its deadline-sensitive admission-control mode.

Per the paper (§II, Fig. 2(c) walk-through, §V-A "Pseudocode 1 and 2
adapted to the deadline-sensitive simulations"):

* tasks (coflows) are handled **FIFO by arrival**; no preemption — "Once a
  task is scheduled, it would not be rejected";
* on arrival, each flow of the task asks for the constant rate
  ``r = s / d`` that finishes it exactly at the deadline (the
  minimum-allocation-for-desired-duration idea of Varys' MADD);
* the task is **admitted iff every link can carry its flows' rates on top
  of existing reservations**; otherwise the whole task is rejected before
  sending a single byte (which is why Varys wastes almost no bandwidth in
  the paper's Fig. 8);
* admitted flows hold their reservation until completion, which lands on
  the deadline by construction.

The paper's criticism — "Varys is very sensitive to the task arrival
order, which may make later-arrived but more urgent tasks miss deadlines"
— falls straight out of this model and is demonstrated by the Fig. 2
motivation example.
"""

from __future__ import annotations

from repro.sim.state import FlowState, FlowStatus, TaskState
from repro.sched.base import Scheduler


class Varys(Scheduler):
    """Varys coflow scheduling.

    Two modes:

    * ``mode="deadline"`` (default — what the paper compares against):
      admission control with ``r = s/d`` reservations, FIFO, no
      preemption.
    * ``mode="sebf"``: Varys' primary (deadline-agnostic) algorithm —
      Smallest-Effective-Bottleneck-First.  Coflows are ordered by their
      bottleneck duration ``Γ`` (the longest per-link backlog of the
      coflow alone); the head coflow gets MADD rates (every flow paced to
      finish exactly at the coflow's own bottleneck time, wasting nothing
      on early finishers) and lower-priority coflows backfill leftover
      capacity.  SEBF minimises *average coflow completion time*, not
      deadline hits — the extension benchmark measures exactly that.
    """

    name = "Varys"

    def __init__(self, mode: str = "deadline") -> None:
        super().__init__()
        if mode not in ("deadline", "sebf"):
            raise ValueError(f"unknown Varys mode {mode!r}")
        self.mode = mode
        self._reserved: dict[int, float] = {}  # link index -> reserved rate
        self._rate_of: dict[int, float] = {}  # flow id -> reserved rate
        self._coflows: dict[int, list] = {}  # task id -> active flow states

    def attach(self, topology, paths) -> None:
        super().attach(topology, paths)
        self._reserved = {}
        self._rate_of = {}
        self._coflows = {}

    # -- SEBF mode -----------------------------------------------------------

    def _sebf_arrival(self, task_state: TaskState, now: float) -> None:
        assert self.paths is not None
        task_state.accepted = True  # SEBF admits everything
        flows = [fs for fs in task_state.flow_states if fs.active]
        for fs in flows:
            f = fs.flow
            fs.path = self.paths.ecmp_path(f.flow_id, f.src, f.dst)
            self.active_flows.append(fs)
        self._coflows[task_state.task.task_id] = flows

    def _bottleneck_time(self, flows: list) -> float:
        """Γ: the coflow's longest per-link backlog, alone on the fabric."""
        assert self.topology is not None
        links = self.topology.links
        backlog: dict[int, float] = {}
        for fs in flows:
            for link in fs.path:
                backlog[link] = backlog.get(link, 0.0) + fs.remaining
        return max(
            (b / links[link].capacity for link, b in backlog.items()), default=0.0
        )

    def _sebf_rates(self, now: float) -> None:
        assert self.topology is not None
        links = self.topology.links
        avail = {}
        order = []
        for tid, flows in self._coflows.items():
            live = [fs for fs in flows if fs.active]
            if live:
                order.append((self._bottleneck_time(live), tid, live))
        order.sort()
        for fs in self.active_flows:
            fs.rate = 0.0
        for gamma, _tid, live in order:
            if gamma <= 0:
                continue
            # MADD: pace every flow to finish at the coflow's Γ, scaled
            # down if higher-priority coflows already claimed capacity
            demands = [(fs, fs.remaining / gamma) for fs in live]
            scale = 1.0
            need: dict[int, float] = {}
            for fs, d in demands:
                for link in fs.path:
                    need[link] = need.get(link, 0.0) + d
            for link, d in need.items():
                free = avail.get(link, links[link].capacity)
                if d > 1e-15:
                    scale = min(scale, max(0.0, free) / d)
            if scale <= 1e-12:
                continue
            for fs, d in demands:
                fs.rate = d * scale
                for link in fs.path:
                    avail[link] = avail.get(link, links[link].capacity) - fs.rate

    # -- shared entry points -----------------------------------------------------

    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        if self.mode == "sebf":
            self._sebf_arrival(task_state, now)
            return
        self._deadline_arrival(task_state, now)

    def _deadline_arrival(self, task_state: TaskState, now: float) -> None:
        assert self.topology is not None and self.paths is not None
        links = self.topology.links

        # route first (flow-level ECMP), then test feasibility link by link
        demands: dict[int, float] = {}
        flow_rates: list[tuple[FlowState, float]] = []
        feasible = True
        for fs in task_state.flow_states:
            f = fs.flow
            ttd = f.deadline - now
            if ttd <= 1e-12:
                feasible = False
                break
            rate = fs.remaining / ttd
            path = self.paths.ecmp_path(f.flow_id, f.src, f.dst)
            fs.path = path
            flow_rates.append((fs, rate))
            for link in path:
                demands[link] = demands.get(link, 0.0) + rate

        if feasible:
            for link, demand in demands.items():
                if self._reserved.get(link, 0.0) + demand > links[link].capacity * (1 + 1e-9):
                    feasible = False
                    break

        if not feasible:
            self._reject_task(task_state)
            return

        task_state.accepted = True
        for fs, rate in flow_rates:
            self._rate_of[fs.flow.flow_id] = rate
            for link in fs.path:  # type: ignore[union-attr]
                self._reserved[link] = self._reserved.get(link, 0.0) + rate
            self.active_flows.append(fs)

    def assign_rates(self, now: float) -> None:
        if self.mode == "sebf":
            self._sebf_rates(now)
            return
        for fs in self.active_flows:
            fs.rate = self._rate_of[fs.flow.flow_id]

    def _release(self, fs: FlowState) -> None:
        rate = self._rate_of.pop(fs.flow.flow_id, None)
        if rate is not None and fs.path is not None:
            for link in fs.path:
                self._reserved[link] = max(0.0, self._reserved[link] - rate)

    def on_flow_completed(self, fs: FlowState, now: float) -> None:
        self._release(fs)
        super().on_flow_completed(fs, now)

    def on_deadline_expired(self, fs: FlowState, now: float) -> None:
        if self.mode == "sebf":
            # SEBF is deadline-agnostic: flows run to completion (their
            # lateness shows up in the CCT metric, not as termination)
            return
        # deadline mode: unreachable under exact reservations (completion
        # == deadline); backstop so numerical corner cases free capacity.
        self._release(fs)
        fs.kill(FlowStatus.TERMINATED)
        self._drop(fs)
