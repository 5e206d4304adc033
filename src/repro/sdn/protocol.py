"""Protocol driver: runs a workload through the full Fig. 4 exchange.

Wraps the fluid simulation with an instrumented TAPS controller that emits
the control-plane messages of paper Fig. 4 as its decisions happen:
probe on task arrival, accept replies with pre-allocated slices plus
route installs on acceptance (after withdrawing the routes of the flows a
preemption killed), reject notices otherwise, and TERM → withdraw on flow
completion.  Switch flow-table limits are enforced (§IV-C), and the
transcript can be audited afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.controller import TapsScheduler
from repro.core.reject import PreemptionPolicy
from repro.net.topology import Path, Topology
from repro.sdn.messages import (
    AcceptReply,
    InstallEntry,
    Message,
    RejectReply,
    TermPacket,
    UpdateReply,
    WithdrawEntry,
)
from repro.sdn.server import SenderAgent
from repro.sdn.switch import FlowTable, SdnSwitch
from repro.sim.engine import Engine, SimulationResult
from repro.sim.state import FlowState, TaskState
from repro.workload.flow import Task


@dataclass(slots=True)
class ProtocolTranscript:
    """Everything that crossed the control plane during a run."""

    messages: list[Message] = field(default_factory=list)
    installs_refused: int = 0

    def of_type(self, cls: type) -> list[Message]:
        return [m for m in self.messages if isinstance(m, cls)]

    def count(self, cls: type) -> int:
        return sum(1 for m in self.messages if isinstance(m, cls))


class _InstrumentedTaps(TapsScheduler):
    """TAPS controller that narrates its decisions as Fig. 4 messages."""

    def __init__(self, driver: "ProtocolDriver", preemption: PreemptionPolicy) -> None:
        super().__init__(preemption=preemption)
        self._driver = driver

    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        self._driver.emit_probes(task_state.task, now)
        before = self.stats.tasks_accepted
        planned = [p.flow_state for p in self.plans.values()
                   if p.flow_state.active]
        super().on_task_arrival(task_state, now)
        if self.stats.tasks_accepted > before:
            self._driver.emit_kills(
                [fs for fs in planned if not fs.active], now
            )
            self._driver.emit_accepts(task_state, self, now)
        else:
            self._driver.emit_reject(task_state, now)

    def on_flow_completed(self, fs: FlowState, now: float) -> None:
        self._driver.emit_term(fs, now)
        super().on_flow_completed(fs, now)


class ProtocolDriver:
    """Runs one workload under TAPS with the control plane materialised.

    Parameters
    ----------
    topology, tasks:
        As for :class:`~repro.sim.engine.Engine`.
    table_capacity, install_limit:
        Per-switch flow-table bounds (paper defaults 2000 / 1000).
    """

    def __init__(
        self,
        topology: Topology,
        tasks: list[Task],
        table_capacity: int = 2000,
        install_limit: int = 1000,
        preemption: PreemptionPolicy = PreemptionPolicy.PROGRESS,
    ) -> None:
        self.topology = topology
        self.tasks = tasks
        self.transcript = ProtocolTranscript()
        self.switches = {
            name: SdnSwitch(name, table=FlowTable(table_capacity, install_limit))
            for name in topology.switches
        }
        capacity = topology.uniform_capacity()
        self.senders = {h: SenderAgent(host=h, capacity=capacity) for h in topology.hosts}
        self._emitted: dict[int, tuple] = {}
        self._scheduler = _InstrumentedTaps(self, preemption)

    # -- driving ------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the workload; transcript fills in as a side effect."""
        return Engine(self.topology, self.tasks, self._scheduler).run()

    # -- emission callbacks ------------------------------------------------------

    def emit_probes(self, task: Task, now: float) -> None:
        for host in sorted({f.src for f in task.flows}):
            probe = self.senders[host].probe_for(task, now)
            self.transcript.messages.append(probe)

    def emit_accepts(self, task_state: TaskState, sched: TapsScheduler, now: float) -> None:
        new_ids = {fs.flow.flow_id for fs in task_state.flow_states}
        for fs in task_state.flow_states:
            plan = sched.plan_of(fs.flow.flow_id)
            if plan is None:
                continue
            nodes = self._path_nodes(plan.path)
            reply = AcceptReply(
                time=now,
                sender="controller",
                task_id=task_state.task.task_id,
                flow_id=fs.flow.flow_id,
                slices=plan.slices.copy(),
                path_nodes=nodes,
            )
            self.transcript.messages.append(reply)
            self.senders[fs.flow.src].on_accept(reply)
            self._emitted[fs.flow.flow_id] = (plan.path, plan.slices.copy())
            self._install_route(fs.flow.flow_id, nodes, now)
        # global reallocation may have moved in-flight flows: push updates
        for fid, plan in sched.plans.items():
            if fid in new_ids or not plan.flow_state.active:
                continue
            prev = self._emitted.get(fid)
            if prev is not None and prev[0] == plan.path and prev[1] == plan.slices:
                continue
            rerouted = prev is not None and prev[0] != plan.path
            nodes = self._path_nodes(plan.path)
            update = UpdateReply(
                time=now,
                sender="controller",
                flow_id=fid,
                slices=plan.slices.copy(),
                path_nodes=nodes,
                rerouted=rerouted,
            )
            self.transcript.messages.append(update)
            # the sender swaps to the new pre-allocation (duck-typed:
            # UpdateReply carries the same flow_id/slices fields)
            self.senders[plan.flow_state.flow.src].on_accept(update)
            if rerouted:
                self._withdraw_route(fid, now)
                self._install_route(fid, nodes, now)
            self._emitted[fid] = (plan.path, plan.slices.copy())

    def emit_reject(self, task_state: TaskState, now: float) -> None:
        reply = RejectReply(
            time=now,
            sender="controller",
            task_id=task_state.task.task_id,
            reason="reject rule",
        )
        self.transcript.messages.append(reply)
        for host in {f.src for f in task_state.task.flows}:
            self.senders[host].on_reject(reply)

    def emit_kills(self, killed: list[FlowState], now: float) -> None:
        """Withdraw the routes of the flows an admission's preemption
        killed: they lost their plans and will send no TERM."""
        for fs in killed:
            self._withdraw_route(fs.flow.flow_id, now)

    def emit_term(self, fs: FlowState, now: float) -> None:
        self.transcript.messages.append(
            TermPacket(time=now, sender=fs.flow.src,
                       flow_id=fs.flow.flow_id, completed_at=now)
        )
        self._withdraw_route(fs.flow.flow_id, now)

    # -- switch programming ------------------------------------------------------

    def _path_nodes(self, path: Path) -> tuple[str, ...]:
        links = self.topology.links
        nodes = [links[path[0]].src]
        nodes.extend(links[link].dst for link in path)
        return tuple(nodes)

    def _install_route(self, flow_id: int, nodes: tuple[str, ...], now: float) -> None:
        for here, nxt in zip(nodes[:-1], nodes[1:]):
            sw = self.switches.get(here)
            if sw is None:  # the sending host itself
                continue
            ok = sw.table.install(flow_id, nxt)
            if ok:
                self.transcript.messages.append(
                    InstallEntry(time=now, sender="controller",
                                 switch=here, flow_id=flow_id, out_port=nxt)
                )
            else:
                self.transcript.installs_refused += 1

    def _withdraw_route(self, flow_id: int, now: float) -> None:
        for sw in self.switches.values():
            if sw.table.withdraw(flow_id):
                self.transcript.messages.append(
                    WithdrawEntry(time=now, sender="controller",
                                  switch=sw.name, flow_id=flow_id)
                )
