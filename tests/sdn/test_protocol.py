"""Fig. 4 message exchange: the instrumented control plane."""

import pytest

from repro.sdn.messages import (
    AcceptReply,
    InstallEntry,
    ProbePacket,
    RejectReply,
    TermPacket,
    WithdrawEntry,
)
from repro.sdn.protocol import ProtocolDriver
from repro.sdn.server import SenderAgent
from repro.util.errors import ConfigurationError
from repro.util.units import Gbps
from repro.workload.flow import make_task
from repro.workload.traces import testbed_trace as make_testbed_trace


@pytest.fixture
def small_run():
    topo, tasks = make_testbed_trace(num_flows=20, seed=5)
    driver = ProtocolDriver(topo, tasks)
    result = driver.run()
    return driver, result


class TestTranscript:
    def test_probe_per_task_sender(self, small_run):
        driver, result = small_run
        probes = driver.transcript.of_type(ProbePacket)
        # single-flow tasks: exactly one probe per task
        assert len(probes) == len(result.task_states)

    def test_every_task_answered(self, small_run):
        driver, result = small_run
        accepted = {m.task_id for m in driver.transcript.of_type(AcceptReply)}
        rejected = {m.task_id for m in driver.transcript.of_type(RejectReply)}
        assert accepted | rejected == {ts.task.task_id for ts in result.task_states}
        assert not (accepted & rejected)

    def test_accepts_match_admission(self, small_run):
        driver, result = small_run
        accepted = {m.task_id for m in driver.transcript.of_type(AcceptReply)}
        for ts in result.task_states:
            assert (ts.task.task_id in accepted) == bool(ts.accepted)

    def test_accept_carries_slices_and_path(self, small_run):
        driver, _ = small_run
        for m in driver.transcript.of_type(AcceptReply):
            assert m.slices.measure() > 0
            assert len(m.path_nodes) >= 3  # src, ≥1 switch, dst

    def test_term_for_every_completed_flow(self, small_run):
        driver, result = small_run
        terms = {m.flow_id for m in driver.transcript.of_type(TermPacket)}
        done = {fs.flow.flow_id for fs in result.flow_states
                if fs.status.value == "completed"}
        assert terms == done

    def test_installs_withdrawn_after_completion(self, small_run):
        driver, _ = small_run
        installed = {}
        for m in driver.transcript.of_type(InstallEntry):
            installed.setdefault(m.flow_id, set()).add(m.switch)
        withdrawn = {}
        for m in driver.transcript.of_type(WithdrawEntry):
            withdrawn.setdefault(m.flow_id, set()).add(m.switch)
        terms = {m.flow_id for m in driver.transcript.of_type(TermPacket)}
        for fid in terms:
            assert withdrawn.get(fid) == installed.get(fid)

    def test_tables_empty_after_run(self, small_run):
        driver, _ = small_run
        assert all(len(sw.table) == 0 for sw in driver.switches.values())

    def test_preempted_victims_entries_withdrawn(self):
        """A preempted victim's flows die without a TERM; the admission
        that kills them withdraws their entries, so every table still
        ends empty.  Under the default policy no newcomer preempts."""
        from repro.core.reject import PreemptionPolicy
        from repro.sim.state import FlowStatus

        topo, tasks = make_testbed_trace(num_flows=60, seed=3)
        driver = ProtocolDriver(topo, tasks,
                                preemption=PreemptionPolicy.PROSPECTIVE)
        result = driver.run()
        killed = {fs.flow.flow_id for fs in result.flow_states
                  if fs.status is FlowStatus.TERMINATED}
        installed = {m.flow_id for m in driver.transcript.of_type(InstallEntry)}
        assert killed & installed, "the run must preempt an installed flow"
        assert all(len(sw.table) == 0 for sw in driver.switches.values())

    def test_rejected_tasks_get_no_installs(self, small_run):
        driver, result = small_run
        installed = {m.flow_id for m in driver.transcript.of_type(InstallEntry)}
        for ts in result.task_states:
            if ts.accepted is False:
                for fs in ts.flow_states:
                    assert fs.flow.flow_id not in installed


class TestTableLimits:
    def test_tight_install_limit_counts_refusals(self):
        topo, tasks = make_testbed_trace(num_flows=30, seed=6)
        driver = ProtocolDriver(topo, tasks, table_capacity=2000, install_limit=1)
        driver.run()
        # with one entry per switch, concurrent flows through a shared
        # switch must overflow at least once
        assert driver.transcript.installs_refused > 0

    def test_install_limit_above_capacity_refused(self):
        """The driver builds its tables through FlowTable, so it refuses
        the same limits FlowTable does."""
        topo, tasks = make_testbed_trace(num_flows=4, seed=6)
        with pytest.raises(ConfigurationError):
            ProtocolDriver(topo, tasks, table_capacity=10, install_limit=50)


class TestSenderAgent:
    def test_probe_contains_task_variables(self):
        task = make_task(0, 0.0, 1.0,
                         [("h0_0_0", "h1_0_0", 1000.0),
                          ("h0_0_0", "h0_1_0", 2000.0)], 0)
        agent = SenderAgent(host="h0_0_0", capacity=1 * Gbps)
        probe = agent.probe_for(task, now=0.0)
        assert probe.flow_ids == (0, 1)
        assert probe.sizes == (1000.0, 2000.0)
        assert probe.deadline == 1.0
        # agent now tracks E_ij for both local flows
        assert agent.flows[0].expected_time == pytest.approx(1000.0 / Gbps)

    def test_probe_for_foreign_task_raises(self):
        from repro.util.errors import SimulationError

        task = make_task(0, 0.0, 1.0, [("h0_0_0", "h1_0_0", 1.0)], 0)
        agent = SenderAgent(host="h1_1_1", capacity=1.0)
        with pytest.raises(SimulationError):
            agent.probe_for(task, 0.0)

    def test_sending_only_inside_slices(self):
        from repro.sdn.messages import AcceptReply
        from repro.util.intervals import IntervalSet

        task = make_task(0, 0.0, 10.0, [("h0_0_0", "h1_0_0", 2.0)], 0)
        agent = SenderAgent(host="h0_0_0", capacity=1.0)
        agent.probe_for(task, 0.0)
        agent.on_accept(AcceptReply(
            time=0.0, sender="controller", task_id=0, flow_id=0,
            slices=IntervalSet([(1.0, 2.0), (5.0, 6.0)]),
            path_nodes=("h0_0_0", "e0_0", "h1_0_0"),
        ))
        assert not agent.sending_at(0, 0.5)
        assert agent.sending_at(0, 1.5)
        assert not agent.sending_at(0, 3.0)
        assert agent.sending_at(0, 5.5)

    def test_advance_emits_term_when_done(self):
        from repro.sdn.messages import AcceptReply
        from repro.util.intervals import IntervalSet

        task = make_task(0, 0.0, 10.0, [("h0_0_0", "h1_0_0", 2.0)], 0)
        agent = SenderAgent(host="h0_0_0", capacity=1.0)
        agent.probe_for(task, 0.0)
        agent.on_accept(AcceptReply(
            time=0.0, sender="controller", task_id=0, flow_id=0,
            slices=IntervalSet([(0.0, 2.0)]),
            path_nodes=("h0_0_0", "e0_0", "h1_0_0"),
        ))
        assert agent.advance(0, 1.0, now=1.0) is None
        term = agent.advance(0, 1.0, now=2.0)
        assert term is not None and term.flow_id == 0


class TestUpdateReplies:
    def test_reallocation_pushes_updates_to_inflight_senders(self):
        """An urgent newcomer moves the incumbent's slices; the controller
        must push the new pre-allocation (UpdateReply) to its sender."""
        from repro.sdn.messages import UpdateReply
        from repro.workload.traces import dumbbell

        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0),   # lax
            make_task(1, 0.5, 2.5, [("L1", "R1", 1.0)], 1),    # urgent
        ]
        driver = ProtocolDriver(topo, tasks)
        result = driver.run()
        assert result.tasks_completed == 2
        updates = driver.transcript.of_type(UpdateReply)
        assert any(u.flow_id == 0 for u in updates)

    def test_no_updates_without_plan_changes(self):
        from repro.sdn.messages import UpdateReply
        from repro.workload.traces import dumbbell

        topo = dumbbell(2)
        # disjoint-in-time tasks: the second arrives after the first ends
        tasks = [
            make_task(0, 0.0, 5.0, [("L0", "R0", 1.0)], 0),
            make_task(1, 2.0, 7.0, [("L1", "R1", 1.0)], 1),
        ]
        driver = ProtocolDriver(topo, tasks)
        driver.run()
        assert driver.transcript.count(UpdateReply) == 0

    def test_rerouted_update_reinstalls_switch_entries(self):
        """On a fat-tree a newcomer can push the incumbent to another
        path; the transcript then shows withdraw+install for it."""
        from repro.net.fattree import FatTree
        from repro.sdn.messages import UpdateReply

        topo = FatTree(4)
        cap = topo.uniform_capacity()
        tasks = [
            make_task(0, 0.0, 1.0, [("h0_0_0", "h1_0_0", cap * 0.1)], 0),
            make_task(1, 0.001, 0.2, [("h0_1_0", "h1_1_0", cap * 0.1)], 1),
        ]
        driver = ProtocolDriver(topo, tasks)
        result = driver.run()
        updates = driver.transcript.of_type(UpdateReply)
        # plans for flow 0 were recomputed (slices at least re-timed)
        assert result.tasks_completed == 2
        # reroutes, when they happen, must re-program switches coherently
        for u in updates:
            if u.rerouted:
                installs = [
                    m for m in driver.transcript.of_type(InstallEntry)
                    if m.flow_id == u.flow_id
                ]
                assert installs


class TestClockSkew:
    def _agent(self, skew):
        from repro.sdn.messages import AcceptReply
        from repro.util.intervals import IntervalSet

        task = make_task(0, 0.0, 10.0, [("h0_0_0", "h1_0_0", 2.0)], 0)
        agent = SenderAgent(host="h0_0_0", capacity=1.0, clock_skew=skew)
        agent.probe_for(task, 0.0)
        agent.on_accept(AcceptReply(
            time=0.0, sender="controller", task_id=0, flow_id=0,
            slices=IntervalSet([(1.0, 2.0)]),
            path_nodes=("h0_0_0", "e0_0", "h1_0_0"),
        ))
        return agent

    def test_synchronised_sender_never_violates(self):
        agent = self._agent(skew=0.0)
        for t in (0.5, 1.0, 1.5, 1.99, 2.5):
            assert not agent.slice_violation(0, t)

    def test_fast_clock_starts_early(self):
        agent = self._agent(skew=0.3)  # local clock runs ahead
        # at true t=0.8 the local clock reads 1.1 → inside the slice
        assert agent.sending_at(0, 0.8)
        assert agent.slice_violation(0, 0.8)
        # at true t=1.5 both clocks agree the slice is live
        assert agent.sending_at(0, 1.5)
        assert not agent.slice_violation(0, 1.5)

    def test_slow_clock_overruns_the_slice(self):
        agent = self._agent(skew=-0.3)
        # at true t=2.2 the local clock reads 1.9 → still transmitting
        assert agent.sending_at(0, 2.2)
        assert agent.slice_violation(0, 2.2)

    def test_violation_window_equals_skew(self):
        import numpy as np

        agent = self._agent(skew=0.25)
        probes = np.linspace(0.0, 3.0, 1201)
        violating = sum(agent.slice_violation(0, float(t)) for t in probes)
        window = violating * (3.0 / 1200)
        assert window == pytest.approx(0.25, abs=0.02)


def test_sender_on_reject_marks_flows_done():
    from repro.sdn.messages import RejectReply

    task = make_task(0, 0.0, 1.0, [("h0_0_0", "h1_0_0", 1000.0)], 0)
    agent = SenderAgent(host="h0_0_0", capacity=1.0)
    agent.probe_for(task, 0.0)
    agent.on_reject(RejectReply(time=0.0, sender="controller",
                                task_id=0, reason="reject rule"))
    assert agent.flows[0].done
    assert not agent.sending_at(0, 0.5)
