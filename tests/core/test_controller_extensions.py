"""TAPS extensions: batch window (Alg. 1's wait-T) and control latency."""

import pytest

from repro.core.controller import TapsScheduler
from repro.sim.engine import Engine
from repro.sim.state import TaskOutcome
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


class TestBatchWindow:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TapsScheduler(batch_window=-1.0)
        with pytest.raises(ValueError):
            TapsScheduler(control_latency=-0.5)

    def test_batched_admission_reorders_by_urgency(self):
        """Within one window, the urgent task is admitted first even when
        it arrived second — immediate admission would favour the earlier,
        laxer task."""
        topo = dumbbell(2)
        # together they need 6 units by t<=4.1: only one fits; per-arrival
        # admission accepts the lax task first and then keeps it
        # (PROGRESS policy), starving the urgent one arriving 0.05 later.
        tasks = [
            make_task(0, 0.00, 6.0, [("L0", "R0", 3.0)], 0),   # lax
            make_task(1, 0.05, 3.2, [("L1", "R1", 3.0)], 1),   # urgent
        ]
        immediate = Engine(topo, tasks, TapsScheduler()).run()
        by_tid = {ts.task.task_id: ts for ts in immediate.task_states}
        assert by_tid[1].accepted is False
        # the batched run admits the urgent one
        topo2 = dumbbell(2)
        batched = Engine(topo2, tasks, TapsScheduler(batch_window=0.1)).run()
        by_tid_b = {ts.task.task_id: ts for ts in batched.task_states}
        assert by_tid_b[1].accepted is True
        assert by_tid_b[1].outcome is TaskOutcome.COMPLETED

    def test_batch_window_delays_start(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 5.0, [("L0", "R0", 2.0)], 0)]
        result = Engine(topo, tasks, TapsScheduler(batch_window=0.5)).run()
        fs = result.flow_states[0]
        assert fs.met_deadline
        # transmission cannot begin before the window closes
        assert fs.completed_at >= 0.5 + 2.0 - 1e-9

    def test_batched_tasks_all_decided(self):
        topo = dumbbell(3)
        tasks = [
            make_task(i, 0.01 * i, 10.0 + 0.01 * i,
                      [(f"L{i}", f"R{i}", 1.0)], i)
            for i in range(3)
        ]
        result = Engine(topo, tasks, TapsScheduler(batch_window=0.2)).run()
        assert all(ts.accepted is not None for ts in result.task_states)
        assert result.tasks_completed == 3

    def test_multiple_windows(self):
        """Arrivals after a flush open a fresh window."""
        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 5.0, [("L0", "R0", 1.0)], 0),
            make_task(1, 2.0, 7.0, [("L1", "R1", 1.0)], 1),
        ]
        result = Engine(topo, tasks, TapsScheduler(batch_window=0.1)).run()
        assert result.tasks_completed == 2
        by_tid = {ts.task.task_id: ts for ts in result.task_states}
        f1 = by_tid[1].flow_states[0]
        assert f1.completed_at >= 2.1 + 1.0 - 1e-9


class TestControlLatency:
    def test_slices_start_after_rtt(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 5.0, [("L0", "R0", 2.0)], 0)]
        result = Engine(topo, tasks,
                        TapsScheduler(control_latency=0.25)).run()
        fs = result.flow_states[0]
        assert fs.met_deadline
        assert fs.completed_at == pytest.approx(2.25)

    def test_latency_tightens_admission(self):
        """A task that fits with an instant controller is rejected when
        the round-trip eats its slack."""
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 2.1, [("L0", "R0", 2.0)], 0)]
        ok = Engine(topo, tasks, TapsScheduler()).run()
        assert ok.tasks_completed == 1
        topo2 = dumbbell(1)
        slow = Engine(topo2, tasks, TapsScheduler(control_latency=0.5)).run()
        assert slow.tasks_completed == 0
        assert slow.task_states[0].accepted is False

    def test_zero_latency_unchanged(self):
        topo = dumbbell(2)
        tasks = [
            make_task(0, 0.0, 6.0, [("L0", "R0", 2.0)], 0),
            make_task(1, 0.5, 6.5, [("L1", "R1", 2.0)], 1),
        ]
        a = Engine(topo, tasks, TapsScheduler()).run()
        topo2 = dumbbell(2)
        b = Engine(topo2, tasks, TapsScheduler(control_latency=0.0)).run()
        assert a.tasks_completed == b.tasks_completed

    def test_expired_by_latency_never_transmits(self):
        topo = dumbbell(1)
        tasks = [make_task(0, 0.0, 0.4, [("L0", "R0", 0.3)], 0)]
        result = Engine(topo, tasks, TapsScheduler(control_latency=0.5)).run()
        fs = result.flow_states[0]
        assert fs.bytes_sent == 0.0


class TestCombined:
    def test_batching_plus_latency_accepted_tasks_still_complete(self):
        topo = dumbbell(4)
        tasks = [
            make_task(i, 0.05 * i, 8.0 + 0.05 * i,
                      [(f"L{i}", f"R{i}", 1.5)], i)
            for i in range(4)
        ]
        sched = TapsScheduler(batch_window=0.15, control_latency=0.05)
        result = Engine(topo, tasks, sched).run()
        for ts in result.task_states:
            if ts.accepted:
                assert ts.outcome is TaskOutcome.COMPLETED
        assert sched.stats.backstop_kills == 0

class TestFlowTableLimit:
    """§IV-C's install limit is modelled by :class:`repro.sdn.FlowTable`
    alone: the controller plans any number of concurrent flows through a
    switch."""

    def test_unconstrained_by_default(self):
        topo = dumbbell(4)
        tasks = [
            make_task(i, 0.0, 20.0, [(f"L{i}", f"R{i}", 1.0)], i)
            for i in range(4)
        ]
        result = Engine(topo, tasks, TapsScheduler()).run()
        assert result.tasks_completed == 4


class TestIncrementalAdmission:
    def test_fig2_needs_global_reallocation(self):
        """The Fig. 2 preemption example: incremental admission (frozen
        in-flight plans) degenerates to Varys' outcome — the urgent
        late task is rejected; full reallocation admits both."""
        from repro.workload.traces import fig2_trace

        topo, tasks = fig2_trace()
        full = Engine(topo, tasks, TapsScheduler()).run()
        topo2, tasks2 = fig2_trace()
        inc = Engine(topo2, tasks2,
                     TapsScheduler(reallocate_inflight=False)).run()
        assert full.tasks_completed == 2
        assert inc.tasks_completed == 1

    def test_incremental_accepted_tasks_still_complete(self):
        topo = dumbbell(4)
        tasks = [
            make_task(i, 0.1 * i, 6.0 + 0.1 * i,
                      [(f"L{i}", f"R{i}", 1.5)], i)
            for i in range(4)
        ]
        sched = TapsScheduler(reallocate_inflight=False)
        result = Engine(topo, tasks, sched).run()
        for ts in result.task_states:
            if ts.accepted:
                assert ts.outcome is TaskOutcome.COMPLETED
        assert sched.stats.backstop_kills == 0

    def test_incremental_never_beats_full_on_fig_traces(self):
        """Extra planning freedom cannot hurt on the motivation traces."""
        from repro.workload.traces import fig1_trace, fig2_trace

        for trace in (fig1_trace, fig2_trace):
            topo, tasks = trace()
            full = Engine(topo, tasks, TapsScheduler()).run()
            topo2, tasks2 = trace()
            inc = Engine(topo2, tasks2,
                         TapsScheduler(reallocate_inflight=False)).run()
            assert full.tasks_completed >= inc.tasks_completed

    def test_incremental_zero_waste(self):
        from repro.metrics.summary import summarize
        from repro.workload.generator import WorkloadConfig, generate_workload

        topo = dumbbell(5)
        cfg = WorkloadConfig(num_tasks=10, mean_flows_per_task=2,
                             arrival_rate=2.0, mean_flow_size=1.0,
                             min_flow_size=0.2, mean_deadline=2.0, seed=4)
        tasks = generate_workload(cfg, list(topo.hosts))
        m = summarize(Engine(topo, tasks,
                             TapsScheduler(reallocate_inflight=False)).run())
        assert m.wasted_bandwidth_ratio == 0.0


class TestPriorityKnob:
    def test_invalid_priority_rejected(self):
        with pytest.raises(ValueError):
            TapsScheduler(priority="lifo")

    def test_default_is_paper_ordering(self):
        assert TapsScheduler().priority == "edf_sjf"

    def test_edf_sjf_beats_fifo_with_inflight_traffic(self):
        """The Ftmp sort matters once in-flight flows are re-packed: EDF
        pushes the lax in-flight flow behind the urgent newcomer; FIFO
        keeps release order and starves the newcomer into rejection."""
        tasks = [
            make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0),   # lax
            make_task(1, 0.5, 2.5, [("L1", "R1", 1.0)], 1),    # urgent
        ]
        edf = Engine(dumbbell(2), tasks, TapsScheduler()).run()
        fifo = Engine(dumbbell(2), tasks,
                      TapsScheduler(priority="fifo")).run()
        assert edf.tasks_completed == 2
        assert fifo.tasks_completed == 1
        rejected = [ts.task.task_id for ts in fifo.task_states
                    if ts.accepted is False]
        assert rejected == [1]  # the urgent newcomer loses under FIFO

    def test_all_priorities_keep_invariants(self):
        from repro.metrics.summary import summarize
        from repro.workload.generator import WorkloadConfig, generate_workload

        topo = dumbbell(5)
        cfg = WorkloadConfig(num_tasks=10, mean_flows_per_task=2,
                             arrival_rate=2.0, mean_flow_size=1.0,
                             min_flow_size=0.2, mean_deadline=2.0, seed=8)
        tasks = generate_workload(cfg, list(topo.hosts))
        for priority in ("edf_sjf", "edf", "sjf", "fifo"):
            sched = TapsScheduler(priority=priority)
            m = summarize(Engine(topo, tasks, sched).run())
            assert m.wasted_bandwidth_ratio == 0.0, priority
            assert sched.stats.backstop_kills == 0, priority
