"""PDQ: criticality ordering, exclusive links, early termination, flow lists."""

import pytest

from repro.sched.pdq import PDQ
from repro.sim.engine import Engine
from repro.sim.state import FlowStatus
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell, fig1_trace, fig3_trace


def test_most_critical_flow_runs_alone_at_full_rate():
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 9.0, [("L0", "R0", 1.0)], 0),   # later deadline
        make_task(1, 0.0, 3.0, [("L1", "R1", 1.0)], 1),   # more critical
    ]
    engine = Engine(topo, tasks, PDQ())
    sched = engine.scheduler
    sched.attach(topo, engine.path_service)
    for ts in engine.task_states:
        sched.on_task_arrival(ts, 0.0)
    sched.assign_rates(0.0)
    rates = {fs.flow.flow_id: fs.rate for fs in sched.active_flows}
    assert rates[1] == pytest.approx(1.0)
    assert rates[0] == pytest.approx(0.0)  # paused by the critical flow


def test_edf_then_sjf_ordering():
    topo = dumbbell(3)
    tasks = [
        make_task(0, 0.0, 5.0, [("L0", "R0", 3.0)], 0),  # same dl, larger
        make_task(1, 0.0, 5.0, [("L1", "R1", 1.0)], 1),  # same dl, smaller → first
        make_task(2, 0.0, 2.0, [("L2", "R2", 1.0)], 2),  # earliest dl → very first
    ]
    result = Engine(topo, tasks, PDQ()).run()
    by_id = {fs.flow.flow_id: fs for fs in result.flow_states}
    assert by_id[2].completed_at == pytest.approx(1.0)
    assert by_id[1].completed_at == pytest.approx(2.0)
    assert by_id[0].completed_at == pytest.approx(5.0)


def test_preemption_on_more_critical_arrival():
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 10.0, [("L0", "R0", 5.0)], 0),
        make_task(1, 1.0, 3.0, [("L1", "R1", 1.0)], 1),  # arrives later, urgent
    ]
    result = Engine(topo, tasks, PDQ()).run()
    by_id = {fs.flow.flow_id: fs for fs in result.flow_states}
    # flow 1 preempts at t=1, finishes at 2; flow 0 resumes → 6
    assert by_id[1].completed_at == pytest.approx(2.0)
    assert by_id[0].completed_at == pytest.approx(6.0)
    assert by_id[0].met_deadline and by_id[1].met_deadline


def test_early_termination_kills_hopeless_flow():
    topo = dumbbell(1)
    # even alone at rate 1, 10 units cannot fit in a 5-unit deadline
    tasks = [make_task(0, 0.0, 5.0, [("L0", "R0", 10.0)], 0)]
    result = Engine(topo, tasks, PDQ()).run()
    fs = result.flow_states[0]
    assert fs.status is FlowStatus.TERMINATED
    assert fs.bytes_sent == 0.0  # killed before sending anything


def test_early_termination_frees_bandwidth_for_feasible_flow():
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 2.0, [("L0", "R0", 1.0)], 0),   # critical, feasible
        make_task(1, 0.0, 2.5, [("L1", "R1", 2.4)], 1),   # doomed once 0 runs
    ]
    result = Engine(topo, tasks, PDQ()).run()
    by_id = {fs.flow.flow_id: fs for fs in result.flow_states}
    assert by_id[0].met_deadline
    # flow 1 was ET-killed (needs 2.4 < 2.5 alone, but is paused 1 unit)
    assert by_id[1].status is FlowStatus.TERMINATED


def test_disjoint_paths_run_concurrently():
    topo, tasks = fig3_trace()
    result = Engine(topo, tasks, PDQ()).run()
    # without a flow-list limit, plain PDQ completes all four here
    assert result.flows_met == 4


def test_flow_list_limit_reproduces_paper_fig3():
    topo, tasks = fig3_trace()
    result = Engine(topo, tasks, PDQ(flow_list_limit=1)).run()
    assert result.flows_met == 3
    missed = [fs for fs in result.flow_states if not fs.met_deadline]
    assert [fs.flow.flow_id for fs in missed] == [3]  # f4, as in the paper


def test_fig1_outcome_two_flows_no_tasks():
    topo, tasks = fig1_trace()
    result = Engine(topo, tasks, PDQ()).run()
    assert result.flows_met == 2
    assert result.tasks_completed == 0
    winners = sorted(fs.flow.flow_id for fs in result.flow_states if fs.met_deadline)
    assert winners == [0, 2]  # f11 and f21, per the paper's walk-through
