"""Chaos testing: random workloads × random faults × random TAPS configs.

Whatever combination of batch windows, control latency, preemption
policy and link outages is thrown at the controller,
the load-bearing invariants must hold:

* the run terminates with every flow in a terminal state;
* byte accounting is conserved;
* an accepted task either completes in time or was explicitly dropped by
  a fault/backstop (never silently half-delivered);
* rejected tasks never transmit;
* under PROGRESS preemption and no faults, waste is exactly zero.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import TapsScheduler
from repro.core.reject import PreemptionPolicy
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.sim.state import FlowStatus, TaskOutcome
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell

N_PAIRS = 5


@st.composite
def chaos_case(draw):
    tasks = []
    fid = 0
    t = 0.0
    for tid in range(draw(st.integers(2, 7))):
        t += draw(st.floats(0.0, 1.5))
        specs = []
        for _ in range(draw(st.integers(1, 3))):
            pair = draw(st.integers(0, N_PAIRS - 1))
            specs.append((f"L{pair}", f"R{pair}", draw(st.floats(0.3, 3.0))))
        tasks.append(make_task(tid, t, t + draw(st.floats(0.5, 9.0)),
                               specs, fid))
        fid += len(specs)

    faults = []
    for _ in range(draw(st.integers(0, 3))):
        link = draw(st.integers(0, 4 * N_PAIRS + 1))  # any directed link
        start = draw(st.floats(0.0, 8.0))
        faults.append(LinkFault(link, start,
                                start + draw(st.floats(0.2, 5.0))))

    config = dict(
        preemption=draw(st.sampled_from(list(PreemptionPolicy))),
        batch_window=draw(st.sampled_from([0.0, 0.05, 0.3])),
        control_latency=draw(st.sampled_from([0.0, 0.02])),
        reallocate_inflight=draw(st.booleans()),
        priority=draw(st.sampled_from(["edf_sjf", "edf", "fifo"])),
    )
    return tasks, faults, config


@settings(max_examples=120, deadline=None)
@given(chaos_case())
def test_invariants_under_chaos(case):
    tasks, faults, config = case
    topo = dumbbell(N_PAIRS)
    sched = TapsScheduler(**config)
    result = Engine(topo, tasks, sched, faults=faults,
                    max_events=300_000).run()

    dropped = sched.stats.tasks_dropped_on_fault + sched.stats.backstop_kills
    for ts in result.task_states:
        if ts.accepted and ts.outcome is not TaskOutcome.COMPLETED:
            # an accepted-but-failed task is only legal as a fault/backstop
            # casualty or a preemption victim
            assert dropped + sched.stats.tasks_preempted > 0, config
        if ts.accepted is False:
            for fs in ts.flow_states:
                assert fs.bytes_sent == 0.0

    for fs in result.flow_states:
        assert fs.status in (
            FlowStatus.COMPLETED, FlowStatus.REJECTED, FlowStatus.TERMINATED
        )
        assert fs.bytes_sent + fs.remaining == pytest.approx(
            fs.flow.size, rel=1e-4
        )


@settings(max_examples=80, deadline=None)
@given(chaos_case())
def test_no_waste_without_faults_under_progress(case):
    tasks, _faults, config = case
    if config["preemption"] is not PreemptionPolicy.PROGRESS:
        return
    from repro.metrics.summary import summarize

    topo = dumbbell(N_PAIRS)
    sched = TapsScheduler(**config)
    result = Engine(topo, tasks, sched, max_events=300_000).run()
    m = summarize(result)
    # batch-window expiries can strand a pending task whose deadline
    # passes mid-window; those flows never transmitted, so still no waste
    assert m.wasted_bandwidth_ratio == pytest.approx(0.0, abs=1e-12)
