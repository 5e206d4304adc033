"""Property-based engine tests with an adversarial random-rate scheduler.

The scheduler below assigns arbitrary (but capacity-bounded) rates and
randomly chooses deadline reactions — if the engine's bookkeeping is
correct, conservation and termination must survive any such policy.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sched.base import Scheduler
from repro.sim.engine import Engine
from repro.sim.state import FlowStatus
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


class RandomRates(Scheduler):
    """Admits everything; draws a fresh random rate split per recompute."""

    name = "random"

    def __init__(self, seed: int, quit_on_miss: bool) -> None:
        super().__init__()
        self._rng = np.random.default_rng(seed)
        self._quit = quit_on_miss

    def on_task_arrival(self, ts, now):
        ts.accepted = True
        self._admit_flows(ts)

    def assign_rates(self, now):
        # random weights, scaled so no link exceeds capacity
        if not self.active_flows:
            return
        weights = self._rng.uniform(0.1, 1.0, size=len(self.active_flows))
        load: dict[int, float] = {}
        for fs, w in zip(self.active_flows, weights):
            for link in fs.path:
                load[link] = load.get(link, 0.0) + w
        assert self.topology is not None
        scale = min(
            self.topology.links[link].capacity / total for link, total in load.items()
        )
        for fs, w in zip(self.active_flows, weights):
            fs.rate = w * scale

    def on_deadline_expired(self, fs, now):
        if self._quit:
            super().on_deadline_expired(fs, now)


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 6))
    tasks = []
    t = 0.0
    fid = 0
    for tid in range(n):
        t += draw(st.floats(0.0, 1.0))
        pair = draw(st.integers(0, 3))
        size = draw(st.floats(0.3, 3.0))
        slack = draw(st.floats(0.5, 8.0))
        tasks.append(
            make_task(tid, t, t + slack, [(f"L{pair}", f"R{pair}", size)], fid)
        )
        fid += 1
    return tasks


@settings(max_examples=60, deadline=None)
@given(workloads(), st.integers(0, 10_000), st.booleans())
def test_conservation_and_termination(tasks, seed, quit_on_miss):
    topo = dumbbell(4)
    engine = Engine(topo, tasks, RandomRates(seed, quit_on_miss),
                    max_events=200_000)
    result = engine.run()
    for fs in result.flow_states:
        # every flow terminal
        assert fs.status in (
            FlowStatus.COMPLETED, FlowStatus.TERMINATED, FlowStatus.REJECTED
        )
        # conservation
        assert abs(fs.bytes_sent + fs.remaining - fs.flow.size) \
            <= 1e-4 * fs.flow.size + 1e-9
        # completed flows really delivered everything
        if fs.status is FlowStatus.COMPLETED:
            assert fs.remaining <= 1e-4 * fs.flow.size + 1e-9
        # nothing transmits before its release
        if fs.completed_at is not None:
            assert fs.completed_at >= fs.flow.release


@settings(max_examples=40, deadline=None)
@given(workloads(), st.integers(0, 10_000))
def test_quit_on_miss_stops_at_deadline(tasks, seed):
    topo = dumbbell(4)
    result = Engine(topo, tasks, RandomRates(seed, quit_on_miss=True),
                    max_events=200_000).run()
    for fs in result.flow_states:
        if fs.status is FlowStatus.TERMINATED:
            # a quit flow can never have delivered everything in time
            assert not fs.met_deadline
