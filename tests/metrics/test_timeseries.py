"""Effective throughput over time from the transmission log (Fig. 14)."""

import numpy as np
import pytest

from repro.metrics.transmission import TransmissionLog
from repro.sched.fair import FairSharing
from repro.core.controller import TapsScheduler
from repro.sim.engine import Engine
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


def _collect(scheduler, tasks, topo=None):
    topo = topo or dumbbell(4)
    c = TransmissionLog(topo)
    result = Engine(topo, tasks, scheduler, hooks=(c,)).run()
    return c, result


def test_empty_run():
    c = TransmissionLog(dumbbell(1))
    times, pct = c.sample()
    assert len(times) == 0


def test_single_successful_flow_is_100pct():
    tasks = [make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0)]
    c, _ = _collect(TapsScheduler(), tasks)
    times, pct = c.sample(50)
    busy = pct > 0
    assert busy.any()
    assert np.allclose(pct[busy], 100.0)


def test_doomed_flow_is_0pct():
    tasks = [make_task(0, 0.0, 1.0, [("L0", "R0", 10.0)], 0)]
    c, _ = _collect(FairSharing(quit_on_miss=False), tasks)
    times, pct = c.sample(50)
    # the flow transmits but never meets its deadline: nothing is useful
    assert np.allclose(pct, 0.0)


def test_mixed_traffic_instant_fraction():
    tasks = [
        make_task(0, 0.0, 100.0, [("L0", "R0", 10.0)], 0),  # succeeds
        make_task(1, 0.0, 1.0, [("L1", "R1", 10.0)], 1),    # doomed
    ]
    c, _ = _collect(FairSharing(quit_on_miss=False), tasks)
    times, pct = c.sample(200)
    # both share the middle link at half rate until they finish at 20,
    # so half of what is sent is useful throughout
    assert pct[0] == pytest.approx(50.0)
    early = pct[(times > 0.1) & (times < 10)]
    assert np.allclose(early, 50.0, atol=5)


def test_usefulness_read_from_final_flow_states():
    """The log decides usefulness when queried, from each flow's final
    state: the same records read 100% while that state meets the
    deadline and 0% once it says the flow finished late."""
    tasks = [make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0)]
    topo = dumbbell(1)
    c = TransmissionLog(topo)
    result = Engine(topo, tasks, TapsScheduler(), hooks=(c,)).run()
    (fs,) = result.flow_states
    assert fs.met_deadline
    _, pct = c.sample(10)
    assert np.allclose(pct, 100.0)
    completed_at, fs.completed_at = fs.completed_at, 11.0  # now late
    _, pct = c.sample(10)
    assert np.allclose(pct, 0.0)
    fs.completed_at = completed_at
