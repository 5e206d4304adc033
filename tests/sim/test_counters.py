"""EngineCounters semantics across run shapes."""

from repro.core.controller import TapsScheduler
from repro.sched.fair import FairSharing
from repro.sim.engine import Engine
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


def test_arrival_and_completion_counts():
    topo = dumbbell(3)
    tasks = [make_task(i, 0.5 * i, 10.0 + 0.5 * i,
                       [(f"L{i}", f"R{i}", 1.0)], i) for i in range(3)]
    result = Engine(topo, tasks, FairSharing()).run()
    assert result.counters.arrivals == 3
    assert result.counters.completions == 3
    assert result.counters.deadline_events == 0
    assert result.counters.stalled_kills == 0


def test_deadline_events_counted_once_per_flow():
    topo = dumbbell(2)
    tasks = [make_task(i, 0.0, 1.0, [(f"L{i}", f"R{i}", 50.0)], i)
             for i in range(2)]
    result = Engine(topo, tasks, FairSharing()).run()
    assert result.counters.deadline_events == 2


def test_rate_recomputes_bounded_by_events():
    topo = dumbbell(2)
    tasks = [make_task(i, 0.0, 10.0, [(f"L{i}", f"R{i}", 1.0)], i)
             for i in range(2)]
    result = Engine(topo, tasks, TapsScheduler()).run()
    assert 0 < result.counters.rate_recomputes <= result.counters.events


def test_rejected_tasks_do_not_produce_completions():
    topo = dumbbell(1)
    tasks = [make_task(0, 0.0, 0.5, [("L0", "R0", 5.0)], 0)]
    result = Engine(topo, tasks, TapsScheduler()).run()
    assert result.counters.completions == 0
    assert result.counters.arrivals == 1


def test_deadline_scan_skipped_before_watermark():
    """With far deadlines most events never pay the per-flow expiry scan,
    and no expiry is ever missed."""
    topo = dumbbell(3)
    # many staggered arrivals, deadlines far beyond every completion
    tasks = [make_task(i, 0.1 * i, 100.0 + i, [(f"L{i % 3}", f"R{i % 3}", 1.0)], i)
             for i in range(9)]
    result = Engine(topo, tasks, FairSharing()).run()
    assert result.counters.deadline_scan_skips > 0
    assert result.counters.deadline_events == 0
    assert result.counters.completions == 9


def test_watermark_still_fires_every_expiry():
    """The skip optimisation must not eat deadline notifications: two
    flows that cannot finish still expire exactly once each."""
    topo = dumbbell(2)
    tasks = [make_task(i, 0.0, 1.0, [(f"L{i}", f"R{i}", 50.0)], i)
             for i in range(2)]
    result = Engine(topo, tasks, FairSharing()).run()
    assert result.counters.deadline_events == 2


def test_quiet_engine_is_cheap():
    """An idle stretch between two tasks costs O(1) events, not polling."""
    topo = dumbbell(1)
    tasks = [
        make_task(0, 0.0, 5.0, [("L0", "R0", 1.0)], 0),
        make_task(1, 1000.0, 1005.0, [("L0", "R0", 1.0)], 1),
    ]
    result = Engine(topo, tasks, TapsScheduler()).run()
    assert result.counters.events < 30
    assert result.tasks_completed == 2
