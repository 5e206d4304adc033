"""Per-link loads from the transmission log."""

import pytest

from repro.metrics.transmission import TransmissionLog
from repro.sched.fair import FairSharing
from repro.core.controller import TapsScheduler
from repro.sim.engine import Engine
from repro.workload.flow import make_task
from repro.workload.traces import dumbbell


def _run(topo, tasks, sched):
    log = TransmissionLog(topo)
    result = Engine(topo, tasks, sched, hooks=(log,)).run()
    return log, result


def test_single_flow_charges_whole_path():
    topo = dumbbell(1)
    tasks = [make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0)]
    load, result = _run(topo, tasks, TapsScheduler())
    rows = load.link_loads(horizon=result.finished_at)
    # 3 links on the path, each carried the full 2 bytes
    assert len(rows) == 3
    for row in rows:
        assert row.bytes_total == pytest.approx(2.0, rel=1e-4)
        assert row.bytes_useful == pytest.approx(2.0, rel=1e-4)
        assert row.bytes_wasted == pytest.approx(0.0, abs=1e-6)


def test_utilization_fraction():
    topo = dumbbell(1)  # capacity 1
    tasks = [make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0)]
    load, result = _run(topo, tasks, TapsScheduler())
    rows = load.link_loads(horizon=4.0)
    # 2 byte-seconds over 4 s of capacity-1 → 50%
    for row in rows:
        assert row.utilization == pytest.approx(0.5, rel=1e-4)


def test_wasted_bytes_attributed_to_missed_flows():
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 100.0, [("L0", "R0", 2.0)], 0),   # meets
        make_task(1, 0.0, 1.0, [("L1", "R1", 50.0)], 1),    # misses
    ]
    load, result = _run(topo, tasks, FairSharing())
    rows = {(r.src, r.dst): r for r in load.link_loads(result.finished_at)}
    shared = rows[("SL", "SR")]
    assert shared.bytes_wasted > 0
    assert shared.bytes_useful == pytest.approx(2.0, rel=1e-3)


def test_hottest_orders_by_volume():
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 100.0, [("L0", "R0", 5.0)], 0),
        make_task(1, 0.0, 100.0, [("L1", "R1", 1.0)], 1),
    ]
    load, result = _run(topo, tasks, FairSharing())
    top = load.hottest(result.finished_at, n=1)[0]
    # the shared middle link carries both flows' bytes
    assert (top.src, top.dst) == ("SL", "SR")
    assert top.bytes_total == pytest.approx(6.0, rel=1e-3)


def test_idle_links_absent():
    topo = dumbbell(3)
    tasks = [make_task(0, 0.0, 100.0, [("L0", "R0", 1.0)], 0)]
    load, result = _run(topo, tasks, FairSharing())
    rows = load.link_loads(result.finished_at)
    touched = {(r.src, r.dst) for r in rows}
    assert ("L1", "SL") not in touched


def test_bad_horizon():
    load = TransmissionLog(dumbbell(1))
    with pytest.raises(ValueError):
        load.link_loads(horizon=0.0)


# -- link loads and peaks under link-outage fault windows ---------------------
#
# The engine zeroes rates on down links *before* hooks see the advance,
# so what the log records must reflect what the network physically
# carried — never the controller's pre-outage allocations.


def _middle_link(topo):
    return next(
        i for i, ln in enumerate(topo.links)
        if (ln.src, ln.dst) == ("SL", "SR")
    )


def _run_faulted(topo, tasks, faults, horizon=None):
    log = TransmissionLog(topo)
    result = Engine(
        topo, tasks, TapsScheduler(), hooks=(log,),
        faults=faults, horizon=horizon,
    ).run()
    return log, result


def _peak(log, link):
    """The highest total rate the log saw on ``link`` (0 if unused)."""
    rates: dict[tuple[float, float], float] = {}
    for t0, t1, _fs, rate, path in log.records:
        if link in (path or ()):
            rates[t0, t1] = rates.get((t0, t1), 0.0) + rate
    return max(rates.values(), default=0.0)


def test_peak_zero_while_path_is_down():
    """An outage covering the whole (horizon-cut) run leaves no link
    loaded: the allocation existed, but the link never carried it."""
    from repro.sim.faults import LinkFault

    topo = dumbbell(1)
    mid = _middle_link(topo)
    tasks = [make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0)]
    # control: same horizon, no fault — the link is busy immediately
    control, _ = _run_faulted(topo, tasks, faults=None, horizon=1.0)
    assert _peak(control, mid) > 0.0
    assert control.link_loads(1.0)
    # outage spans past the horizon: nothing may be charged anywhere
    load, _ = _run_faulted(
        topo, tasks, faults=[LinkFault(mid, 0.0, 5.0)], horizon=1.0
    )
    assert _peak(load, mid) == 0.0
    assert load.link_loads(1.0) == []


def test_peak_reflects_only_post_recovery_transmission():
    """With an outage window early in the run, the link's peak and bytes
    come from the post-recovery transmission, not the voided
    allocation."""
    from repro.sim.faults import LinkFault

    topo = dumbbell(1)
    mid = _middle_link(topo)
    tasks = [make_task(0, 0.0, 10.0, [("L0", "R0", 2.0)], 0)]
    load, result = _run_faulted(
        topo, tasks, faults=[LinkFault(mid, 0.0, 0.5)]
    )
    # the flow finished after the link came back, at full exclusive rate
    assert result.finished_at == pytest.approx(2.5, rel=1e-6)
    assert all(t0 >= 0.5 for t0, *_ in load.records)
    assert _peak(load, mid) == pytest.approx(1.0, rel=1e-6)
    # and byte accounting matches the delivered size, no phantom bytes
    # charged during the outage
    rows = {r.link_index: r for r in load.link_loads(result.finished_at)}
    assert rows[mid].bytes_total == pytest.approx(2.0, rel=1e-4)
    assert rows[mid].utilization == pytest.approx(2.0 / 2.5, rel=1e-4)


def test_peak_mid_run_outage_window_not_charged():
    """Two tasks queued behind a downed shared link load no link at all
    while it is out — allocations alone never count as carriage."""
    from repro.sim.faults import LinkFault

    topo = dumbbell(2)
    mid = _middle_link(topo)
    # both pairs share the middle link, so the outage idles everything
    tasks = [
        make_task(0, 0.0, 50.0, [("L0", "R0", 2.0)], 0),
        make_task(1, 0.0, 50.0, [("L1", "R1", 2.0)], 1),
    ]
    load, _ = _run_faulted(
        topo, tasks, faults=[LinkFault(mid, 0.0, 1.0)], horizon=1.0
    )
    assert _peak(load, mid) == 0.0
    assert load.link_loads(1.0) == []


def test_rerouted_flow_charged_to_each_path_it_used():
    """A flow moved to another path mid-run is charged, interval by
    interval, to the path it used then — not all to its final path."""
    from repro.net.fattree import FatTree
    from repro.net.paths import PathService
    from repro.sim.state import FlowState

    topo = FatTree(k=4)
    first, second = PathService(topo).candidates("h0_0_0", "h3_1_1")[:2]
    (flow,) = make_task(0, 0.0, 10.0, [("h0_0_0", "h3_1_1", 3.0)], 0).flows
    fs = FlowState(flow=flow, rate=1.0, path=first)
    log = TransmissionLog(topo)
    log.on_advance(0.0, 1.0, [fs])
    fs.path = second
    log.on_advance(1.0, 3.0, [fs])
    fs.finish(3.0)
    loads = {r.link_index: r for r in log.link_loads(3.0)}
    assert set(loads) == set(first) | set(second)
    for link, row in loads.items():
        want = 1.0 * (link in first) + 2.0 * (link in second)
        assert row.bytes_total == row.bytes_useful == want, link
