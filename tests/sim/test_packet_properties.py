"""Property tests for the packet simulator (conservation, monotonicity)."""

import math

from hypothesis import given, settings, strategies as st

from repro.sim.packet import PacketSimulator
from repro.workload.traces import dumbbell


@st.composite
def packet_case(draw):
    flows = []
    for fid in range(draw(st.integers(1, 5))):
        pair = draw(st.integers(0, 3))
        flows.append((
            fid,
            pair,
            draw(st.floats(0.1, 3.0)),   # size
            draw(st.floats(0.0, 2.0)),   # release
        ))
    return flows


@settings(max_examples=50, deadline=None)
@given(packet_case())
def test_all_packets_delivered(case):
    topo = dumbbell(4)
    sim = PacketSimulator(topo, dt=0.05)
    for fid, pair, size, release in case:
        sim.add_flow(fid, topo.shortest_path(f"L{pair}", f"R{pair}"),
                     size, release)
    out = sim.run()
    for fid, pair, size, release in case:
        r = out[fid]
        assert r.completed_at is not None
        assert r.packets == max(1, math.ceil(size / sim.packet_bytes))
        # cannot finish faster than serialised size after release
        assert r.completed_at >= release + (r.packets - 1) * sim.dt


@settings(max_examples=30, deadline=None)
@given(packet_case())
def test_throughput_bounded_by_capacity(case):
    """The bottleneck link forwards at most one packet per slot, so total
    completion is at least the aggregate backlog through it."""
    topo = dumbbell(4)
    dt = 0.05
    sim = PacketSimulator(topo, dt=dt)
    total_packets = 0
    for fid, pair, size, release in case:
        sim.add_flow(fid, topo.shortest_path(f"L{pair}", f"R{pair}"),
                     size, release)
        total_packets += max(1, math.ceil(size / sim.packet_bytes))
    out = sim.run()
    last = max(r.completed_at for r in out.values())
    first_release = min(release for _, _, _, release in case)
    # every packet crossed the shared middle link, one per slot
    assert last >= first_release + total_packets * dt - dt


def test_finer_dt_converges_to_fluid():
    """Shrinking the slot shrinks the pipeline error monotonically-ish."""
    topo = dumbbell(1)
    path = topo.shortest_path("L0", "R0")
    errors = []
    for dt in (0.2, 0.05, 0.01):
        sim = PacketSimulator(topo, dt=dt)
        sim.add_flow(0, path, size=1.0, release=0.0)
        t = sim.run()[0].completed_at
        errors.append(abs(t - 1.0))
    assert errors[2] < errors[0]
    assert errors[2] <= 0.05
