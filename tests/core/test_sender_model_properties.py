"""Property test: the TAPS sender model against its full-scan definition.

``TapsScheduler.assign_rates`` and ``next_change`` answer from
slice-boundary heaps that only re-examine plans whose boundaries were
crossed.  Whatever the plan tables, call times, replacements, pops and
kills, they must agree after every call with the literal full-scan
formulas kept here as the reference:

* every pending planned flow's rate is
  ``capacity if slices.contains(now + 2 * EPS) else 0.0``;
* ``next_change(now)`` is the minimum of each pending plan's
  ``slices.next_boundary(now + EPS)`` and the batch-flush time, if later
  than ``now + EPS``.

Boundaries sit on a grid ``10 * EPS`` apart and call times land within a
few EPS of grid points, so boundaries in ``(now + EPS, now + 2 * EPS]`` —
passed for rates, still upcoming as a change point — come up often.
"""

from hypothesis import given, settings, strategies as st

from repro.core.allocation import FlowPlan
from repro.core.controller import TapsScheduler
from repro.net.paths import PathService
from repro.sim.state import EPS, FlowState, FlowStatus, TaskState
from repro.util.intervals import IntervalSet
from repro.workload.flow import Flow, make_task
from repro.workload.traces import dumbbell

CAPACITY = 1.0
GRID = 10 * EPS
OFFSETS = [k * EPS / 2 for k in range(-6, 7)]
POOL = 8
WINDOWS = [GRID, 2 * GRID + 1.5 * EPS, 3 * GRID - 1.5 * EPS]

grid_slices = st.lists(st.integers(0, 24), max_size=8, unique=True).map(
    lambda ks: sorted(ks)[: len(ks) // 2 * 2]
)
tables = st.dictionaries(st.integers(0, POOL - 1), grid_slices, max_size=POOL)
#: one step: move the clock (grid points forward, offset from the grid
#: point), optionally change the plan table or a flow, then call in
steps = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(OFFSETS),
        st.one_of(
            st.none(),
            st.tuples(st.just("replace"), tables),
            st.tuples(st.sampled_from(["complete", "preempt", "kill"]),
                      st.integers(0, POOL - 1)),
            st.tuples(st.just("batch")),
        ),
        st.sampled_from([("rates",), ("change",), ("rates", "change"),
                         ("change", "rates"), ("rates", "rates")]),
    ),
    min_size=1, max_size=30,
)


def _controller(window: float):
    topo = dumbbell(1, capacity=CAPACITY)
    sched = TapsScheduler(batch_window=window)
    sched.attach(topo, PathService(topo))
    return sched


def _pool(base: float) -> list[FlowState]:
    return [
        FlowState(flow=Flow(fid, fid, "L0", "R0", 1.0, base, base + 1e3))
        for fid in range(POOL)
    ]


def _plan(fs: FlowState, base: float, ks: list[int]) -> FlowPlan:
    b = [base + k * GRID for k in ks]
    slices = IntervalSet(zip(b[::2], b[1::2]))
    return FlowPlan(fs, (0,), slices, b[-1] if b else base)


def _expected_rates(sched, now):
    probe = now + 2 * EPS
    return {
        fid: CAPACITY if p.slices.contains(probe) else 0.0
        for fid, p in sched.plans.items()
        if p.flow_state.status is FlowStatus.PENDING
    }


def _expected_change(sched, now, flush_at):
    times = [
        p.slices.next_boundary(now + EPS)
        for p in sched.plans.values()
        if p.flow_state.status is FlowStatus.PENDING
    ]
    times = [b for b in times if b is not None]
    if flush_at is not None and flush_at > now + EPS:
        times.append(flush_at)
    return min(times) if times else None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.0, 1.0, 37.25]), st.sampled_from(WINDOWS), tables,
       steps)
def test_sender_model_matches_full_scan(base, window, table, script):
    sched = _controller(window)
    pool = _pool(base)
    sched.plans = {fid: _plan(pool[fid], base, ks) for fid, ks in table.items()}
    grid, now = 0, base
    flush_at = None
    next_task = 100
    for forward, offset, change, calls in script:
        grid += forward
        now = max(now, base + grid * GRID + offset)
        kind = change[0] if change else None
        if kind == "replace":
            sched.plans = {
                fid: _plan(pool[fid], base, ks) for fid, ks in change[1].items()
            }
        elif kind == "complete":
            fs = pool[change[1]]
            if fs.status is FlowStatus.PENDING:
                fs.finish(now)
                sched.on_flow_completed(fs, now)
        elif kind == "preempt":
            pool[change[1]].kill(FlowStatus.TERMINATED)
            sched.plans.pop(change[1], None)
        elif kind == "kill":
            pool[change[1]].kill(FlowStatus.TERMINATED)
        elif kind == "batch":
            # a real task joins the batch; its flush (inside assign_rates)
            # admits it and replaces the plan table
            task = make_task(next_task, now, now + 1.0,
                             [("L0", "R0", 3 * GRID)], next_task)
            next_task += 1
            ts = TaskState(task=task)
            ts.flow_states = [FlowState(flow=f) for f in task.flows]
            sched.on_task_arrival(ts, now)
            if flush_at is None:
                flush_at = now + window
        for call in calls:
            if call == "rates":
                sched.assign_rates(now)
                if flush_at is not None and now >= flush_at - EPS:
                    flush_at = None
                got = {fid: p.flow_state.rate
                       for fid, p in sched.plans.items()
                       if p.flow_state.status is FlowStatus.PENDING}
                assert got == _expected_rates(sched, now)
            else:
                assert sched.next_change(now) == _expected_change(
                    sched, now, flush_at
                )
