"""ASCII Gantt rendering."""

from repro.core.allocation import FlowPlan
from repro.sim.state import FlowState
from repro.util.intervals import IntervalSet
from repro.viz.gantt import render_flow_gantt, render_link_gantt
from repro.workload.flow import Flow


def _plan(fid, slices, deadline, completion):
    f = Flow(flow_id=fid, task_id=fid, src="a", dst="b",
             size=1.0, release=0.0, deadline=deadline)
    return FlowPlan(flow_state=FlowState(flow=f), path=(0,),
                    slices=IntervalSet(slices), completion=completion)


def test_flow_gantt_rows_and_marks():
    plans = [
        _plan(0, [(0, 1)], deadline=2.0, completion=1.0),
        _plan(1, [(1, 3)], deadline=2.0, completion=3.0),  # misses
    ]
    out = render_flow_gantt(plans, width=20)
    lines = out.splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert "f0.0" in lines[1] and "MISS" not in lines[1]
    assert "f1.1" in lines[2] and "MISS" in lines[2]
    assert "█" in lines[1]


def test_flow_gantt_deadline_marker():
    out = render_flow_gantt([_plan(0, [(0, 1)], 2.0, 1.0)],
                            width=40, span=(0.0, 4.0))
    row = out.splitlines()[1]
    # deadline at t=2 → marker at 50% of the 40-cell row
    cells = row.split(" ", 1)[1]
    assert cells[20] == "|"


def test_flow_gantt_custom_labels():
    out = render_flow_gantt([_plan(0, [(0, 1)], 2.0, 1.0)],
                            labels={0: "f11"})
    assert "f11" in out


def test_flow_gantt_empty():
    assert render_flow_gantt([]) == "(no plans)"


def test_link_gantt():
    occ = {
        "SL->SR": IntervalSet([(0, 1), (2, 3)]),
        "idle-link": IntervalSet(),
    }
    out = render_link_gantt(occ, width=30)
    assert "SL->SR" in out
    assert "idle-link" not in out  # empty links skipped


def test_link_gantt_all_idle():
    assert render_link_gantt({"x": IntervalSet()}) == "(all links idle)"


def test_fig3_gantt_matches_paper_schedule():
    """Render the actual TAPS fig3 allocation; f4's split must show two
    separate transmission bursts."""
    from repro.core.controller import TapsScheduler
    from repro.sim.engine import Engine
    from repro.workload.traces import fig3_trace

    topo, tasks = fig3_trace()
    sched = TapsScheduler()
    engine = Engine(topo, tasks, sched)
    sched.attach(topo, engine.path_service)
    for ts in engine.task_states:
        sched.on_task_arrival(ts, 0.0)
    out = render_flow_gantt(sched.plans.values(), width=30, span=(0.0, 3.0))
    f4_row = [line for line in out.splitlines() if line.strip().startswith("f3.3")][0]
    cells = f4_row.split(" ", 1)[1]
    # burst, gap, burst: at least one idle cell strictly between filled cells
    first = cells.find("█")
    last = cells.rfind("█")
    assert "·" in cells[first:last]