#!/usr/bin/env python
"""Replay the paper's three motivation examples (Figs. 1–3) in detail.

For each example this prints the per-flow schedule outcome under every
scheduler the paper discusses, plus — for TAPS on Fig. 3 — the actual
pre-allocated time slices, showing f4's split allocation (0,1) ∪ (2,3)
from the paper's optimal schedule.

Run:  python examples/motivation_examples.py
"""

from repro import Engine, TapsScheduler
from repro.exp.motivation import run_all
from repro.workload.traces import fig3_trace


def print_outcomes() -> None:
    for fig, outcomes in run_all().items():
        print(f"=== {fig} ===")
        for o in outcomes:
            ref = (
                f"paper: {o.paper_flows} flows / {o.paper_tasks} tasks"
                if o.paper_flows is not None
                else "paper: prose (see repro.exp.motivation docstring)"
            )
            status = "match" if o.matches_paper else "MISMATCH"
            print(
                f"  {o.scheduler:14s} {o.flows_met} flows, "
                f"{o.tasks_completed} tasks   ({ref}) [{status}]"
            )
        print()


def print_fig3_slices() -> None:
    """Show the TAPS controller's actual allocation for Fig. 3."""
    print("=== fig3: TAPS pre-allocated time slices ===")
    topology, tasks = fig3_trace()
    scheduler = TapsScheduler()
    engine = Engine(topology, tasks, scheduler)
    # deliver the simultaneous arrivals without running the clock, so the
    # committed plans are inspectable
    scheduler.attach(topology, engine.path_service)
    for ts in engine.task_states:
        scheduler.on_task_arrival(ts, 0.0)

    names = {0: "f1 (1->2)", 1: "f2 (1->4)", 2: "f3 (3->2)", 3: "f4 (3->4)"}
    for fid, label in names.items():
        plan = scheduler.plan_of(fid)
        slices = ", ".join(f"({s:g},{e:g})" for s, e in plan.slices)
        hops = " -> ".join(
            [topology.links[plan.path[0]].src]
            + [topology.links[link].dst for link in plan.path]
        )
        print(f"  {label:12s} slices {slices:18s} via {hops}")
    print("\nf4's split slice set matches the paper's optimal schedule "
          "(Fig. 3(b)).")


if __name__ == "__main__":
    print_outcomes()
    print_fig3_slices()
