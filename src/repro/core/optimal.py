"""Offline task-subset bound — how close is TAPS to "near-optimal"?

The paper claims near-optimality but cannot compare against an optimum
(the problem is the NP-hard one of §IV-B).  For small instances we can:
an **offline EDF-packing optimum** searches all task subsets for the
largest one whose flows — with full knowledge of future arrivals — can be
packed by the same EDF/SJF greedy allocator TAPS uses (Alg. 2/3).

Two properties make the search sound and fast enough:

* *monotonicity*: under the EDF-greedy evaluator, adding a task can only
  delay existing flows (a higher-priority insertion never speeds anyone
  up), so an infeasible chosen set prunes all its supersets;
* *branch and bound*: sets that cannot beat the incumbent are cut.

Caveat (documented, tested): the bound is an optimum *of the evaluator*,
not of the scheduling problem — TAPS' incremental reallocation could in
principle pack a set the one-shot greedy rejects, so the measured "gap"
is approximate in both directions; on the benchmark workloads it behaves
as an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import allocation_horizon, path_calculation
from repro.core.occupancy import OccupancyLedger
from repro.net.paths import PathService
from repro.sched.base import edf_sjf_key
from repro.sim.state import FlowState
from repro.util.errors import ConfigurationError
from repro.workload.flow import Task


@dataclass(frozen=True, slots=True)
class OfflineBound:
    """Result of the offline subset search."""

    best_count: int
    best_task_ids: tuple[int, ...]
    nodes_explored: int
    feasibility_checks: int


def edf_packing_feasible(
    tasks: list[Task], paths: PathService, capacity: float
) -> bool:
    """Whether every flow of every task meets its deadline when packed by
    the EDF/SJF greedy allocator with offline knowledge (flows released at
    their true arrival times, full sizes)."""
    flows = [FlowState(flow=f) for t in tasks for f in t.flows]
    if not flows:
        return True
    flows.sort(key=edf_sjf_key)
    horizon = allocation_horizon(flows, capacity, now=0.0)
    plans = path_calculation(
        flows, OccupancyLedger(), paths, capacity, now=0.0, horizon=horizon
    )
    return all(p.meets_deadline for p in plans.values())


def offline_best_subset(
    tasks: list[Task],
    paths: PathService,
    capacity: float,
    max_nodes: int = 200_000,
) -> OfflineBound:
    """Largest task subset feasible under offline EDF packing.

    Exponential in the number of tasks; intended for ≤ ~15 tasks (the
    optimality-gap benchmarks).  ``max_nodes`` caps the search; hitting
    it raises so a truncated bound is never mistaken for the optimum.
    """
    order = sorted(tasks, key=lambda t: (t.deadline, t.task_id))
    n = len(order)
    state = {"nodes": 0, "checks": 0, "best": 0, "best_ids": ()}

    def recurse(i: int, chosen: list[Task]) -> None:
        state["nodes"] += 1
        if state["nodes"] > max_nodes:
            raise ConfigurationError(
                f"offline search exceeded max_nodes={max_nodes}; "
                "reduce the instance size"
            )
        if len(chosen) > state["best"]:
            state["best"] = len(chosen)
            state["best_ids"] = tuple(t.task_id for t in chosen)
        if i == n or len(chosen) + (n - i) <= state["best"]:
            return
        # include order[i] if still feasible (monotone: prune else)
        candidate = chosen + [order[i]]
        state["checks"] += 1
        if edf_packing_feasible(candidate, paths, capacity):
            recurse(i + 1, candidate)
        recurse(i + 1, chosen)

    recurse(0, [])
    return OfflineBound(
        best_count=state["best"],
        best_task_ids=state["best_ids"],
        nodes_explored=state["nodes"],
        feasibility_checks=state["checks"],
    )
