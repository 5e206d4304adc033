"""The three benchmark workloads and their set-up.

Each workload is a fixed number of independent TAPS simulations
("instances").  Instance ``i`` of a run with seed ``s`` generates its tasks
with ``WorkloadConfig(seed=s * instances + i)``, so the same seed always
gives the same inputs and two seeds never share an instance.  Running
several instances per seed averages out how much one random draw changes
the controller's work, which is what keeps a metric's median steady
across seeds.

Why each workload exists (see ``BENCHMARK.json`` for the measured split):

``replan``
    Nearly every task is admitted and each arrival re-plans every
    in-flight flow (up to ~200) over ~7 candidate paths: Alg. 2 path
    calculation dominates.  This is where path reuse, the occupancy-union
    cache and the per-accept plan snapshot act.
``fanout``
    A single-rooted tree has one path per host pair, so Alg. 2 never scans
    candidates; large partition-aggregate tasks make many completion and
    slice events, so the engine loop, ``assign_rates`` and ``next_change``
    dominate.  A path-reuse change should show no gain here.
``overload``
    Short deadlines refuse about a quarter of the tasks, so most trials
    are thrown away; clause-3 preemptions exercise the rollback journal
    and four link outages exercise fault rerouting.  It works against any
    cache kept across arrivals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.controller import TapsScheduler
from repro.core.reject import PreemptionPolicy
from repro.net.fattree import FatTree
from repro.net.paths import PathService
from repro.net.topology import Topology
from repro.net.trees import SingleRootedTree
from repro.sim.faults import LinkFault
from repro.workload.flow import Task
from repro.workload.generator import WorkloadConfig, generate_workload


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: topology, task shape, scheduler knobs."""

    name: str
    topology: str  # "fattree-k8" or "tree-8x5x5"
    hosts_used: int | None  # first N hosts carry traffic; None = all
    max_paths: int
    instances: int
    config: dict
    preemption: PreemptionPolicy = PreemptionPolicy.PROGRESS
    faults: tuple[LinkFault, ...] = ()

    def build_topology(self) -> Topology:
        if self.topology == "fattree-k8":
            return FatTree(k=8)
        return SingleRootedTree(servers_per_rack=8, racks_per_pod=5, pods=5)

    def scheduler(self, cls: type[TapsScheduler] = TapsScheduler) -> TapsScheduler:
        return cls(preemption=self.preemption)


def _outage(a: int, b: int, start: float, end: float) -> tuple[LinkFault, ...]:
    """Both directions of one cable down over ``[start, end)``."""
    return (LinkFault(a, start, end), LinkFault(b, start, end))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="replan",
            topology="fattree-k8",
            hosts_used=64,
            max_paths=8,
            instances=16,
            config=dict(num_tasks=60, arrival_rate=2200.0,
                        mean_flows_per_task=8.0, mean_flow_size=300_000.0,
                        mean_deadline=0.38),
        ),
        Workload(
            name="fanout",
            topology="tree-8x5x5",
            hosts_used=None,
            max_paths=8,
            instances=8,
            config=dict(num_tasks=100, arrival_rate=40.0,
                        mean_flows_per_task=80.0, mean_flow_size=200_000.0,
                        mean_deadline=0.1),
        ),
        Workload(
            name="overload",
            topology="fattree-k8",
            hosts_used=64,
            max_paths=8,
            instances=12,
            config=dict(num_tasks=50, arrival_rate=3000.0,
                        mean_flows_per_task=12.0, mean_flow_size=300_000.0,
                        mean_deadline=0.025),
            preemption=PreemptionPolicy.PROSPECTIVE,
            # a0_0<->c0_0 (links 0/1) and e0_2<->a0_1 (links 66/67)
            faults=_outage(0, 1, 0.010, 0.030) + _outage(66, 67, 0.020, 0.040),
        ),
    )
}


@dataclass
class Setup:
    """What one set-up produced, and how long its parts took (raw s)."""

    topology: Topology
    paths: PathService
    instances: list[list[Task]]
    paths_s: float = 0.0
    workload_s: float = 0.0


def set_up(workload: Workload, seed: int) -> Setup:
    """Build the topology, generate every instance's tasks, and warm the
    path service for every endpoint pair they use.

    ``paths_s`` covers the topology and the path warm-up, ``workload_s``
    the task generation.
    """
    t0 = time.perf_counter()
    topo = workload.build_topology()
    hosts = list(topo.hosts)
    if workload.hosts_used is not None:
        hosts = hosts[: workload.hosts_used]
    t1 = time.perf_counter()
    instances = [
        generate_workload(
            WorkloadConfig(seed=seed * workload.instances + i, **workload.config),
            hosts,
        )
        for i in range(workload.instances)
    ]
    t2 = time.perf_counter()
    paths = PathService(topo, max_paths=workload.max_paths)
    for tasks in instances:
        for task in tasks:
            for f in task.flows:
                paths.candidates(f.src, f.dst)
    t3 = time.perf_counter()
    return Setup(
        topology=topo,
        paths=paths,
        instances=instances,
        paths_s=(t1 - t0) + (t3 - t2),
        workload_s=t2 - t1,
    )
