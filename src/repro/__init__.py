"""Reproduction of *TAPS: Software Defined Task-level Deadline-aware
Preemptive Flow Scheduling in Data Centers* (Liu, Li, Wu — ICPP 2015).

Quickstart
----------
>>> from repro import SingleRootedTree, WorkloadConfig, generate_workload
>>> from repro import Engine, TapsScheduler, summarize
>>> topo = SingleRootedTree(servers_per_rack=4, racks_per_pod=3, pods=3)
>>> tasks = generate_workload(WorkloadConfig(num_tasks=10), list(topo.hosts))
>>> result = Engine(topo, tasks, TapsScheduler()).run()
>>> metrics = summarize(result)
>>> 0.0 <= metrics.task_completion_ratio <= 1.0
True

Package map
-----------
``repro.core``      TAPS controller (the paper's contribution, Alg. 1–3)
``repro.sched``     the five baselines (Fair Sharing, D3, PDQ, Baraat, Varys)
``repro.net``       topologies, links, paths, ECMP
``repro.workload``  flows, tasks, trace generators
``repro.sim``       the fluid flow-level simulation engine
``repro.metrics``   completion ratios, throughput, waste, time series
``repro.sdn``       controller/server/switch message-level protocol model
``repro.trace``     decision-trace events, recorder, invariant auditor
``repro.exp``       one experiment runner per paper table/figure
``repro.nphard``    the §IV-B Hamiltonian-circuit reduction, executable
"""

from repro.core import TapsScheduler, PreemptionPolicy
from repro.metrics import RunMetrics, TransmissionLog, summarize
from repro.net import (
    BCube,
    FatTree,
    FiConn,
    PartialFatTreeTestbed,
    PathService,
    SingleRootedTree,
    Topology,
)
from repro.sched import (
    Baraat,
    D2TCP,
    D3,
    FairSharing,
    PDQ,
    Scheduler,
    Varys,
    make_scheduler,
)
from repro.sim import (
    Engine,
    FaultSchedule,
    FlowStatus,
    LinkFault,
    SimulationResult,
    TaskOutcome,
)
from repro.trace import AuditReport, TraceRecorder, audit_trace, load_jsonl
from repro.util import IntervalSet
from repro.viz import render_flow_gantt, render_link_gantt
from repro.workload import (
    Flow,
    Task,
    WorkloadConfig,
    generate_workload,
    load_tasks,
    save_tasks,
)

__version__ = "1.0.0"

__all__ = [
    "TapsScheduler",
    "PreemptionPolicy",
    "RunMetrics",
    "TransmissionLog",
    "summarize",
    "BCube",
    "FatTree",
    "FiConn",
    "PartialFatTreeTestbed",
    "PathService",
    "SingleRootedTree",
    "Topology",
    "Baraat",
    "D2TCP",
    "D3",
    "FairSharing",
    "PDQ",
    "Scheduler",
    "Varys",
    "make_scheduler",
    "Engine",
    "FaultSchedule",
    "LinkFault",
    "FlowStatus",
    "SimulationResult",
    "TaskOutcome",
    "AuditReport",
    "TraceRecorder",
    "audit_trace",
    "load_jsonl",
    "IntervalSet",
    "render_flow_gantt",
    "render_link_gantt",
    "Flow",
    "Task",
    "WorkloadConfig",
    "generate_workload",
    "load_tasks",
    "save_tasks",
    "__version__",
]
