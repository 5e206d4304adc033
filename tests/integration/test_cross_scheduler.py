"""Cross-scheduler invariants on realistic workloads.

Every policy, same traffic, one engine: these tests assert the physics
(capacity conservation, progress accounting) and the paper's qualitative
claims that must hold at any load.
"""

import pytest

from repro.metrics.summary import summarize
from repro.net.paths import PathService
from repro.sched.registry import PAPER_ORDER, make_scheduler
from repro.sim.engine import Engine
from repro.sim.state import FlowStatus


@pytest.fixture(scope="module")
def results(request):
    """One run of every scheduler on a shared 36-host workload."""
    from repro.net.trees import SingleRootedTree
    from repro.workload.generator import WorkloadConfig, generate_workload

    topo = SingleRootedTree(servers_per_rack=4, racks_per_pod=3, pods=3)
    cfg = WorkloadConfig(num_tasks=25, mean_flows_per_task=8,
                         arrival_rate=300, seed=11)
    tasks = generate_workload(cfg, list(topo.hosts))
    paths = PathService(topo)
    out = {}
    for name in PAPER_ORDER:
        out[name] = Engine(topo, tasks, make_scheduler(name),
                           path_service=paths).run()
    return out


def test_every_flow_reaches_terminal_state(results):
    for name, result in results.items():
        for fs in result.flow_states:
            assert fs.status in (
                FlowStatus.COMPLETED, FlowStatus.REJECTED, FlowStatus.TERMINATED
            ), f"{name}: flow {fs.flow.flow_id} stuck in {fs.status}"


def test_progress_conservation(results):
    for name, result in results.items():
        for fs in result.flow_states:
            assert fs.bytes_sent + fs.remaining == pytest.approx(
                fs.flow.size, rel=1e-4
            ), f"{name}: flow {fs.flow.flow_id} leaks bytes"


def test_completed_flows_fully_sent(results):
    for name, result in results.items():
        for fs in result.flow_states:
            if fs.status is FlowStatus.COMPLETED:
                assert fs.bytes_sent == pytest.approx(fs.flow.size, rel=1e-4)


def test_task_outcome_consistent_with_flows(results):
    from repro.sim.state import TaskOutcome

    for name, result in results.items():
        for ts in result.task_states:
            all_met = all(fs.met_deadline for fs in ts.flow_states)
            assert (ts.outcome is TaskOutcome.COMPLETED) == all_met, name


def test_taps_leads_task_completion(results):
    metrics = {n: summarize(r) for n, r in results.items()}
    taps = metrics["TAPS"].task_completion_ratio
    for name in ("Fair Sharing", "Baraat", "Varys", "D3", "PDQ"):
        assert taps >= metrics[name].task_completion_ratio - 0.05, (
            f"TAPS {taps:.2f} vs {name} "
            f"{metrics[name].task_completion_ratio:.2f}"
        )


def test_fair_sharing_trails_field(results):
    metrics = {n: summarize(r) for n, r in results.items()}
    fair = metrics["Fair Sharing"].task_completion_ratio
    assert metrics["TAPS"].task_completion_ratio >= fair


def test_admission_schedulers_have_zero_waste(results):
    for name in ("TAPS", "Varys"):
        m = summarize(results[name])
        assert m.wasted_bandwidth_ratio <= 1e-9, name


def test_waste_ordering(results):
    """Fig. 8's robust orderings: Fair Sharing wastes the most; Baraat's
    deadline-agnostic scheduling wastes more than PDQ's ET; admission
    schedulers waste nothing."""
    metrics = {n: summarize(r) for n, r in results.items()}
    waste = {n: m.wasted_bandwidth_ratio for n, m in metrics.items()}
    assert waste["Fair Sharing"] == max(waste.values())
    assert waste["Baraat"] >= waste["PDQ"]
    assert waste["TAPS"] == waste["Varys"] == 0.0


def test_engines_deterministic(results):
    """Replaying a scheduler on the same workload reproduces every metric."""
    from repro.net.trees import SingleRootedTree
    from repro.workload.generator import WorkloadConfig, generate_workload

    topo = SingleRootedTree(servers_per_rack=4, racks_per_pod=3, pods=3)
    cfg = WorkloadConfig(num_tasks=25, mean_flows_per_task=8,
                         arrival_rate=300, seed=11)
    tasks = generate_workload(cfg, list(topo.hosts))
    again = Engine(topo, tasks, make_scheduler("TAPS")).run()
    first = results["TAPS"]
    assert summarize(again).as_dict() == summarize(first).as_dict()


def test_link_capacity_never_oversubscribed():
    """Sampled instantaneous rates never exceed capacity on any link."""
    from repro.net.trees import SingleRootedTree
    from repro.workload.generator import WorkloadConfig, generate_workload

    topo = SingleRootedTree(servers_per_rack=2, racks_per_pod=2, pods=2)
    cfg = WorkloadConfig(num_tasks=12, mean_flows_per_task=4,
                         arrival_rate=500, seed=5)
    tasks = generate_workload(cfg, list(topo.hosts))
    cap = topo.uniform_capacity()

    class LinkAudit:
        def __init__(self):
            self.violations = []

        def on_advance(self, t0, t1, active):
            load = {}
            for fs in active:
                if fs.rate > 0:
                    for link in fs.path:
                        load[link] = load.get(link, 0.0) + fs.rate
            for link, r in load.items():
                if r > cap * (1 + 1e-6):
                    self.violations.append((t0, link, r))

    for name in PAPER_ORDER:
        audit = LinkAudit()
        Engine(topo, tasks, make_scheduler(name), hooks=(audit,)).run()
        assert not audit.violations, f"{name}: {audit.violations[:3]}"
