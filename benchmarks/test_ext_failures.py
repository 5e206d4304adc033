"""Extension — link failures: controller rerouting vs oblivious stalling.

Data-center links fail; an SDN controller is supposed to notice and
reroute (the paper's "dynamic data center network" §III-B goal).  This
bench injects random link outages on a fat-tree and compares TAPS (which
globally reallocates around the outage picture) against PDQ and Fair
Sharing (whose affected flows simply stall until recovery).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.metrics.summary import summarize
from repro.net.fattree import FatTree
from repro.net.paths import PathService
from repro.sched.registry import make_scheduler
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.workload.generator import generate_workload


def _random_faults(topo, horizon, n_faults, mean_outage, rng):
    """Fail random switch-to-switch links (hosts keep their access links,
    so every endpoint stays attachable)."""
    switch_set = set(topo.switches)
    core_links = [
        link.index for link in topo.links
        if link.src in switch_set and link.dst in switch_set
    ]
    picks = rng.choice(len(core_links), size=n_faults, replace=False)
    faults = []
    for i in picks:
        start = float(rng.uniform(0, horizon * 0.7))
        length = float(rng.exponential(mean_outage))
        faults.append(LinkFault(core_links[i], start, start + max(length, 1e-4)))
    return faults


def test_ext_link_failures(benchmark, bench_scale, record_table):
    topo = FatTree(4)
    paths = PathService(topo, max_paths=bench_scale.max_paths)
    cfg = bench_scale.workload_config(num_tasks=40, mean_flows_per_task=6,
                                      seed=47)
    tasks = generate_workload(cfg, list(topo.hosts))
    horizon = max(t.deadline for t in tasks)
    rng = np.random.default_rng(7)
    faults = _random_faults(topo, horizon, n_faults=8,
                            mean_outage=horizon / 3, rng=rng)

    schedulers = ("Fair Sharing", "PDQ", "TAPS")

    def run_all():
        out = {}
        for name in schedulers:
            clean = summarize(Engine(topo, tasks, make_scheduler(name),
                                     path_service=paths).run())
            faulty = summarize(Engine(topo, tasks, make_scheduler(name),
                                      path_service=paths,
                                      faults=faults).run())
            out[name] = (clean, faulty)
        return out

    results = run_once(benchmark, run_all)

    lines = ["link failures (8 random core-link outages on fat-tree k=4):",
             "  scheduler      clean  faulty  drop"]
    for name, (clean, faulty) in results.items():
        drop = clean.task_completion_ratio - faulty.task_completion_ratio
        lines.append(
            f"  {name:13s} {clean.task_completion_ratio:.3f}  "
            f"{faulty.task_completion_ratio:.3f}  {drop:+.3f}"
        )
    record_table("ext_failures", "\n".join(lines))

    faulty_ratios = {n: r[1].task_completion_ratio for n, r in results.items()}
    # rerouting keeps TAPS on top under failures
    assert faulty_ratios["TAPS"] == max(faulty_ratios.values())
    # and TAPS degrades no more than the oblivious schedulers degrade
    taps_drop = (results["TAPS"][0].task_completion_ratio
                 - results["TAPS"][1].task_completion_ratio)
    fair_drop = (results["Fair Sharing"][0].task_completion_ratio
                 - results["Fair Sharing"][1].task_completion_ratio)
    assert taps_drop <= fair_drop + 0.1
