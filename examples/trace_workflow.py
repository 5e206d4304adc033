#!/usr/bin/env python
"""Trace-driven workflow: generate → save → reload → replay → analyse.

Shows the pieces a study built on this library would use daily:

1. generate a heavy-tailed workload (web-search size CDF instead of the
   paper's normal distribution),
2. save it to a JSON trace and reload it (byte-identical replay),
3. run it under TAPS with a transmission log attached,
4. print the hottest links, split into useful vs wasted bytes.

Run:  python examples/trace_workflow.py
"""

import tempfile
from pathlib import Path

from repro import (
    Engine,
    SingleRootedTree,
    TapsScheduler,
    WorkloadConfig,
    generate_workload,
    load_tasks,
    save_tasks,
    summarize,
)
from repro.metrics import TransmissionLog
from repro.util.units import KB, ms


def main() -> None:
    topology = SingleRootedTree(servers_per_rack=4, racks_per_pod=3, pods=3)
    config = WorkloadConfig(
        num_tasks=30,
        mean_flows_per_task=10,
        arrival_rate=300.0,
        mean_flow_size=200 * KB,
        flow_size_dist="websearch",  # heavy-tailed, not the §V-A normal
        mean_deadline=40 * ms,
        seed=2026,
    )
    tasks = generate_workload(config, list(topology.hosts))

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "websearch.trace.json"
        save_tasks(tasks, trace_path)
        print(f"saved {len(tasks)} tasks "
              f"({trace_path.stat().st_size / 1024:.0f} KiB JSON)")
        replay = load_tasks(trace_path)

    log = TransmissionLog(topology)
    result = Engine(topology, replay, TapsScheduler(), hooks=(log,)).run()
    metrics = summarize(result)

    print(f"\nTAPS on the reloaded trace: "
          f"{metrics.task_completion_ratio:.0%} tasks, "
          f"{metrics.flow_completion_ratio:.0%} flows, "
          f"waste {metrics.wasted_bandwidth_ratio:.1%}")

    print("\nhottest links (bytes carried; all useful under TAPS):")
    print(f"{'link':22s} {'KB total':>9s} {'KB useful':>9s} {'util':>6s}")
    for row in log.hottest(result.finished_at, n=8):
        print(f"{row.src + ' -> ' + row.dst:22s} "
              f"{row.bytes_total / 1024:>9.1f} "
              f"{row.bytes_useful / 1024:>9.1f} "
              f"{row.utilization:>6.1%}")

    heavy = max(f.size for t in replay for f in t.flows)
    light = min(f.size for t in replay for f in t.flows)
    print(f"\nheavy-tail check: largest flow {heavy / 1024:.0f} KB vs "
          f"smallest {light / 1024:.1f} KB "
          f"({heavy / light:.0f}× spread — the paper's normal sizes "
          f"spread ~2×).")


if __name__ == "__main__":
    main()
