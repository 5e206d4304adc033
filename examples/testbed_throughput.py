#!/usr/bin/env python
"""Regenerate paper Fig. 14: effective throughput over time on the testbed.

Replays the §VI implementation experiment — 100 iperf-style flows on the
8-host partial fat-tree (Fig. 13) — under TAPS and under deadline-oblivious
Fair Sharing (plain TCP knows nothing of deadlines), then prints the
effective-application-throughput trace as sparklines and a small table.

Run:  python examples/testbed_throughput.py
"""

import numpy as np

from repro import Engine, TransmissionLog, make_scheduler
from repro.exp.report import render_timeseries
from repro.sched.fair import FairSharing
from repro.workload.traces import testbed_trace


def main() -> None:
    series = {}
    for name, factory in (
        ("TAPS", lambda: make_scheduler("TAPS")),
        ("Fair Sharing", lambda: FairSharing(quit_on_miss=False)),
    ):
        topology, tasks = testbed_trace()
        log = TransmissionLog(topology)
        result = Engine(topology, tasks, factory(), hooks=(log,)).run()
        series[name] = log.sample(num_points=100)
        met = sum(1 for fs in result.flow_states if fs.met_deadline)
        print(f"{name:14s} flows met {met}/{len(result.flow_states)}, "
              f"run length {result.finished_at * 1e3:.1f} ms")

    print()
    print(render_timeseries(series, title="Fig. 14 — effective application "
                                          "throughput over time"))
    print()

    # a small numeric table, ten buckets
    t_taps, pct_taps = series["TAPS"]
    _, pct_fair = series["Fair Sharing"]
    print("time-bucket means (%):")
    print("  bucket:      " + "  ".join(f"{i:>4d}" for i in range(10)))
    for name, pct in (("TAPS", pct_taps), ("Fair Sharing", pct_fair)):
        buckets = [f"{np.mean(b):4.0f}" for b in np.array_split(pct, 10)]
        print(f"  {name:12s} " + "  ".join(buckets))
    print("\nPaper shape: TAPS ≈ 100% throughout; Fair Sharing unstable, "
          "≈ 60–70%.")


if __name__ == "__main__":
    main()
