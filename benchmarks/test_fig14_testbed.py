"""Paper Fig. 14 — effective application throughput over time, TAPS vs
Fair Sharing, on the partial fat-tree testbed (§VI).

Shapes: TAPS ≈ 100% effective throughput; Fair Sharing unstable and
materially lower (paper: "up to ∼60%").
"""

from benchmarks.conftest import run_once
from repro.exp.figures import run_figure
from repro.exp.report import render_timeseries


def test_fig14_effective_throughput(benchmark, bench_scale, record_table):
    run = run_once(benchmark, lambda: run_figure("fig14", bench_scale))
    record_table("fig14", render_timeseries(run.timeseries, title="fig14"))

    _, taps = run.timeseries["TAPS"]
    _, fair = run.timeseries["Fair Sharing"]
    taps_busy = taps[taps > 0]
    fair_busy = fair[fair > 0]

    assert taps_busy.mean() > 95.0, "TAPS should be near-100% effective"
    assert fair_busy.mean() < taps_busy.mean() - 10.0, \
        "Fair Sharing should trail TAPS materially"
    # Fair Sharing is *unstable*: visible dispersion across the run
    assert fair_busy.std() > 1.0
