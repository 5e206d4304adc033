"""ASCII report rendering."""

import numpy as np

from repro.exp.report import render_summary_line, render_sweep, render_timeseries
from repro.exp.sweep import SweepResult


def _sweep():
    s = SweepResult(
        param_name="mean_deadline",
        param_values=[0.02, 0.04],
        schedulers=["TAPS", "Fair Sharing"],
    )
    metrics = ["task_completion_ratio", "flow_completion_ratio",
               "application_throughput", "wasted_bandwidth_ratio",
               "task_wasted_ratio"]
    s.series = {
        "TAPS": {m: [0.9, 0.95] for m in metrics},
        "Fair Sharing": {m: [0.3, 0.4] for m in metrics},
    }
    return s


def test_render_sweep_has_all_rows():
    out = render_sweep(_sweep(), "task_completion_ratio", title="T")
    assert "T" in out
    assert "TAPS" in out and "Fair Sharing" in out
    assert "20ms" in out and "40ms" in out
    assert "0.900" in out and "0.300" in out


def test_render_sweep_exclude():
    out = render_sweep(_sweep(), "task_completion_ratio",
                       exclude=("Fair Sharing",))
    assert "Fair Sharing" not in out


def test_render_sweep_size_units():
    s = _sweep()
    s.param_name = "mean_flow_size"
    s.param_values = [60e3, 300e3]
    out = render_sweep(s, "task_completion_ratio")
    assert "60KB" in out and "300KB" in out


def test_render_sweep_plain_numbers():
    s = _sweep()
    s.param_name = "num_tasks"
    s.param_values = [30, 270]
    out = render_sweep(s, "task_completion_ratio")
    assert "30" in out and "270" in out


def test_render_timeseries_sparklines():
    series = {
        "TAPS": (np.linspace(0, 1, 50), np.full(50, 100.0)),
        "Fair Sharing": (np.linspace(0, 1, 50), np.full(50, 60.0)),
    }
    out = render_timeseries(series, title="fig14")
    assert "fig14" in out
    assert "TAPS" in out
    assert "mean=100%" in out
    assert "mean=60%" in out


def test_render_timeseries_empty():
    out = render_timeseries({"X": (np.zeros(0), np.zeros(0))})
    assert "no data" in out


def test_render_summary_line():
    out = render_summary_line(_sweep(), "task_completion_ratio")
    assert out.startswith("task_completion_ratio:")
    assert "TAPS=0.925" in out


def test_render_sweep_with_ci_multi_seed():
    from repro.exp.report import render_sweep_with_ci
    from repro.metrics.summary import RunMetrics

    s = _sweep()

    def _m(v):
        return RunMetrics(
            scheduler="TAPS", topology="t", num_tasks=1, num_flows=1,
            tasks_completed=0, flows_met=0, flows_rejected=0,
            flows_terminated=0, task_completion_ratio=v,
            flow_completion_ratio=v, application_throughput=v,
            wasted_bandwidth_ratio=0.0, task_wasted_ratio=0.0,
            total_bytes=1.0, useful_bytes=v, wasted_bytes=0.0,
        )

    for value in s.param_values:
        for seed, v in ((1, 0.8), (2, 1.0)):
            s.raw[("TAPS", value, seed)] = _m(v)
            s.raw[("Fair Sharing", value, seed)] = _m(v / 2)
    out = render_sweep_with_ci(s, "task_completion_ratio", title="ci")
    assert "±" in out
    assert "0.900" in out  # the mean of 0.8 and 1.0


def test_render_sweep_with_ci_single_seed_plain():
    from repro.exp.report import render_sweep_with_ci
    from repro.metrics.summary import RunMetrics

    s = _sweep()
    for value in s.param_values:
        s.raw[("TAPS", value, 1)] = RunMetrics(
            scheduler="TAPS", topology="t", num_tasks=1, num_flows=1,
            tasks_completed=0, flows_met=0, flows_rejected=0,
            flows_terminated=0, task_completion_ratio=0.5,
            flow_completion_ratio=0.5, application_throughput=0.5,
            wasted_bandwidth_ratio=0.0, task_wasted_ratio=0.0,
            total_bytes=1.0, useful_bytes=0.5, wasted_bytes=0.0,
        )
    out = render_sweep_with_ci(s, "task_completion_ratio",
                               exclude=("Fair Sharing",))
    # the "±" appears only in the header, not in single-seed data rows
    data_rows = [line for line in out.splitlines() if line.lstrip().startswith("TAPS")]
    assert data_rows and all("±" not in row for row in data_rows)
