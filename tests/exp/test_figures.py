"""Figure runners at a test-sized scale: structure + headline shapes.

Full-fidelity shape assertions (orderings across all nine sweep points)
live in the benchmarks; here a micro scale verifies the machinery and the
robust claims (TAPS wins on average, waste ordering).
"""

import pytest

from repro.exp.configs import Scale
from repro.exp.figures import FIGURES, run_figure
from repro.util.errors import ConfigurationError

#: micro scale: one-second figure runs for CI
MICRO = Scale(
    name="micro",
    servers_per_rack=2,
    racks_per_pod=2,
    pods=2,
    fat_tree_k=4,
    num_tasks=10,
    mean_flows_per_task=4,
    arrival_rate=300.0,
    seeds=(1,),
)


@pytest.fixture(scope="module")
def fig6_run():
    return run_figure("fig6", MICRO)


def test_unknown_figure_rejected():
    with pytest.raises(ConfigurationError):
        run_figure("fig99")


def test_registry_covers_paper_evaluation():
    assert set(FIGURES) == {
        "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig14"
    }


def test_fig6_structure(fig6_run):
    sweep = fig6_run.sweep
    assert sweep is not None
    assert sweep.param_name == "mean_deadline"
    assert len(sweep.param_values) == 9
    assert set(sweep.schedulers) == {
        "Fair Sharing", "D3", "PDQ", "Baraat", "Varys", "TAPS"
    }


def test_fig6_taps_wins_on_average(fig6_run):
    sweep = fig6_run.sweep
    taps = sweep.mean_over_values("TAPS", "task_completion_ratio")
    for other in ("Fair Sharing", "Baraat", "Varys"):
        assert taps >= sweep.mean_over_values(other, "task_completion_ratio")


def test_fig6_curves_rise_with_deadline(fig6_run):
    sweep = fig6_run.sweep
    for sched in sweep.schedulers:
        series = sweep.series[sched]["task_completion_ratio"]
        assert series[-1] >= series[0] - 0.15  # allow sampling noise


def test_fig8_reuses_fig6_series(fig6_run):
    run8 = run_figure("fig8", MICRO)
    assert run8.sweep is not None
    assert run8.primary_metrics == ("wasted_bandwidth_ratio",)
    # Varys/TAPS reject-before-transmit → (near-)zero waste
    assert run8.sweep.mean_over_values("TAPS", "wasted_bandwidth_ratio") \
        <= 1e-9
    assert run8.sweep.mean_over_values("Varys", "wasted_bandwidth_ratio") \
        <= 1e-9


def test_fig7_runs_on_fat_tree():
    run = run_figure("fig7", MICRO)
    assert run.sweep is not None
    # TAPS at least matches the field on the multi-rooted topology
    taps = run.sweep.mean_over_values("TAPS", "task_completion_ratio")
    fair = run.sweep.mean_over_values("Fair Sharing", "task_completion_ratio")
    assert taps >= fair


def test_fig9_sweeps_flow_size():
    run = run_figure("fig9", MICRO)
    assert run.sweep.param_name == "mean_flow_size"
    # completion falls (or at least does not rise) as flows grow
    for sched in run.sweep.schedulers:
        s = run.sweep.series[sched]["task_completion_ratio"]
        assert s[0] >= s[-1] - 0.15


def test_fig10_single_flow_tasks():
    run = run_figure("fig10", MICRO)
    sweep = run.sweep
    # task ≡ flow ⇒ both ratios coincide for every scheduler and value
    for sched in sweep.schedulers:
        t = sweep.series[sched]["task_completion_ratio"]
        f = sweep.series[sched]["flow_completion_ratio"]
        assert t == pytest.approx(f, abs=1e-9)


def test_fig11_rescales_x_axis():
    run = run_figure("fig11", MICRO)
    values = run.sweep.param_values
    # paper 400..2000 at default 1200 → ratios ⅓..1⅔ of the micro default 4
    assert values[0] == pytest.approx(round(4 * 400 / 1200))
    assert values[-1] == pytest.approx(round(4 * 2000 / 1200))


def test_fig12_task_count_sweep():
    run = run_figure("fig12", MICRO)
    assert run.sweep.param_values == [30, 60, 90, 120, 150, 180, 210, 240, 270]


def test_fig14_timeseries():
    run = run_figure("fig14", MICRO)
    assert set(run.timeseries) == {"TAPS", "Fair Sharing"}
    t_taps, pct_taps = run.timeseries["TAPS"]
    t_fs, pct_fs = run.timeseries["Fair Sharing"]
    assert len(pct_taps) == len(pct_fs) == 100
    # headline: TAPS ~100% effective, Fair Sharing materially lower
    busy_taps = pct_taps[pct_taps > 0]
    busy_fs = pct_fs[pct_fs > 0]
    assert busy_taps.mean() > 95.0
    assert busy_fs.mean() < busy_taps.mean() - 10.0
