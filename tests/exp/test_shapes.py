"""Shape-claim registry."""

from repro.exp.shapes import SHAPES, check_shapes
from repro.exp.sweep import SweepResult


def _sweep(series):
    s = SweepResult(param_name="x", param_values=[1.0, 2.0],
                    schedulers=list(series))
    metrics = ["task_completion_ratio", "flow_completion_ratio",
               "wasted_bandwidth_ratio"]
    s.series = {
        sched: {m: vals.get(m, [0.0, 0.0]) for m in metrics}
        for sched, vals in series.items()
    }
    return s


def test_every_sweep_figure_has_claims():
    for fid in ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"):
        assert SHAPES[fid], fid


def test_taps_leads_claim():
    good = _sweep({
        "TAPS": {"task_completion_ratio": [0.8, 0.9]},
        "Fair Sharing": {"task_completion_ratio": [0.3, 0.4]},
    })
    results = dict(check_shapes("fig6", good))
    assert results["TAPS leads every scheduler on mean task_completion_ratio"]

    bad = _sweep({
        "TAPS": {"task_completion_ratio": [0.3, 0.4]},
        "Fair Sharing": {"task_completion_ratio": [0.8, 0.9]},
    })
    results = dict(check_shapes("fig6", bad))
    assert not results[
        "TAPS leads every scheduler on mean task_completion_ratio"
    ]


def test_trend_claims():
    rising = _sweep({"TAPS": {"task_completion_ratio": [0.2, 0.9]}})
    falling = _sweep({"TAPS": {"task_completion_ratio": [0.9, 0.2]}})
    assert dict(check_shapes("fig6", rising))[
        "every scheduler's task_completion_ratio rises along the sweep"
    ]
    assert not dict(check_shapes("fig6", falling))[
        "every scheduler's task_completion_ratio rises along the sweep"
    ]
    # fig9 expects the opposite trend
    assert dict(check_shapes("fig9", falling))[
        "every scheduler's task_completion_ratio falls along the sweep"
    ]


def test_waste_claims():
    s = _sweep({
        "Fair Sharing": {"wasted_bandwidth_ratio": [0.2, 0.2]},
        "TAPS": {"wasted_bandwidth_ratio": [0.0, 0.0]},
        "Varys": {"wasted_bandwidth_ratio": [0.0, 0.0]},
    })
    results = dict(check_shapes("fig8", s))
    assert all(results.values())


def test_unknown_figure_no_claims():
    assert check_shapes("fig99", _sweep({"TAPS": {}})) == []


def test_small_scale_fig12_claims_hold_end_to_end():
    """The registry agrees with the benchmarks on a real (micro) run."""
    from repro.exp.configs import Scale
    from repro.exp.figures import run_figure

    micro = Scale(name="micro-shapes", servers_per_rack=2, racks_per_pod=2,
                  pods=2, fat_tree_k=4, num_tasks=8, mean_flows_per_task=3,
                  arrival_rate=300.0, seeds=(1,))
    run = run_figure("fig12", micro)
    checks = check_shapes("fig12", run.sweep)
    assert checks
    assert all(holds for _, holds in checks)
