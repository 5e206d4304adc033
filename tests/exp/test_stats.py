"""Seed-level statistics over sweep raw data."""

import pytest

from repro.exp.stats import dominance_fraction, seed_stats, t95
from repro.exp.sweep import SweepResult
from repro.metrics.summary import RunMetrics


def _metrics(scheduler, value):
    return RunMetrics(
        scheduler=scheduler, topology="t", num_tasks=10, num_flows=10,
        tasks_completed=int(value * 10), flows_met=0, flows_rejected=0,
        flows_terminated=0, task_completion_ratio=value,
        flow_completion_ratio=value, application_throughput=value,
        wasted_bandwidth_ratio=0.0, task_wasted_ratio=0.0,
        total_bytes=1.0, useful_bytes=value, wasted_bytes=0.0,
    )


@pytest.fixture
def sweep():
    s = SweepResult(param_name="x", param_values=[1.0, 2.0],
                    schedulers=["A", "B"])
    data = {
        ("A", 1.0, 1): 0.5, ("A", 1.0, 2): 0.7,
        ("A", 2.0, 1): 0.8, ("A", 2.0, 2): 0.6,
        ("B", 1.0, 1): 0.4, ("B", 1.0, 2): 0.5,
        ("B", 2.0, 1): 0.9, ("B", 2.0, 2): 0.5,
    }
    for key, v in data.items():
        s.raw[key] = _metrics(key[0], v)
    return s


def test_t95_values():
    assert t95(1) == pytest.approx(12.706)
    assert t95(10) == pytest.approx(2.228)
    assert t95(100) == pytest.approx(1.96)
    with pytest.raises(ValueError):
        t95(0)


def test_seed_stats_means(sweep):
    stats = seed_stats(sweep, "A", "task_completion_ratio")
    assert stats.n == 2
    assert stats.mean == pytest.approx((0.6, 0.7))


def test_seed_stats_ci_positive_with_spread(sweep):
    stats = seed_stats(sweep, "A", "task_completion_ratio")
    assert all(c > 0 for c in stats.ci95)


def test_seed_stats_unknown_scheduler(sweep):
    with pytest.raises(ValueError):
        seed_stats(sweep, "Z", "task_completion_ratio")


def test_single_seed_zero_ci():
    s = SweepResult(param_name="x", param_values=[1.0], schedulers=["A"])
    s.raw[("A", 1.0, 1)] = _metrics("A", 0.5)
    stats = seed_stats(s, "A", "task_completion_ratio")
    assert stats.ci95 == (0.0,)
    assert stats.std == (0.0,)


def test_dominance_fraction(sweep):
    # A >= B at (1.0,1), (1.0,2), (2.0,2); loses at (2.0,1) → 3/4
    frac = dominance_fraction(sweep, "A", "B", "task_completion_ratio")
    assert frac == pytest.approx(0.75)


def test_dominance_requires_pairs():
    s = SweepResult(param_name="x", param_values=[1.0], schedulers=["A"])
    s.raw[("A", 1.0, 1)] = _metrics("A", 0.5)
    with pytest.raises(ValueError):
        dominance_fraction(s, "A", "B", "task_completion_ratio")


def test_dominance_on_real_sweep():
    """TAPS dominates Fair Sharing at every (point, seed) of a tiny grid."""
    from repro.exp.sweep import run_sweep
    from repro.workload.generator import WorkloadConfig, generate_workload
    from repro.workload.traces import dumbbell

    holder = {}

    def topo():
        return holder.setdefault("t", dumbbell(5))

    def workload(deadline, seed):
        cfg = WorkloadConfig(num_tasks=8, mean_flows_per_task=2,
                             arrival_rate=2.0, mean_flow_size=1.0,
                             min_flow_size=0.2, mean_deadline=deadline,
                             seed=seed)
        return generate_workload(cfg, list(topo().hosts))

    sweep = run_sweep(topo, workload, "mean_deadline", [2.0, 4.0],
                      schedulers=("Fair Sharing", "TAPS"), seeds=(1, 2))
    frac = dominance_fraction(sweep, "TAPS", "Fair Sharing",
                              "task_completion_ratio")
    assert frac == 1.0