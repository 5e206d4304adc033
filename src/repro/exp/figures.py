"""One runner per paper figure (§V–§VI).

``run_figure("fig6", scale=SMALL)`` regenerates the series behind paper
Fig. 6, etc.  Each runner documents the paper's sweep and how the scaled
x-axis maps onto it; see DESIGN.md §3 for the full experiment index.

Sweep figures are declared as :class:`~repro.exp.sweep.SweepGrid`
instances, so every runner accepts an optional
:class:`~repro.exp.executor.ExecutorConfig` and can fan its grid out
over a process pool and/or the on-disk result cache (``repro-taps
figure --jobs/--cache-dir``); results are bit-identical to a serial
run.  Fig. 14 is a time-series replay of two single runs and executes
in-process regardless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exp.configs import SMALL, Scale
from repro.exp.executor import ExecutorConfig
from repro.exp.sweep import SweepGrid, SweepResult, run_sweep_grid
from repro.metrics.transmission import TransmissionLog
from repro.sched.registry import make_scheduler
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError
from repro.util.units import KB, ms
from repro.workload.traces import testbed_trace


@dataclass(slots=True)
class FigureRun:
    """Result of regenerating one figure.

    ``sweep`` holds scheduler series for sweep figures; ``timeseries``
    holds ``{scheduler: (times, effective_pct)}`` for Fig. 14.
    """

    figure_id: str
    title: str
    primary_metrics: tuple[str, ...]
    sweep: SweepResult | None = None
    timeseries: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    notes: str = ""


def _deadline_values() -> tuple[float, ...]:
    return tuple(x * ms for x in (20, 25, 30, 35, 40, 45, 50, 55, 60))


def _size_values() -> tuple[float, ...]:
    return tuple(x * KB for x in (60, 90, 120, 150, 180, 210, 240, 270, 300))


# --- individual figures -------------------------------------------------------


def fig6(scale: Scale, executor: ExecutorConfig | None = None) -> FigureRun:
    """Fig. 6: application throughput & task completion ratio vs mean
    deadline (20–60 ms), single-rooted tree."""
    grid = SweepGrid(
        topology=scale.single_rooted_spec(),
        base_workload=scale.workload_config(),
        param_name="mean_deadline",
        param_values=_deadline_values(),
        seeds=scale.seeds,
        max_paths=scale.max_paths,
    )
    return FigureRun(
        "fig6",
        "Varying deadline, single-rooted tree",
        ("application_throughput", "task_completion_ratio"),
        sweep=run_sweep_grid(grid, executor),
    )


def fig7(scale: Scale, executor: ExecutorConfig | None = None) -> FigureRun:
    """Fig. 7: task completion ratio vs mean deadline, fat-tree
    (multi-rooted; baselines use flow-level ECMP, §V-A)."""
    grid = SweepGrid(
        topology=scale.fat_tree_spec(),
        base_workload=scale.workload_config(),
        param_name="mean_deadline",
        param_values=_deadline_values(),
        seeds=scale.seeds,
        max_paths=scale.max_paths,
    )
    return FigureRun(
        "fig7",
        "Varying deadline, multi-rooted fat-tree",
        ("task_completion_ratio",),
        sweep=run_sweep_grid(grid, executor),
    )


def fig8(scale: Scale, executor: ExecutorConfig | None = None) -> FigureRun:
    """Fig. 8: wasted bandwidth ratio vs mean deadline (single-rooted).

    The paper shows (a) all algorithms and (b) the same data without Fair
    Sharing, whose waste dwarfs the rest; both views read off the same
    sweep here.
    """
    run = fig6(scale, executor)
    assert run.sweep is not None
    return FigureRun(
        "fig8",
        "Wasted bandwidth vs deadline",
        ("wasted_bandwidth_ratio",),
        sweep=run.sweep,
        notes="(a) includes Fair Sharing; (b) excludes it — same series.",
    )


def fig9(scale: Scale, executor: ExecutorConfig | None = None) -> FigureRun:
    """Fig. 9: application throughput & task completion ratio vs mean flow
    size (60–300 KB), single-rooted tree."""
    grid = SweepGrid(
        topology=scale.single_rooted_spec(),
        base_workload=scale.workload_config(),
        param_name="mean_flow_size",
        param_values=_size_values(),
        seeds=scale.seeds,
        max_paths=scale.max_paths,
    )
    return FigureRun(
        "fig9",
        "Varying flow size, single-rooted tree",
        ("application_throughput", "task_completion_ratio"),
        sweep=run_sweep_grid(grid, executor),
    )


def fig10(scale: Scale, executor: ExecutorConfig | None = None) -> FigureRun:
    """Fig. 10: *flow* completion ratio with single-flow tasks (task ≡
    flow), varying flow size.

    The paper uses 36,000 single-flow tasks; scaled runs use
    ``num_tasks × mean_flows_per_task`` single-flow tasks so the offered
    load matches the other figures at the same scale.
    """
    n_tasks = int(scale.num_tasks * scale.mean_flows_per_task)
    grid = SweepGrid(
        topology=scale.single_rooted_spec(),
        base_workload=scale.workload_config(
            num_tasks=n_tasks,
            mean_flows_per_task=1,
            flows_per_task_dist="constant",
            arrival_rate=scale.arrival_rate * scale.mean_flows_per_task,
        ),
        param_name="mean_flow_size",
        param_values=_size_values(),
        seeds=scale.seeds,
        max_paths=scale.max_paths,
    )
    return FigureRun(
        "fig10",
        "Single-flow tasks: flow completion ratio vs flow size",
        ("flow_completion_ratio",),
        sweep=run_sweep_grid(grid, executor),
    )


def fig11(scale: Scale, executor: ExecutorConfig | None = None) -> FigureRun:
    """Fig. 11: task completion ratio vs flows per task.

    Paper sweeps 400–2000 flows/task (default 1200); scaled runs sweep the
    same *ratios* of the scale's default (⅓×…1⅔×), so the x-axis maps
    linearly onto the paper's.
    """
    ratios = [r / 1200 for r in (400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000)]
    values = tuple(
        max(1.0, round(r * scale.mean_flows_per_task)) for r in ratios
    )
    grid = SweepGrid(
        topology=scale.single_rooted_spec(),
        base_workload=scale.workload_config(),
        param_name="mean_flows_per_task",
        param_values=values,
        seeds=scale.seeds,
        max_paths=scale.max_paths,
    )
    return FigureRun(
        "fig11",
        "Varying flows per task (task diffusion)",
        ("task_completion_ratio",),
        sweep=run_sweep_grid(grid, executor),
        notes="x values are paper's 400…2000 rescaled by the scale's default.",
    )


def fig12(scale: Scale, executor: ExecutorConfig | None = None) -> FigureRun:
    """Fig. 12: task completion ratio vs task count (30–270, as paper)."""
    grid = SweepGrid(
        topology=scale.single_rooted_spec(),
        base_workload=scale.workload_config(),
        param_name="num_tasks",
        param_values=(30, 60, 90, 120, 150, 180, 210, 240, 270),
        seeds=scale.seeds,
        max_paths=scale.max_paths,
    )
    return FigureRun(
        "fig12",
        "Varying task count (task diffusion)",
        ("task_completion_ratio",),
        sweep=run_sweep_grid(grid, executor),
    )


def fig14(scale: Scale, executor: ExecutorConfig | None = None) -> FigureRun:
    """Fig. 14: effective application throughput over time on the testbed
    partial fat-tree — TAPS vs Fair Sharing, 100 flows (§VI).

    Fair Sharing runs deadline-oblivious here (plain TCP on the testbed
    knows nothing of deadlines), so doomed flows pollute goodput for
    their whole lifetime — reproducing the paper's ~60% trace against
    TAPS' ~100%.  Time-series replay needs the flow-state timeline, not
    just scalar metrics, so this figure ignores ``executor`` and runs
    in-process.
    """
    from repro.sched.fair import FairSharing

    schedulers = {
        "TAPS": lambda: make_scheduler("TAPS"),
        "Fair Sharing": lambda: FairSharing(quit_on_miss=False),
    }
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, factory in schedulers.items():
        topo, tasks = testbed_trace(seed=scale.seeds[0])
        log = TransmissionLog(topo)
        Engine(topo, tasks, factory(), hooks=(log,)).run()
        series[name] = log.sample(num_points=100)
    return FigureRun(
        "fig14",
        "Testbed: effective application throughput over time",
        ("effective_throughput_pct",),
        timeseries=series,
        notes="Effective % = useful fraction of the instantaneous transmit rate.",
    )


FIGURES = {
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig14": fig14,
}


def run_figure(
    figure_id: str,
    scale: Scale = SMALL,
    executor: ExecutorConfig | None = None,
) -> FigureRun:
    """Regenerate one paper figure at the given scale."""
    try:
        runner = FIGURES[figure_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; known: {sorted(FIGURES)}"
        ) from None
    return runner(scale, executor)
