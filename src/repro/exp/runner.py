"""One-shot report generation and traced single runs.

``python -m repro report --out results.md`` regenerates each paper figure
at the chosen scale and writes a self-contained markdown report with the
same tables the benchmarks assert on — the quickest way to refresh
EXPERIMENTS.md-style numbers after a change.

:func:`run_traced` is the single-run counterpart behind
``repro-taps run --trace out.jsonl``: one TAPS run on a fat-tree workload
with a :class:`~repro.trace.recorder.TraceRecorder` attached, ready for
``repro-taps audit``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from pathlib import Path

from repro.exp.configs import Scale, SMALL
from repro.exp.executor import ExecutorConfig
from repro.exp.figures import FIGURES, FigureRun, run_figure
from repro.exp.motivation import run_all as run_motivation
from repro.exp.report import render_sweep, render_sweep_with_ci, render_timeseries
from repro.exp.shapes import check_shapes
from repro.trace import TraceRecorder


def figure_markdown(run: FigureRun, scale: Scale, took: float) -> str:
    """One figure's results as a markdown section."""
    lines = [f"## {run.figure_id} — {run.title}",
             "",
             f"*scale: {scale.name}, regenerated in {took:.1f}s*",
             ""]
    if run.notes:
        lines += [f"> {run.notes}", ""]
    if run.sweep is not None:
        multi_seed = len(scale.seeds) > 1
        for metric in run.primary_metrics:
            renderer = render_sweep_with_ci if multi_seed else render_sweep
            lines += ["```", renderer(run.sweep, metric), "```", ""]
        checks = check_shapes(run.figure_id, run.sweep)
        if checks:
            lines.append("Shape claims (see EXPERIMENTS.md):")
            lines.append("")
            for description, holds in checks:
                lines.append(f"- {'✓' if holds else '✗'} {description}")
            lines.append("")
    if run.timeseries:
        lines += ["```", render_timeseries(run.timeseries), "```", ""]
    return "\n".join(lines)


def motivation_markdown() -> str:
    """The Figs. 1–3 worked examples as a markdown section."""
    lines = ["## Motivation examples (paper Figs. 1–3)", ""]
    for fig, outcomes in run_motivation().items():
        lines.append(f"### {fig}")
        lines.append("")
        lines.append("| scheduler | flows met | tasks completed | matches paper |")
        lines.append("|---|---|---|---|")
        for o in outcomes:
            lines.append(
                f"| {o.scheduler} | {o.flows_met} | {o.tasks_completed} | "
                f"{'yes' if o.matches_paper else 'NO'} |"
            )
        lines.append("")
    return "\n".join(lines)


def export_figure_csv(run: FigureRun, csv_dir: str | Path) -> Path | None:
    """Dump a figure's raw per-seed long-format series to ``csv_dir``.

    Returns the written path, or ``None`` for time-series figures (no
    sweep data).  ``repro-taps all/report --csv-dir`` call this per
    figure, matching what ``figure --csv`` writes.
    """
    if run.sweep is None:
        return None
    out_dir = Path(csv_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{run.figure_id}.csv"
    run.sweep.to_csv(out)
    return out


def generate_report(
    out_path: str | Path,
    scale: Scale = SMALL,
    figures: Sequence[str] | None = None,
    executor: ExecutorConfig | None = None,
    csv_dir: str | Path | None = None,
) -> Path:
    """Regenerate figures and write the markdown report; returns the path.

    ``executor`` fans the sweeps out over a process pool and/or the
    result cache; ``csv_dir`` additionally dumps each sweep figure's raw
    per-seed series as ``<csv_dir>/<fig>.csv``.
    """
    selected = sorted(FIGURES) if figures is None else list(figures)
    sections = [
        "# TAPS reproduction — regenerated results",
        "",
        f"Scale: `{scale.name}` "
        f"({scale.num_tasks} tasks × ~{scale.mean_flows_per_task:g} flows, "
        f"seeds {list(scale.seeds)}). "
        "Shapes, not absolute values, are the reproduction target; "
        "see EXPERIMENTS.md.",
        "",
        motivation_markdown(),
    ]
    for fid in selected:
        t0 = time.time()
        run = run_figure(fid, scale, executor)
        sections.append(figure_markdown(run, scale, time.time() - t0))
        if csv_dir is not None:
            export_figure_csv(run, csv_dir)
    out = Path(out_path)
    out.write_text("\n".join(sections))
    return out


def run_traced(
    scale: Scale = SMALL,
    num_tasks: int | None = None,
    seed: int = 7,
    faults=None,
    telemetry=None,
):
    """One TAPS run on the scale's fat-tree with a trace attached.

    Returns ``(result, recorder)`` — the
    :class:`~repro.sim.engine.SimulationResult` and the filled
    :class:`~repro.trace.recorder.TraceRecorder` (export with
    ``recorder.to_jsonl(path)``, check with
    :func:`repro.trace.audit_trace`).  ``telemetry`` (an optional
    :class:`~repro.obs.registry.MetricsRegistry`) additionally collects
    run metrics; export with :func:`write_run_artifacts`.
    """
    from repro.core.controller import TapsScheduler
    from repro.net.paths import PathService
    from repro.sim.engine import Engine
    from repro.workload.generator import generate_workload

    topo = scale.fat_tree()
    overrides: dict = {"seed": seed}
    if num_tasks is not None:
        overrides["num_tasks"] = num_tasks
    cfg = scale.workload_config(**overrides)
    tasks = generate_workload(cfg, list(topo.hosts))
    recorder = TraceRecorder()
    if telemetry is not None:
        telemetry.set_meta(scale=scale.name, seed=seed,
                           num_tasks=len(tasks))
    engine = Engine(
        topo, tasks, TapsScheduler(),
        path_service=PathService(topo, max_paths=scale.max_paths),
        faults=faults, trace=recorder, telemetry=telemetry,
    )
    result = engine.run()
    return result, recorder


#: the files of a ``run --out-dir`` directory, by artifact
RUN_FILES = {"trace": "trace.jsonl", "telemetry": "telemetry.jsonl"}


def run_files(run_dir: str | Path) -> dict[str, Path]:
    """Each artifact's path in the run directory ``run_dir`` — the layout
    :func:`write_run_artifacts` writes and ``repro-taps stats``,
    ``timeline``, ``explain`` and ``diff`` read."""
    return {artifact: Path(run_dir) / name
            for artifact, name in RUN_FILES.items()}


def write_run_artifacts(
    out_dir: str | Path,
    recorder: TraceRecorder | None = None,
    telemetry=None,
) -> dict[str, Path]:
    """Write a run's artifacts into ``out_dir`` and return their paths.

    The layout is :func:`run_files`: the decision trace and the versioned
    telemetry snapshot.  Only the artifacts whose source object was
    supplied are written.
    """
    from repro.obs.export import write_jsonl

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = run_files(out)
    written: dict[str, Path] = {}
    if recorder is not None:
        written["trace"] = recorder.to_jsonl(paths["trace"])
    if telemetry is not None:
        written["telemetry"] = write_jsonl(telemetry, paths["telemetry"])
    return written


def load_run_artifacts(run_dir: str | Path):
    """Read a ``run --out-dir`` bundle back: ``(trace, telemetry)``.

    ``telemetry`` is a :class:`~repro.obs.registry.MetricsRegistry`.
    Either element is ``None`` when its artifact is absent.  ``run_dir``
    may also point directly at a trace file (the ``--trace`` output), in
    which case only the trace side is populated.  This is the loader
    behind ``repro-taps timeline`` / ``explain``.
    """
    from repro.obs.export import load_jsonl as load_telemetry
    from repro.trace.recorder import load_jsonl as load_trace

    target = Path(run_dir)
    files = run_files(target) if target.is_dir() else {"trace": target}
    files = {artifact: p for artifact, p in files.items() if p.exists()}
    trace = load_trace(files["trace"]) if "trace" in files else None
    telemetry = (load_telemetry(files["telemetry"])
                 if "telemetry" in files else None)
    return trace, telemetry
