"""Command-line entry point: ``repro-taps`` / ``python -m repro``.

Subcommands::

    repro-taps motivation            # replay paper Figs. 1–3
    repro-taps figure fig6           # regenerate a figure's series
    repro-taps figure fig6 --scale medium --jobs 4
    repro-taps all --scale small     # every figure, printed as tables
    repro-taps report --jobs 0 --csv-dir out/   # full repro, all cores
    repro-taps nphard                # demo the §IV-B reduction
    repro-taps zoo                   # TAPS on tree/fat-tree/BCube/FiConn
    repro-taps optimality            # online TAPS vs the offline bound
    repro-taps run --trace out.jsonl # one traced TAPS run (fat-tree)
    repro-taps run --out-dir run1/   # run + telemetry artifacts in run1/
    repro-taps stats run1/           # inspect a run from its artifacts
    repro-taps stats run1/ --json    # same, machine-readable
    repro-taps audit out.jsonl       # replay a trace against invariants
    repro-taps timeline run1/        # export Perfetto-viewable chrome trace
    repro-taps explain run1/ --task 17   # why was task 17 refused?
    repro-taps diff run1/ run2/      # regression diff of two bundles

``figure``, ``all``, ``zoo``, and ``report`` accept ``--jobs N`` (fan
independent sweep points over N worker processes; 0 = one per CPU),
``--cache-dir DIR`` / ``--no-cache`` (content-addressed on-disk result
cache, default ``~/.cache/repro-taps``), and — for ``all``/``report`` —
``--csv-dir DIR`` to dump each figure's raw per-seed series.  Results
are bit-identical across job counts and cache states; the run footer
reports cache hits/misses/invalidations.

Figures print the same rows/series the paper reports; absolute values
differ (simulated substrate, scaled topology) but orderings and trends
should match — see EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exp.configs import SCALES
from repro.exp.executor import ExecutorConfig, make_executor
from repro.exp.figures import FIGURES, run_figure
from repro.exp.motivation import run_all
from repro.exp.report import render_sweep, render_timeseries
from repro.exp.runner import (
    RUN_FILES,
    export_figure_csv,
    generate_report,
    run_files,
    run_traced,
    write_run_artifacts,
)


def _at_least(low: float, kind=int):
    """An argparse ``type`` that parses ``kind`` and refuses values below
    ``low`` with a usage error (exit 2)."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:  # also refuses a float NaN
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type on a bad parse
    return parse


def _executor_from_args(args) -> ExecutorConfig:
    """``--jobs/--cache-dir/--no-cache`` → an ExecutorConfig."""
    return make_executor(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )


def _add_executor_args(parser) -> None:
    parser.add_argument(
        "--jobs", type=_at_least(0), default=None, metavar="N",
        help="fan sweep points out over N worker processes "
             "(default: serial; 0 = one per CPU)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: ~/.cache/repro-taps)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point; skip the on-disk result cache")


def _print_cache_footer(executor: ExecutorConfig) -> None:
    """One greppable stats line per run — CI asserts on it."""
    if executor.cache is not None:
        print(f"{executor.cache.stats.line()} ({executor.cache.root})")


def _cmd_motivation(_args) -> int:
    for fig, outcomes in run_all().items():
        print(f"== {fig} ==")
        for o in outcomes:
            ref = (
                f"(paper: {o.paper_flows} flows / {o.paper_tasks} tasks)"
                if o.paper_flows is not None
                else "(paper: see docstring)"
            )
            mark = "ok" if o.matches_paper else "MISMATCH"
            print(
                f"  {o.scheduler:14s} {o.flows_met} flows / "
                f"{o.tasks_completed} tasks  {ref} [{mark}]"
            )
    return 0


def _print_figure(figure_id: str, scale_name: str,
                  executor: ExecutorConfig | None = None):
    scale = SCALES[scale_name]
    t0 = time.time()
    run = run_figure(figure_id, scale, executor)
    took = time.time() - t0
    print(f"== {run.figure_id}: {run.title} (scale={scale_name}, {took:.1f}s) ==")
    if run.notes:
        print(f"   {run.notes}")
    if run.sweep is not None:
        for metric in run.primary_metrics:
            print(render_sweep(run.sweep, metric))
            print()
    if run.timeseries:
        print(render_timeseries(run.timeseries))
        print()
    return run


def _cmd_figure(args) -> int:
    executor = _executor_from_args(args)
    run = _print_figure(args.figure, args.scale, executor)
    if args.csv is not None:
        if run.sweep is None:
            print(f"(no sweep data for {args.figure}; csv skipped)")
        else:
            run.sweep.to_csv(args.csv)
            print(f"wrote {args.csv}")
    _print_cache_footer(executor)
    return 0


def _cmd_all(args) -> int:
    executor = _executor_from_args(args)
    for fid in sorted(FIGURES):
        run = _print_figure(fid, args.scale, executor)
        if args.csv_dir is not None:
            out = export_figure_csv(run, args.csv_dir)
            if out is not None:
                print(f"wrote {out}")
    _print_cache_footer(executor)
    return 0


def _cmd_nphard(_args) -> int:
    import networkx as nx

    from repro.nphard import (
        build_instance,
        has_hamiltonian_circuit,
        schedulable_subset_exists,
    )

    cases = {
        "C5 (cycle)": nx.cycle_graph(5),
        "P4 (path)": nx.path_graph(4),
        "K4 (complete)": nx.complete_graph(4),
        "K4 minus an edge": nx.complete_graph(4),
    }
    cases["K4 minus an edge"].remove_edge(0, 1)
    print("graph                schedulable(n tasks)   hamiltonian circuit")
    for name, g in cases.items():
        tasks = build_instance(g)
        sched = schedulable_subset_exists(tasks, g.number_of_nodes())
        ham = has_hamiltonian_circuit(g)
        print(f"{name:20s} {str(sched):22s} {ham}")
    return 0


def _cmd_zoo(args) -> int:
    from repro.exp.configs import SCALES
    from repro.exp.executor import (
        SimJob,
        build_topology,
        execute_jobs,
        topology_spec,
    )

    scale = SCALES[args.scale]
    executor = _executor_from_args(args)
    topologies = {
        "single-rooted": topology_spec(
            "single_rooted", servers_per_rack=2, racks_per_pod=2, pods=4
        ),
        "fat-tree k=4": topology_spec("fat_tree", k=4),
        "bcube n=4 k=1": topology_spec("bcube", n=4, k=1),
        "ficonn n=4 k=1": topology_spec("ficonn", n=4, k=1),
    }
    jobs, host_counts = [], []
    for spec in topologies.values():
        # host count sizes the workload; the build is memoized so serial
        # runs (and forked workers) reuse it
        n_hosts = len(build_topology(spec, scale.max_paths).hosts)
        host_counts.append(n_hosts)
        jobs.append(SimJob(
            topology=spec,
            workload=scale.workload_config(
                num_tasks=2 * n_hosts, mean_flows_per_task=4, seed=41
            ),
            scheduler="TAPS",
            max_paths=scale.max_paths,
        ))
    metrics = execute_jobs(jobs, executor)
    print("TAPS across the paper's cited architectures (§II):")
    print(f"{'topology':16s} {'hosts':>5s} {'task ratio':>10s} "
          f"{'flow ratio':>10s} {'waste':>6s}")
    for label, n_hosts, m in zip(topologies, host_counts, metrics):
        print(f"{label:16s} {n_hosts:>5d} {m.task_completion_ratio:>10.3f} "
              f"{m.flow_completion_ratio:>10.3f} {m.wasted_bandwidth_ratio:>6.3f}")
    _print_cache_footer(executor)
    return 0


def _cmd_optimality(args) -> int:
    from repro.core.controller import TapsScheduler
    from repro.core.optimal import offline_best_subset
    from repro.net.paths import PathService
    from repro.sim.engine import Engine
    from repro.workload.generator import WorkloadConfig, generate_workload
    from repro.workload.traces import dumbbell

    topo = dumbbell(6)
    paths = PathService(topo)
    print("online TAPS vs offline EDF-packing optimum "
          f"({args.instances} random 9-task instances):")
    print("seed  TAPS  bound  gap")
    total = 0
    for seed in range(args.instances):
        cfg = WorkloadConfig(
            num_tasks=9, mean_flows_per_task=2, arrival_rate=2.0,
            mean_flow_size=1.0, min_flow_size=0.2, mean_deadline=2.5,
            seed=seed,
        )
        tasks = generate_workload(cfg, list(topo.hosts))
        bound = offline_best_subset(tasks, paths, 1.0)
        result = Engine(topo, tasks, TapsScheduler(), path_service=paths).run()
        gap = bound.best_count - result.tasks_completed
        total += gap
        print(f"{seed:>4d}  {result.tasks_completed:>4d}  "
              f"{bound.best_count:>5d}  {gap:>3d}")
    print(f"mean gap: {total / args.instances:.2f} tasks")
    return 0


def _cmd_run(args) -> int:
    from repro.metrics import summarize, trace_digest
    from repro.obs import MetricsRegistry
    from repro.sim.faults import LinkFault
    from repro.util.errors import ConfigurationError

    telemetry = MetricsRegistry() if args.out_dir is not None else None
    try:
        faults = None
        if args.fault is not None:
            link, start, end = args.fault
            faults = [LinkFault(int(link), start, end)]
        result, recorder = run_traced(
            scale=SCALES[args.scale], num_tasks=args.tasks, seed=args.seed,
            faults=faults, telemetry=telemetry,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    m = summarize(result)
    print(f"{result.scheduler_name} on {result.topology_name}: "
          f"task ratio {m.task_completion_ratio:.3f}, "
          f"flow ratio {m.flow_completion_ratio:.3f}, "
          f"finished at t={result.finished_at:.4f}")
    for line in trace_digest(recorder).lines():
        print(f"  {line}")
    if args.trace is not None:
        out = recorder.to_jsonl(args.trace)
        print(f"wrote {out} ({recorder.emitted} events)")
    if args.out_dir is not None:
        written = write_run_artifacts(args.out_dir, recorder, telemetry)
        for path in written.values():
            print(f"wrote {path}")
        print(f"inspect with: repro-taps stats {args.out_dir}")
    return 0


def _cmd_stats(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import load_jsonl, render_stats, stats_json

    target = Path(args.run_dir)
    path = run_files(target)["telemetry"] if target.is_dir() else target
    if not path.exists():
        print(f"error: no telemetry snapshot at {path} "
              "(produce one with: repro-taps run --out-dir DIR)",
              file=sys.stderr)
        return 1
    try:
        telemetry = load_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(stats_json(telemetry), indent=1, sort_keys=True))
    else:
        print(render_stats(telemetry), end="")
    return 0


def _load_trace_or_fail(run_dir: str):
    """The trace of a run dir (or of the trace file ``run_dir``), or None
    after printing the error — shared by ``timeline`` and ``explain``."""
    from pathlib import Path

    from repro.trace import load_jsonl

    target = Path(run_dir)
    path = run_files(target)["trace"] if target.is_dir() else target
    if not path.exists():
        print(f"error: no {RUN_FILES['trace']} under {run_dir} "
              "(produce one with: repro-taps run --out-dir DIR)",
              file=sys.stderr)
        return None
    try:
        return load_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"error: {run_dir}: {exc}", file=sys.stderr)
        return None


def _cmd_timeline(args) -> int:
    from pathlib import Path

    from repro.obs import load_jsonl, timeline_from, write_chrome_trace

    trace = _load_trace_or_fail(args.run_dir)
    if trace is None:
        return 1
    # the span flame comes from the run dir's telemetry, when it has one
    target = Path(args.run_dir)
    telemetry_path = run_files(target)["telemetry"]
    try:
        telemetry = (load_jsonl(telemetry_path) if telemetry_path.is_file()
                     else None)
    except (OSError, ValueError) as exc:
        print(f"error: {args.run_dir}: {exc}", file=sys.stderr)
        return 1
    tl = timeline_from(trace)
    default_dir = target if target.is_dir() else target.parent
    out_path = args.out if args.out is not None else (
        default_dir / "trace.chrome.json"
    )
    out = write_chrome_trace(out_path, tl, telemetry)
    outcomes = tl.outcomes()
    summary = ", ".join(f"{len(v)} {k}" for k, v in sorted(outcomes.items()))
    print(f"{tl.events} events -> {len(tl.tasks)} tasks ({summary}), "
          f"{len(tl.flows)} flows, {len(tl.links)} links, "
          f"end t={tl.end_time:.4f}")
    print(f"wrote {out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_explain(args) -> int:
    import json

    from repro.obs import explain_run, explain_task, timeline_from
    from repro.trace import audit_events

    trace = _load_trace_or_fail(args.run_dir)
    if trace is None:
        return 1
    tl = timeline_from(trace)
    if args.task is not None:
        if args.task not in tl.tasks:
            print(f"error: task {args.task} does not appear in the trace "
                  f"(tasks: {min(tl.tasks, default='-')}"
                  f"..{max(tl.tasks, default='-')})", file=sys.stderr)
            return 1
        verdicts = [explain_task(tl, args.task)]
    else:
        verdicts = explain_run(tl)
    if args.json:
        print(json.dumps([v.to_json() for v in verdicts], indent=1))
    else:
        if not verdicts:
            print("every task completed; nothing to explain")
        for v in verdicts:
            for line in v.lines():
                print(line)
        # cross-check the clause evidence against the trace auditor
        report = audit_events(trace.events, trace.meta, trace.truncated)
        reject_violations = [
            v for v in report.violations if v.invariant == "reject-rule"
        ]
        inconsistent = [v for v in verdicts if not v.clause_consistent]
        if not reject_violations and not inconsistent:
            print("auditor cross-check: clause evidence consistent "
                  "(0 reject-rule violations)")
        else:
            print(f"auditor cross-check: {len(reject_violations)} "
                  f"reject-rule violation(s), {len(inconsistent)} "
                  f"inconsistent verdict(s)")
    return 0 if all(v.clause_consistent for v in verdicts) else 1


def _cmd_diff(args) -> int:
    import json

    from repro.obs import DiffError, diff_paths

    try:
        report = diff_paths(
            args.run_a, args.run_b,
            timing_threshold=args.timing_threshold,
            strict_timing=args.strict_timing,
        )
    except DiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        for line in report.lines():
            print(line)
    return report.exit_code


def _cmd_audit(args) -> int:
    from repro.metrics import trace_digest
    from repro.trace import audit_trace, load_jsonl

    try:
        trace = load_jsonl(args.trace)
    except (OSError, ValueError) as exc:
        # exit 1 means "violations found"; a file that is not a readable
        # trace is a usage error
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2
    for key, value in sorted(trace.meta.items()):
        print(f"  {key}: {value}")
    for line in trace_digest(trace.events).lines():
        print(f"  {line}")
    report = audit_trace(trace)
    if report.truncated:
        print("WARNING: trace ring overflowed — the stream is incomplete "
              "and this audit is unsound")
    if report.ok:
        print(f"audit OK: 0 violations over {report.events_audited} events")
        return 0
    print(f"audit FAILED: {len(report.violations)} violation(s) over "
          f"{report.events_audited} events")
    for v in report.violations[: args.max_violations]:
        print(f"  {v}")
    hidden = len(report.violations) - args.max_violations
    if hidden > 0:
        print(f"  ... and {hidden} more")
    return 1


def _cmd_report(args) -> int:
    from pathlib import Path

    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        # refuse before regenerating every figure, not after
        print(f"error: {args.out}: {out_dir} is not a directory",
              file=sys.stderr)
        return 2
    executor = _executor_from_args(args)
    out = generate_report(
        args.out, SCALES[args.scale], args.figures,
        executor=executor, csv_dir=args.csv_dir,
    )
    print(f"wrote {out}")
    if args.csv_dir is not None:
        print(f"csv series -> {args.csv_dir}")
    _print_cache_footer(executor)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-taps",
        description="TAPS (ICPP 2015) reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("motivation", help="replay paper Figs. 1-3").set_defaults(
        func=_cmd_motivation
    )

    p_fig = sub.add_parser("figure", help="regenerate one figure")
    p_fig.add_argument("figure", choices=sorted(FIGURES))
    p_fig.add_argument("--scale", choices=sorted(SCALES), default="small")
    p_fig.add_argument("--csv", default=None, metavar="FILE",
                       help="also dump the raw per-seed series as CSV")
    _add_executor_args(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_all = sub.add_parser("all", help="regenerate every figure")
    p_all.add_argument("--scale", choices=sorted(SCALES), default="small")
    p_all.add_argument("--csv-dir", default=None, metavar="DIR",
                       help="also dump each figure's raw per-seed series "
                            "as DIR/<fig>.csv")
    _add_executor_args(p_all)
    p_all.set_defaults(func=_cmd_all)

    sub.add_parser("nphard", help="demo the §IV-B reduction").set_defaults(
        func=_cmd_nphard
    )

    p_zoo = sub.add_parser("zoo", help="TAPS on the §II architectures")
    p_zoo.add_argument("--scale", choices=sorted(SCALES), default="small")
    _add_executor_args(p_zoo)
    p_zoo.set_defaults(func=_cmd_zoo)

    p_opt = sub.add_parser("optimality",
                           help="online TAPS vs the offline bound")
    p_opt.add_argument("--instances", type=_at_least(1), default=8)
    p_opt.set_defaults(func=_cmd_optimality)

    p_run = sub.add_parser("run",
                           help="one traced TAPS run on a fat-tree workload")
    p_run.add_argument("--scale", choices=sorted(SCALES), default="small")
    p_run.add_argument("--tasks", type=int, default=None,
                       help="override the scale's task count")
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--trace", default=None, metavar="FILE",
                       help="write the decision trace as JSONL")
    p_run.add_argument("--fault", nargs=3, type=float, default=None,
                       metavar=("LINK", "START", "END"),
                       help="inject one link outage [START, END)")
    p_run.add_argument("--out-dir", default=None, metavar="DIR",
                       help="write run artifacts "
                            f"({', '.join(RUN_FILES.values())}) into DIR")
    p_run.set_defaults(func=_cmd_run)

    p_stats = sub.add_parser(
        "stats",
        help="render a run report from exported telemetry (no re-simulation)")
    p_stats.add_argument("run_dir", metavar="RUN_DIR",
                        help=f"run directory holding {RUN_FILES['telemetry']} "
                             "(or a path to the file itself)")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the report as machine-readable JSON")
    p_stats.set_defaults(func=_cmd_stats)

    p_tl = sub.add_parser(
        "timeline",
        help="export a run's timelines as Chrome trace-event JSON "
             "(Perfetto-viewable)")
    p_tl.add_argument("run_dir", metavar="RUN_DIR",
                      help=f"run directory holding {RUN_FILES['trace']} "
                           "(or a path to the trace file itself)")
    p_tl.add_argument("--out", default=None, metavar="FILE",
                      help="output path (default: RUN_DIR/trace.chrome.json)")
    p_tl.set_defaults(func=_cmd_timeline)

    p_exp = sub.add_parser(
        "explain",
        help="why was a task rejected/preempted/dropped? (from the trace)")
    p_exp.add_argument("run_dir", metavar="RUN_DIR",
                       help=f"run directory holding {RUN_FILES['trace']} "
                            "(or a path to the trace file itself)")
    p_exp.add_argument("--task", type=int, default=None, metavar="T",
                       help="explain one task id (default: every "
                            "non-completed task)")
    p_exp.add_argument("--json", action="store_true",
                       help="emit the verdicts as machine-readable JSON")
    p_exp.set_defaults(func=_cmd_explain)

    p_diff = sub.add_parser(
        "diff",
        help="regression-diff two artifact bundles (run dirs, traces, "
             "telemetry, perf JSONs, history stores)")
    p_diff.add_argument("run_a", metavar="RUN_A")
    p_diff.add_argument("run_b", metavar="RUN_B")
    p_diff.add_argument("--json", action="store_true",
                        help="emit the report as machine-readable JSON")
    p_diff.add_argument("--timing-threshold", type=_at_least(0, float),
                        default=0.10, metavar="FRAC",
                        help="relative threshold for timing comparisons "
                             "(default 0.10)")
    p_diff.add_argument("--strict-timing", action="store_true",
                        help="timing drift beyond the threshold blocks "
                             "(regression, exit 1) instead of warning")
    p_diff.set_defaults(func=_cmd_diff)

    p_aud = sub.add_parser("audit",
                           help="replay a JSONL trace against the paper's "
                                "schedule invariants")
    p_aud.add_argument("trace", metavar="FILE")
    p_aud.add_argument("--max-violations", type=_at_least(0), default=10,
                       help="print at most this many violations")
    p_aud.set_defaults(func=_cmd_audit)

    p_rep = sub.add_parser("report",
                           help="regenerate every figure into a markdown file")
    p_rep.add_argument("--out", default="results.md")
    p_rep.add_argument("--scale", choices=sorted(SCALES), default="small")
    p_rep.add_argument("--figures", nargs="*", choices=sorted(FIGURES),
                       default=None)
    p_rep.add_argument("--csv-dir", default=None, metavar="DIR",
                       help="also dump each figure's raw per-seed series "
                            "as DIR/<fig>.csv")
    _add_executor_args(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # an output path that cannot be written: one line, no traceback
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
