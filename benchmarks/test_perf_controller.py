"""Controller fast-path benchmark: speedup AND bit-identical decisions.

Runs one frozen arrival-heavy workload (64 hosts of a k=8 fat-tree, Poisson
arrivals, ~3.6k flows) through the TAPS controller (segment-cached union
folds + fused pair-scan candidate evaluation + trial journal) and through
the reference oracle :class:`~repro.core.reference.ReferenceTaps` (literal
Alg. 2/3: per-candidate union fold + complement + fit, deep-copied trial
ledgers, full-scan sender model), three times each in ABBA order
(:data:`ORDER`: controller, oracle, oracle, controller, controller,
oracle), so that host-speed drift during the session falls on both sides
alike.  It asserts:

1. **Equivalence**: every run makes the *same decisions* — each decision
   trace (:mod:`repro.trace`) serializes to the same JSONL as the first
   controller run's (same accept/reject/preempt sequence, same victims,
   float-identical plans at every commit), and every trace passes the
   schedule invariant auditor.
2. **Speedup**: at full scale, controller time (admission + reallocation,
   the engine's ``run/arrival`` span) improves by >= 2x.  Each adjacent
   controller/oracle pair gives one ratio; the record keeps the three
   per-pair ratios (``speedup_pairs``) and their median (``speedup``).

Every run is telemetered, and its times come from its own span tree —
telemetry spans are the program's only timer: ``wall_seconds`` is the
``run`` span (the event loop; building the engine is left out),
``controller_seconds`` the ``run/arrival`` span and
``path_calculation_seconds`` the ``path_calculation`` spans.  Each side
records their medians over its three runs; the ``layers`` block
(``{span path: {"calls", "seconds"}}``) and the admission span's p50/p99
(``telemetry``) are per-span medians over the same three controller runs,
so ``layers["run"]["seconds"]`` is ``fast["wall_seconds"]`` and
``repro-taps diff`` compares two records layer by layer.  Telemetry's own
cost falls on both sides of every ratio (DESIGN.md §7 measures it).

The measured record is written to ``benchmarks/results/perf_controller*.json``
(workload, timings, profile counters, speedups) for EXPERIMENTS.md and the
CI artifact.

``REPRO_PERF_SCALE=smoke`` (CI) shrinks the workload to seconds and skips
the speedup floor — shared runners are too noisy to gate on a timing ratio —
while still asserting decision equivalence and emitting the JSON.
"""

from __future__ import annotations

import json
import os
from statistics import median

from repro.core.controller import TapsScheduler
from repro.core.reference import ReferenceTaps
from repro.net.fattree import FatTree
from repro.net.paths import PathService
from repro.obs.export import TELEMETRY_SCHEMA_VERSION
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import admission_histogram, span_tree
from repro.sim.engine import Engine
from repro.trace import TraceRecorder, audit_trace
from repro.workload.generator import WorkloadConfig, generate_workload

SCALES = {
    # ~10 min total on a 2-vCPU VM (the three reference runs dominate);
    # the scale where the fast path's asymptotic advantages are fully
    # visible (several hundred in-flight flows per arrival)
    "full": dict(num_tasks=180, arrival_rate=2200.0, mean_deadline=0.38,
                 mean_flow_size=300_000.0, mean_flows_per_task=25.0),
    # ~2 s total; same shape, CI-friendly
    "smoke": dict(num_tasks=40, arrival_rate=700.0, mean_deadline=0.15,
                  mean_flow_size=400_000.0, mean_flows_per_task=10.0),
}
SEED = 7
HOSTS_USED = 64
MAX_PATHS = 8
#: each side's timings: the record keeps their median over its runs
TIMES = ("wall_seconds", "controller_seconds", "path_calculation_seconds")
#: the admission span's quantiles: the record keeps the controller's medians
ADMISSION = ("admission_p50_seconds", "admission_p99_seconds")
#: the run order, ABBA: C = controller, O = oracle; pair i is the i-th
#: run of each
ORDER = ("C", "O", "O", "C", "C", "O")


def _workload(scale: dict):
    topo = FatTree(k=8)
    hosts = list(topo.hosts)[:HOSTS_USED]
    cfg = WorkloadConfig(seed=SEED, **scale)
    return topo, generate_workload(cfg, hosts)


def _run(topo, tasks, cls):
    sched = cls()
    paths = PathService(topo, max_paths=MAX_PATHS)
    recorder = TraceRecorder()
    registry = MetricsRegistry()
    result = Engine(topo, tasks, sched, path_service=paths,
                    trace=recorder, telemetry=registry).run()
    audit = audit_trace(recorder)
    assert audit.ok, audit.summary()
    spans = span_tree(registry)
    admission = admission_histogram(registry)
    assert admission.count == (sched.stats.tasks_accepted
                               + sched.stats.tasks_rejected)
    return {
        "wall_seconds": spans["run"][1],
        "controller_seconds": spans["run/arrival"][1],
        "path_calculation_seconds": sum(
            seconds for path, (_, seconds) in spans.items()
            if path.endswith("path_calculation")),
        "admission_p50_seconds": admission.quantile(0.5),
        "admission_p99_seconds": admission.quantile(0.99),
        "spans": spans,
        "trace_jsonl": recorder.dumps(),
        "trace_events": recorder.emitted,
        "audit_ok": audit.ok,
        "stats": {
            "tasks_accepted": sched.stats.tasks_accepted,
            "tasks_rejected": sched.stats.tasks_rejected,
            "tasks_preempted": sched.stats.tasks_preempted,
            "reallocations": sched.stats.reallocations,
            "flows_planned": sched.stats.flows_planned,
        },
        "profile": sched.stats.profile.as_dict(),
        "flows": [
            (fs.flow.flow_id, fs.remaining, fs.met_deadline)
            for fs in result.flow_states
        ],
        "tasks": [
            (ts.task.task_id, str(ts.outcome)) for ts in result.task_states
        ],
    }


def _side(runs: list[dict]) -> dict:
    """One side of the record: median timings over ``runs``, and the
    first run's (deterministic) counters."""
    return {**{k: median(r[k] for r in runs) for k in TIMES},
            "stats": runs[0]["stats"], "profile": runs[0]["profile"]}


def test_perf_controller(results_dir):
    scale_name = os.environ.get("REPRO_PERF_SCALE", "full")
    scale = SCALES[scale_name]
    topo, tasks = _workload(scale)

    # 1. bit-identical scheduling: every serialized decision trace
    # matches the first controller run's byte for byte (same decision
    # sequence, same victims, float-identical plans), and the end-of-run
    # flow/task outcomes agree.  Every run is telemetered, which proves
    # instrumentation is observational only.
    classes = {"C": TapsScheduler, "O": ReferenceTaps}
    runs: dict[str, list[dict]] = {"C": [], "O": []}
    first_trace = None
    for side in ORDER:
        run = _run(topo, tasks, classes[side])
        trace = run.pop("trace_jsonl")
        if first_trace is None:
            first_trace = trace
        assert trace == first_trace
        runs[side].append(run)
    fast, slow = runs["C"][0], runs["O"][0]
    for run in runs["C"] + runs["O"]:
        assert run["flows"] == fast["flows"]
        assert run["tasks"] == fast["tasks"]
        assert run["stats"] == fast["stats"]
    calls = {path: n for path, (n, _) in fast["spans"].items()}
    for run in runs["C"]:
        assert run["profile"] == fast["profile"]
        assert {path: n for path, (n, _) in run["spans"].items()} == calls

    pairs = {
        name: [round(o[f"{name}_seconds"] / c[f"{name}_seconds"], 3)
               for c, o in zip(runs["C"], runs["O"])]
        for name in ("controller", "wall", "path_calculation")
    }
    speedup = {name: median(ratios) for name, ratios in pairs.items()}
    # the per-layer split: each controller span's median total
    layers = {
        path: {"calls": n,
               "seconds": median(r["spans"][path][1] for r in runs["C"])}
        for path, n in calls.items()
    }
    planner = layers.get("run/arrival/admission/trial/path_calculation")
    assert planner is not None, sorted(layers)
    assert planner["calls"] == fast["profile"]["path_calculation_calls"]

    record = {
        "scale": scale_name,
        "telemetry_schema": TELEMETRY_SCHEMA_VERSION,
        "workload": {**scale, "seed": SEED, "hosts_used": HOSTS_USED,
                     "topology": "fattree-k8", "max_paths": MAX_PATHS,
                     "num_flows": sum(len(t.flows) for t in tasks)},
        "decisions_identical": True,
        "trace_events": fast["trace_events"],
        "audit_ok": fast["audit_ok"] and slow["audit_ok"],
        "fast": _side(runs["C"]),
        "slow": _side(runs["O"]),
        "speedup": speedup,
        "speedup_pairs": pairs,
        "telemetry": {k: median(r[k] for r in runs["C"]) for k in ADMISSION},
        "layers": layers,
    }
    suffix = "" if scale_name == "full" else f"_{scale_name}"
    out = results_dir / f"perf_controller{suffix}.json"
    out.write_text(json.dumps(record, indent=1))
    if os.environ.get("REPRO_PERF_HISTORY"):
        # opt-in: append to the cross-run store that `repro-taps diff`
        # reads, so regressions can be tracked across commits
        from repro.obs.diffing import append_history

        hist = append_history(record, results_dir / "history",
                              name=f"perf_controller{suffix}")
        print(f"\nhistory record -> {hist}")
    print(f"\nperf record -> {out}\n" + "  ".join(
        f"{name} {speedup[name]:.2f}x (pairs {ratios})"
        for name, ratios in pairs.items()))

    if scale_name == "full":
        # the acceptance floor: >= 2x on controller time at the frozen
        # arrival-heavy workload (smoke scale skips it: CI runners are
        # too noisy to gate on a wall-clock ratio)
        assert speedup["controller"] >= 2.0, pairs
