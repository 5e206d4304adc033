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
   measured around the scheduler callbacks) improves by >= 2x.  Each
   adjacent controller/oracle pair gives one ratio; the record keeps the
   three per-pair ratios (``speedup_pairs``) and their median
   (``speedup``), and each side's median times.

A last controller run with a :class:`~repro.obs.registry.MetricsRegistry`
attached must also trace byte-identically — telemetry is observational
only.  Its span tree and admission latencies go into the record; its
overhead is measured elsewhere (DESIGN.md §7's on/off pairs), not here.

The measured record is written to ``benchmarks/results/perf_controller*.json``
(workload, timings, profile counters, speedups) for EXPERIMENTS.md and the
CI artifact.  Its ``layers`` block is the telemetered run's span tree,
``{span path: {"calls", "seconds"}}``, so ``repro-taps diff`` compares two
records layer by layer.

``REPRO_PERF_SCALE=smoke`` (CI) shrinks the workload to seconds and skips
the speedup floor — shared runners are too noisy to gate on a timing ratio —
while still asserting decision equivalence and emitting the JSON.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median

from repro.core.controller import TapsScheduler
from repro.core.reference import ReferenceTaps
from repro.net.fattree import FatTree
from repro.net.paths import PathService
from repro.obs.export import TELEMETRY_SCHEMA_VERSION
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import span_tree
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
#: the run order, ABBA: C = controller, O = oracle; pair i is the i-th
#: run of each
ORDER = ("C", "O", "O", "C", "C", "O")


class _Stopwatch:
    """A controller-time stopwatch for a TAPS scheduler class.

    ``controller_seconds`` sums wall time spent inside admission, the
    honest "controller cost" (path calculation + trial ledger management
    + reject rule); ``path_calculation_seconds`` sums the planner calls
    (Alg. 2/3) within it.  Decisions are captured by the shared
    :class:`~repro.trace.recorder.TraceRecorder` instead of ad-hoc
    subclass hooks — the trace events carry float-exact plan snapshots,
    so comparing serialized traces proves two runs scheduled identically.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.controller_seconds = 0.0
        self.path_calculation_seconds = 0.0

    def on_task_arrival(self, task_state, now):
        t0 = time.perf_counter()
        try:
            super().on_task_arrival(task_state, now)
        finally:
            self.controller_seconds += time.perf_counter() - t0

    def _path_calculation(self, ftmp, ledger, start, horizon):
        t0 = time.perf_counter()
        try:
            return super()._path_calculation(ftmp, ledger, start, horizon)
        finally:
            self.path_calculation_seconds += time.perf_counter() - t0


class _TimedScheduler(_Stopwatch, TapsScheduler):
    pass


class _TimedReference(_Stopwatch, ReferenceTaps):
    pass


def _workload(scale: dict):
    topo = FatTree(k=8)
    hosts = list(topo.hosts)[:HOSTS_USED]
    cfg = WorkloadConfig(seed=SEED, **scale)
    return topo, generate_workload(cfg, hosts)


def _run(topo, tasks, cls, telemetry: MetricsRegistry | None = None):
    sched = cls()
    paths = PathService(topo, max_paths=MAX_PATHS)
    recorder = TraceRecorder()
    t0 = time.perf_counter()
    result = Engine(topo, tasks, sched, path_service=paths,
                    trace=recorder, telemetry=telemetry).run()
    wall = time.perf_counter() - t0
    audit = audit_trace(recorder)
    assert audit.ok, audit.summary()
    return {
        "wall_seconds": wall,
        "controller_seconds": sched.controller_seconds,
        "path_calculation_seconds": sched.path_calculation_seconds,
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
    # flow/task outcomes agree.  The telemetered run proves
    # instrumentation is observational only.
    classes = {"C": _TimedScheduler, "O": _TimedReference}
    runs: dict[str, list[dict]] = {"C": [], "O": []}
    first_trace = None
    for side in ORDER:
        run = _run(topo, tasks, classes[side])
        trace = run.pop("trace_jsonl")
        if first_trace is None:
            first_trace = trace
        assert trace == first_trace
        runs[side].append(run)
    registry = MetricsRegistry()
    telemetered = _run(topo, tasks, _TimedScheduler, telemetry=registry)
    assert telemetered.pop("trace_jsonl") == first_trace
    fast, slow = runs["C"][0], runs["O"][0]
    for run in runs["C"] + runs["O"] + [telemetered]:
        assert run["flows"] == fast["flows"]
        assert run["tasks"] == fast["tasks"]
        assert run["stats"] == fast["stats"]
    for run in runs["C"] + [telemetered]:
        assert run["profile"] == fast["profile"]
    hist = registry.get("controller/admission_latency_seconds")
    decisions = (telemetered["stats"]["tasks_accepted"]
                 + telemetered["stats"]["tasks_rejected"])
    assert hist is not None and hist.count == decisions

    pairs = {
        name: [round(o[f"{name}_seconds"] / c[f"{name}_seconds"], 3)
               for c, o in zip(runs["C"], runs["O"])]
        for name in ("controller", "wall", "path_calculation")
    }
    speedup = {name: median(ratios) for name, ratios in pairs.items()}
    # the per-layer split: the telemetered run's span tree
    layers = {
        path: {"calls": calls, "seconds": seconds}
        for path, (calls, seconds) in span_tree(registry).items()
    }
    planner = layers.get("run/arrival/admission/trial/path_calculation")
    assert planner is not None, sorted(layers)
    assert planner["calls"] == telemetered["profile"]["path_calculation_calls"]

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
        "telemetry": {
            "controller_seconds": telemetered["controller_seconds"],
            "admission_p50_seconds": hist.quantile(0.5),
            "admission_p99_seconds": hist.quantile(0.99),
        },
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
