"""Telemetry wiring into the controller, engine, and executor.

Two guarantees are load-bearing.  First, telemetry is observational
only: the decision trace must stay byte-identical whether telemetry is
attached or not, and between the controller and the reference oracle with
it attached.  Second,
published counters are the *same numbers* the engine/controller already
track, and process-pool workers' snapshots merge into exactly what a
serial run records — so ``repro-taps stats`` never disagrees with the
simulation it describes.
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.reference import ReferenceTaps
from repro.exp.configs import SMALL
from repro.exp.executor import ExecutorConfig, SimJob, execute_jobs, topology_spec
from repro.exp.runner import run_traced
from repro.obs.registry import Histogram, MetricsRegistry
from repro.sim.engine import EngineCounters
from repro.workload.generator import WorkloadConfig

DUMBBELL = topology_spec("dumbbell", n_pairs=6, capacity=1.0)


def _workload(**overrides) -> WorkloadConfig:
    base = dict(
        num_tasks=4, mean_flows_per_task=2, arrival_rate=2.0,
        mean_deadline=2.0, mean_flow_size=1.0, min_flow_size=0.1,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def _run_reference_traced(num_tasks: int, seed: int, telemetry):
    """``run_traced``'s workload, run by the reference oracle."""
    from repro.net.paths import PathService
    from repro.sim.engine import Engine
    from repro.trace import TraceRecorder
    from repro.workload.generator import generate_workload

    topo = SMALL.fat_tree()
    cfg = SMALL.workload_config(seed=seed, num_tasks=num_tasks)
    recorder = TraceRecorder()
    Engine(topo, generate_workload(cfg, list(topo.hosts)), ReferenceTaps(),
           path_service=PathService(topo, max_paths=SMALL.max_paths),
           trace=recorder, telemetry=telemetry).run()
    return recorder


def test_trace_bytes_unchanged_by_telemetry_and_fast_path():
    """The acceptance criterion: telemetry never feeds a decision.

    Traces from (controller + telemetry), (reference oracle + telemetry),
    and (controller, no telemetry) are all byte-identical.
    """
    _, plain = run_traced(num_tasks=20, seed=11)
    _, fast = run_traced(num_tasks=20, seed=11, telemetry=MetricsRegistry())
    slow = _run_reference_traced(20, 11, telemetry=MetricsRegistry())
    assert fast.dumps() == plain.dumps()
    assert slow.dumps() == plain.dumps()


def test_oracle_records_the_controllers_path_calculation_span():
    """Planner calls are counted and spanned in the plumbing the oracle
    shares: both record ``path_calculation`` under the admission trial,
    one span per counted call."""
    from repro.core.controller import TapsScheduler
    from repro.net.paths import PathService
    from repro.sim.engine import Engine
    from repro.workload.generator import generate_workload

    topo = SMALL.fat_tree()
    cfg = SMALL.workload_config(seed=11, num_tasks=20)
    tasks = generate_workload(cfg, list(topo.hosts))
    calls = []
    for cls in (TapsScheduler, ReferenceTaps):
        tel, sched = MetricsRegistry(), cls()
        Engine(topo, tasks, sched,
               path_service=PathService(topo, max_paths=SMALL.max_paths),
               telemetry=tel).run()
        span = tel.get("span/run/arrival/admission/trial/path_calculation")
        assert span is not None, cls.__name__
        assert span.count == sched.stats.profile.path_calculation_calls
        calls.append(span.count)
    assert calls[0] == calls[1] > 0


def test_results_unchanged_by_telemetry():
    from dataclasses import astuple

    bare, _ = run_traced(num_tasks=20, seed=5)
    telemetered, _ = run_traced(num_tasks=20, seed=5,
                                telemetry=MetricsRegistry())
    # FlowState has eq=False (identity); compare field values
    assert [astuple(fs) for fs in telemetered.flow_states] == \
        [astuple(fs) for fs in bare.flow_states]
    assert telemetered.counters == bare.counters


def test_published_counters_match_live_objects():
    """Every engine/controller counter in telemetry equals the field it
    was published from, and the admission histogram saw one observation
    per admission decision."""
    from repro.core.controller import TapsScheduler
    from repro.net.paths import PathService
    from repro.sim.engine import Engine
    from repro.workload.generator import generate_workload

    tel = MetricsRegistry()
    topo = DUMBBELL.build()
    tasks = generate_workload(_workload(num_tasks=12, seed=3),
                              list(topo.hosts))
    sched = TapsScheduler()
    Engine(topo, tasks, sched,
           path_service=PathService(topo, max_paths=4),
           telemetry=tel).run()

    assert tel.get("controller/tasks_accepted").value == \
        sched.stats.tasks_accepted
    assert tel.get("controller/tasks_rejected").value == \
        sched.stats.tasks_rejected
    assert tel.get("controller/reallocations").value == \
        sched.stats.reallocations
    hist = tel.get("controller/admission_latency_seconds")
    assert isinstance(hist, Histogram)
    assert hist.count == sched.stats.tasks_accepted + \
        sched.stats.tasks_rejected
    # span tree exists and nests under the run root
    span_names = {h.name for h in tel.instruments()
                  if h.name.startswith("span/")}
    assert "span/run" in span_names
    assert "span/run/arrival/admission" in span_names
    # link load is a transmission-log query, not telemetry
    assert not [i for i in tel.instruments() if i.name.startswith("net/")]


def test_engine_counters_published_exactly():
    from repro.core.controller import TapsScheduler
    from repro.net.paths import PathService
    from repro.sim.engine import Engine
    from repro.workload.generator import generate_workload

    tel = MetricsRegistry()
    topo = DUMBBELL.build()
    tasks = generate_workload(_workload(num_tasks=12, seed=3),
                              list(topo.hosts))
    engine = Engine(topo, tasks, TapsScheduler(),
                    path_service=PathService(topo, max_paths=4),
                    telemetry=tel)
    engine.run()
    for f in fields(EngineCounters):
        assert tel.get("engine/" + f.name).value == \
            getattr(engine.counters, f.name), f.name


def _deterministic_view(reg: MetricsRegistry):
    """Everything order- and timing-independent in a snapshot: counter
    values, gauge peaks, and histogram observation counts (durations are
    wall-clock and legitimately differ between runs)."""
    view = {}
    for item in reg.snapshot():
        key = (item["name"], tuple(sorted(item["labels"].items())))
        if item["kind"] == "counter":
            if item["name"].endswith("_seconds"):
                continue  # wall-clock accumulators; not deterministic
            view[key] = item["value"]
        elif item["kind"] == "gauge":
            view[key] = item["max"]
        else:
            view[key] = item["count"]
    return view


def test_parallel_executor_merges_worker_telemetry():
    """jobs=2 fan-out merges worker snapshots into the same deterministic
    totals a serial run records — completion order cannot matter."""
    jobs = [
        SimJob(DUMBBELL, _workload(seed=s), sched, 4)
        for s in (1, 2) for sched in ("TAPS", "PDQ")
    ]
    tel_serial = MetricsRegistry()
    serial = execute_jobs(jobs, ExecutorConfig(jobs=1, telemetry=tel_serial))
    tel_pool = MetricsRegistry()
    pooled = execute_jobs(jobs, ExecutorConfig(jobs=2, telemetry=tel_pool))
    assert pooled == serial
    assert _deterministic_view(tel_pool) == _deterministic_view(tel_serial)
    assert tel_serial.get("executor/jobs").value == len(jobs)
    assert tel_serial.get("executor/jobs_run").value == len(jobs)


def test_cached_jobs_count_as_hits_not_runs(tmp_path):
    from repro.exp.executor import ResultCache

    job = SimJob(DUMBBELL, _workload(seed=3), "TAPS", 4)
    cache = ResultCache(tmp_path)
    execute_jobs([job], ExecutorConfig(cache=cache))  # warm, untelemetered
    tel = MetricsRegistry()
    execute_jobs([job], ExecutorConfig(cache=cache, telemetry=tel))
    assert tel.get("executor/jobs").value == 1
    assert tel.get("executor/cache_hits").value == 1
    assert tel.get("executor/jobs_run") is None or \
        tel.get("executor/jobs_run").value == 0
    # a cached job never ran an engine, so no engine counters appear
    assert tel.find("engine/events") == []
