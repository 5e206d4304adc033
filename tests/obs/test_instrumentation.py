"""Telemetry wiring into the controller and the engine.

Two guarantees are load-bearing.  First, telemetry is observational
only: the decision trace must stay byte-identical whether telemetry is
attached or not, and between the controller and the reference oracle with
it attached.  Second, published counters are the *same numbers* the
engine/controller already track — so ``repro-taps stats`` never
disagrees with the simulation it describes.
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.reference import ReferenceTaps
from repro.exp.configs import SMALL
from repro.exp.executor import topology_spec
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



def test_run_publishes_only_counters_and_histograms():
    """Every hot-path field lands as an ``alloc/<field>`` counter equal to
    the live field, and a run records no instrument of any other kind."""
    from repro.core.controller import TapsScheduler
    from repro.net.paths import PathService
    from repro.obs.hotpath import HotPathCounters
    from repro.obs.registry import Counter
    from repro.sim.engine import Engine
    from repro.workload.generator import generate_workload

    tel = MetricsRegistry()
    topo = DUMBBELL.build()
    tasks = generate_workload(_workload(num_tasks=12, seed=3),
                              list(topo.hosts))
    sched = TapsScheduler()
    Engine(topo, tasks, sched, path_service=PathService(topo, max_paths=4),
           telemetry=tel).run()
    profile = sched.stats.profile
    for f in fields(HotPathCounters):
        inst = tel.get("alloc/" + f.name)
        assert isinstance(inst, Counter), f.name
        assert inst.value == getattr(profile, f.name), f.name
    assert {type(i) for i in tel.instruments()} == {Counter, Histogram}
