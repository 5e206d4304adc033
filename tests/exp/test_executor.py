"""Executor semantics: serial ≡ parallel ≡ cached, plus cache behavior.

The contract under test is the tentpole guarantee: for any grid, the
declarative executor path (``SweepGrid`` → ``SimJob`` fan-out) produces
``SweepResult`` series/raw and CSV bytes **bit-identical** to the
historical callable-based serial ``run_sweep``, whether points ran
in-process, across a process pool, or out of the content-addressed
result cache.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exp.executor import (
    ExecutorConfig,
    ResultCache,
    SimJob,
    TopologySpec,
    build_topology,
    default_cache_dir,
    execute_jobs,
    make_executor,
    run_job,
    topology_spec,
)
from repro.exp.sweep import SweepGrid, run_sweep, run_sweep_grid
from repro.util.errors import ConfigurationError
from repro.workload.generator import WorkloadConfig, generate_workload

DUMBBELL = topology_spec("dumbbell", n_pairs=6, capacity=1.0)


def _base_config(**overrides) -> WorkloadConfig:
    base = dict(
        num_tasks=4, mean_flows_per_task=2, arrival_rate=2.0,
        mean_deadline=2.0, mean_flow_size=1.0, min_flow_size=0.1,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def _grid(values, schedulers, seeds) -> SweepGrid:
    return SweepGrid(
        topology=DUMBBELL,
        base_workload=_base_config(),
        param_name="mean_deadline",
        param_values=tuple(values),
        schedulers=tuple(schedulers),
        seeds=tuple(seeds),
        max_paths=4,
    )


def _reference(values, schedulers, seeds):
    """The historical callable-based serial sweep on the same grid."""
    holder = {}

    def topo():
        return holder.setdefault("t", DUMBBELL.build())

    def workload(value, seed):
        cfg = _base_config(mean_deadline=value, seed=seed)
        return generate_workload(cfg, list(topo().hosts))

    return run_sweep(
        topo, workload, "mean_deadline", list(values),
        schedulers=tuple(schedulers), seeds=tuple(seeds), max_paths=4,
    )


def _csv_bytes(sweep, tmp_path: Path, name: str) -> bytes:
    p = tmp_path / name
    sweep.to_csv(p)
    return p.read_bytes()


# -- equivalence ---------------------------------------------------------------


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    values=st.lists(
        st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
        min_size=1, max_size=3, unique=True,
    ),
    schedulers=st.lists(
        st.sampled_from(["Fair Sharing", "TAPS", "PDQ", "Varys"]),
        min_size=1, max_size=2, unique=True,
    ),
    seeds=st.lists(st.integers(min_value=0, max_value=50),
                   min_size=1, max_size=2, unique=True),
)
def test_grid_matches_callable_sweep(values, schedulers, seeds, tmp_path):
    """Property: on random small grids the declarative serial path equals
    the callable-based reference — series, raw, and CSV bytes."""
    ref = _reference(values, schedulers, seeds)
    new = run_sweep_grid(_grid(values, schedulers, seeds))
    assert new.series == ref.series
    assert new.raw == ref.raw
    assert _csv_bytes(new, tmp_path, "new.csv") == \
        _csv_bytes(ref, tmp_path, "ref.csv")


def test_parallel_matches_serial(tmp_path):
    """Pool fan-out (jobs=2) is bit-identical to serial, including the
    wide- and long-format CSV bytes, across all six paper schedulers."""
    from repro.sched.registry import PAPER_ORDER

    values, seeds = (1.0, 4.0), (1, 2)
    grid = _grid(values, PAPER_ORDER, seeds)
    serial = run_sweep_grid(grid)
    parallel = run_sweep_grid(grid, ExecutorConfig(jobs=2))
    assert parallel.series == serial.series
    assert parallel.raw == serial.raw
    assert _csv_bytes(parallel, tmp_path, "par.csv") == \
        _csv_bytes(serial, tmp_path, "ser.csv")
    wide_p = tmp_path / "wide_p.csv"
    wide_s = tmp_path / "wide_s.csv"
    parallel.to_csv(wide_p, metric="task_completion_ratio")
    serial.to_csv(wide_s, metric="task_completion_ratio")
    assert wide_p.read_bytes() == wide_s.read_bytes()


def test_results_positional_not_completion_ordered():
    """execute_jobs aligns results with input order even when the same
    job list is permuted — order of definition decides, not completion."""
    jobs = [
        SimJob(DUMBBELL, _base_config(seed=s), sched, 4)
        for s in (1, 2) for sched in ("Fair Sharing", "TAPS")
    ]
    forward = execute_jobs(jobs)
    backward = execute_jobs(list(reversed(jobs)))
    assert forward == list(reversed(backward))


# -- cache semantics -----------------------------------------------------------


@pytest.fixture
def job() -> SimJob:
    return SimJob(DUMBBELL, _base_config(seed=3), "TAPS", 4)


def test_cache_hit_on_identical_spec(tmp_path, job):
    cache = ResultCache(tmp_path)
    first = execute_jobs([job], ExecutorConfig(cache=cache))[0]
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    again = execute_jobs([job], ExecutorConfig(cache=cache))[0]
    assert again == first
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)


def test_cache_misses_on_changed_seed_or_scheduler(tmp_path, job):
    cache = ResultCache(tmp_path)
    execute_jobs([job], ExecutorConfig(cache=cache))
    other_seed = SimJob(job.topology, job.workload.with_(seed=4),
                        job.scheduler, job.max_paths)
    other_sched = SimJob(job.topology, job.workload, "PDQ", job.max_paths)
    other_paths = SimJob(job.topology, job.workload, job.scheduler, 2)
    execute_jobs([other_seed, other_sched, other_paths],
                 ExecutorConfig(cache=cache))
    assert cache.stats.hits == 0
    assert cache.stats.misses == 4


def test_cache_misses_on_schema_version_bump(tmp_path, job, monkeypatch):
    """Bumping either schema version or the decision version must retire
    every existing entry."""
    cache = ResultCache(tmp_path)
    execute_jobs([job], ExecutorConfig(cache=cache))

    import repro.exp.executor as executor_mod

    for attr in ("WORKLOAD_SCHEMA_VERSION", "RESULT_SCHEMA_VERSION",
                 "DECISION_VERSION"):
        old_digest = job.digest()
        monkeypatch.setattr(executor_mod, attr,
                            getattr(executor_mod, attr) + 1)
        assert job.digest() != old_digest
        fresh = ResultCache(tmp_path)
        assert fresh.get(job) is None
        assert fresh.stats.misses == 1
        monkeypatch.undo()


def test_no_cache_bypasses_store(tmp_path, job):
    execute_jobs([job], ExecutorConfig(cache=None))
    assert list(tmp_path.rglob("*.json")) == []
    cfg = make_executor(jobs=None, cache_dir=tmp_path, use_cache=False)
    assert cfg.cache is None


def test_corrupted_entry_recomputes(tmp_path, job):
    cache = ResultCache(tmp_path)
    clean = execute_jobs([job], ExecutorConfig(cache=cache))[0]
    [entry] = tmp_path.rglob("*.json")

    for corruption in ("{not json", '{"schema": 999}',
                       '{"schema": 1, "scheduler": "TAPS"}'):
        entry.write_text(corruption)
        cache2 = ResultCache(tmp_path)
        recomputed = execute_jobs([job], ExecutorConfig(cache=cache2))[0]
        assert recomputed == clean
        assert cache2.stats.invalidations == 1
        assert cache2.stats.misses == 1
        # the bad entry was overwritten with a good one
        cache3 = ResultCache(tmp_path)
        assert cache3.get(job) == clean


def test_warm_cache_runs_zero_engines(tmp_path):
    """A fully-warm batch never constructs an Engine (all points served
    from disk): misses == 0 and hits == grid size."""
    grid = _grid((1.0, 3.0), ("Fair Sharing", "TAPS"), (1,))
    cold = ResultCache(tmp_path)
    first = run_sweep_grid(grid, ExecutorConfig(cache=cold))
    warm = ResultCache(tmp_path)
    import repro.sim.engine as engine_mod

    calls = []
    original = engine_mod.Engine.run

    def counting_run(self):
        calls.append(1)
        return original(self)

    engine_mod.Engine.run = counting_run
    try:
        second = run_sweep_grid(grid, ExecutorConfig(cache=warm))
    finally:
        engine_mod.Engine.run = original
    assert calls == []
    assert warm.stats.misses == 0
    assert warm.stats.hits == len(grid.jobs())
    assert second.raw == first.raw


# -- spec plumbing -------------------------------------------------------------


def test_topology_spec_validates_factory():
    with pytest.raises(ConfigurationError):
        topology_spec("moebius_strip", k=4)
    with pytest.raises(ConfigurationError):
        TopologySpec("nope")


def test_topology_build_memoized():
    t1 = build_topology(DUMBBELL, 4)
    t2 = build_topology(DUMBBELL, 4)
    assert t1 is t2
    assert build_topology(DUMBBELL, 2) is not t1


def test_digest_stable_under_kwarg_order():
    a = topology_spec("dumbbell", n_pairs=6, capacity=1.0)
    b = topology_spec("dumbbell", capacity=1.0, n_pairs=6)
    assert a == b
    assert SimJob(a, _base_config(), "TAPS", 4).digest() == \
        SimJob(b, _base_config(), "TAPS", 4).digest()


def test_run_job_matches_direct_engine():
    from repro.metrics.summary import summarize
    from repro.net.paths import PathService
    from repro.sched.registry import make_scheduler
    from repro.sim.engine import Engine

    job = SimJob(DUMBBELL, _base_config(seed=9), "Varys", 4)
    topo = DUMBBELL.build()
    tasks = generate_workload(job.workload, list(topo.hosts))
    direct = summarize(Engine(
        topo, tasks, make_scheduler("Varys"),
        path_service=PathService(topo, max_paths=4),
    ).run())
    assert run_job(job) == direct


def test_executor_jobs_validation():
    with pytest.raises(ConfigurationError):
        ExecutorConfig(jobs=-1).effective_jobs()
    assert ExecutorConfig(jobs=0).effective_jobs() >= 1
    assert ExecutorConfig(jobs=3).effective_jobs() == 3


def test_default_cache_dir_honors_env(monkeypatch):
    monkeypatch.setenv("REPRO_TAPS_CACHE", "/tmp/somewhere-else")
    assert default_cache_dir() == Path("/tmp/somewhere-else")


def test_sweep_grid_rejects_unknown_param():
    with pytest.raises(ConfigurationError):
        SweepGrid(
            topology=DUMBBELL,
            base_workload=_base_config(),
            param_name="mean_pomposity",
            param_values=(1.0,),
        )
