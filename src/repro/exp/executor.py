"""Parallel experiment executor: sweep fan-out + content-addressed cache.

Reproducing the paper's evaluation means hundreds of independent
``Engine.run()`` calls — every (figure, parameter value, seed, scheduler)
grid point.  Each point is pure: a :class:`SimJob` (topology factory name
and arguments, full :class:`~repro.workload.generator.WorkloadConfig`,
scheduler name, path budget) determines its
:class:`~repro.metrics.summary.RunMetrics` exactly, because workload
generation, path enumeration, and the fluid engine are all deterministic.
That purity buys two things:

* **fan-out** — jobs ship to a ``ProcessPoolExecutor`` as tiny picklable
  specs (workloads are *regenerated* in the worker, never pickled); each
  worker builds and memoizes the Topology/PathService once per distinct
  spec, and results merge back positionally, so output is bit-identical
  to a serial run regardless of completion order;
* **memoisation** — a content-addressed on-disk cache maps the SHA-256 of
  (job spec, workload schema version, result schema version) to the
  metrics JSON, so interrupted ``report`` runs resume instantly and
  repeated CI runs skip completed points.

Serial is the default (``ExecutorConfig()``); ``jobs=0`` means one worker
per CPU.  See docs/usage.md "Parallel runs & the result cache".
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.metrics.summary import RESULT_SCHEMA_VERSION, RunMetrics, summarize
from repro.net.bcube import BCube
from repro.net.fattree import FatTree
from repro.net.ficonn import FiConn
from repro.net.paths import PathService
from repro.net.topology import Topology
from repro.net.trees import SingleRootedTree
from repro.sched.registry import make_scheduler
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError
from repro.workload.generator import (
    WORKLOAD_SCHEMA_VERSION,
    WorkloadConfig,
    generate_workload,
)


DECISION_VERSION = 2
"""Version of the decision code: the controller, the baselines, the engine.

Part of every cache key, so bumping it retires every cached result.  Bump
it in any change that alters a scheduling decision or a simulated
outcome; ``tests/integration/golden_traces.json`` records the version its
digests were made with, and the golden test fails until the two agree.
"""


def _dumbbell(**kwargs) -> Topology:
    # imported lazily: workload.traces pulls in the testbed module
    from repro.workload.traces import dumbbell

    return dumbbell(**kwargs)


#: topology factory registry — names are the picklable, cache-stable
#: identity of a topology; kwargs must be JSON-able scalars
TOPOLOGY_FACTORIES: dict[str, Callable[..., Topology]] = {
    "single_rooted": SingleRootedTree,
    "fat_tree": FatTree,
    "bcube": BCube,
    "ficonn": FiConn,
    "dumbbell": _dumbbell,
}


@dataclass(frozen=True, slots=True)
class TopologySpec:
    """A topology as data: registry name + sorted constructor kwargs.

    Hashable and picklable, so it can key worker-side memoisation and
    participate in cache digests.  ``topology_spec()`` is the ergonomic
    constructor.
    """

    factory: str
    args: tuple[tuple[str, float | int | str], ...] = ()

    def __post_init__(self) -> None:
        if self.factory not in TOPOLOGY_FACTORIES:
            raise ConfigurationError(
                f"unknown topology factory {self.factory!r}; "
                f"known: {sorted(TOPOLOGY_FACTORIES)}"
            )

    def build(self) -> Topology:
        return TOPOLOGY_FACTORIES[self.factory](**dict(self.args))

    def as_payload(self) -> list:
        """Canonical JSON-able form for cache digests."""
        return [self.factory, [[k, v] for k, v in self.args]]


def topology_spec(factory: str, **kwargs) -> TopologySpec:
    """Build a :class:`TopologySpec` from keyword arguments."""
    return TopologySpec(factory, tuple(sorted(kwargs.items())))


@dataclass(frozen=True, slots=True)
class SimJob:
    """One self-contained simulation: everything a worker needs.

    The workload is carried as its :class:`WorkloadConfig` (≈200 bytes),
    not as generated tasks — generation is deterministic, so the spec
    *is* the workload.
    """

    topology: TopologySpec
    workload: WorkloadConfig
    scheduler: str
    max_paths: int | None = 8

    def cache_payload(self) -> dict:
        """The content that addresses this job's cached result.

        Includes both schema versions and :data:`DECISION_VERSION`: a
        workload-generator change, a RunMetrics shape change or a
        decision change silently retires every old entry.
        """
        return {
            "decision_version": DECISION_VERSION,
            "workload_schema": WORKLOAD_SCHEMA_VERSION,
            "result_schema": RESULT_SCHEMA_VERSION,
            "topology": self.topology.as_payload(),
            "workload": asdict(self.workload),
            "scheduler": self.scheduler,
            "max_paths": self.max_paths,
        }

    def digest(self) -> str:
        blob = json.dumps(self.cache_payload(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# -- per-process topology memo -------------------------------------------------

#: (TopologySpec, max_paths) -> (Topology, PathService); one entry per
#: distinct spec per process.  In the parent it makes serial grids share
#: one PathService (as the historical serial sweep did); in pool workers
#: it is warmed by the initializer and reused across every job the worker
#: executes.
_TOPO_CACHE: dict[tuple[TopologySpec, int | None], tuple[Topology, PathService]] = {}


def build_topology(spec: TopologySpec, max_paths: int | None = 8) -> Topology:
    """The memoized topology for a spec (shares the worker/parent cache)."""
    return _topology_for(spec, max_paths)[0]


def _topology_for(
    spec: TopologySpec, max_paths: int | None
) -> tuple[Topology, PathService]:
    key = (spec, max_paths)
    hit = _TOPO_CACHE.get(key)
    if hit is None:
        topo = spec.build()
        hit = (topo, PathService(topo, max_paths=max_paths))
        _TOPO_CACHE[key] = hit
    return hit


def _warm_worker(keys: Sequence[tuple[TopologySpec, int | None]]) -> None:
    """Pool initializer: pre-build each distinct topology once per worker."""
    for spec, max_paths in keys:
        _topology_for(spec, max_paths)


def run_job(job: SimJob) -> RunMetrics:
    """Execute one grid point (in this process) and summarize it."""
    topo, paths = _topology_for(job.topology, job.max_paths)
    tasks = generate_workload(job.workload, list(topo.hosts))
    result = Engine(
        topo, tasks, make_scheduler(job.scheduler), path_service=paths,
    ).run()
    return summarize(result)


# -- result cache --------------------------------------------------------------


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting, printed in the CLI run footer."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    writes: int = 0

    def line(self) -> str:
        return (f"cache: hits={self.hits} misses={self.misses} "
                f"invalidations={self.invalidations}")


def default_cache_dir() -> Path:
    """``$REPRO_TAPS_CACHE``, else ``$XDG_CACHE_HOME/repro-taps``, else
    ``~/.cache/repro-taps``."""
    env = os.environ.get("REPRO_TAPS_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-taps"


class ResultCache:
    """Content-addressed RunMetrics store: ``<root>/<aa>/<digest>.json``.

    The digest covers the full job spec plus the workload and result
    schema versions (:meth:`SimJob.cache_payload`), so any semantic
    change to generation or metrics retires old entries without a
    version file or a sweep of the directory.  Entries are written
    atomically (tmp + rename); unreadable or mis-shaped entries count as
    an *invalidation*, fall back to recompute, and are overwritten.
    """

    def __init__(self, root: Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    def _path(self, job: SimJob) -> Path:
        digest = job.digest()
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, job: SimJob) -> RunMetrics | None:
        path = self._path(job)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            metrics = RunMetrics.from_json(text)
        except (ValueError, TypeError):
            # corrupt or stale-shaped entry: recompute, overwrite
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return metrics

    def put(self, job: SimJob, metrics: RunMetrics) -> None:
        path = self._path(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(metrics.to_json())
        tmp.replace(path)
        self.stats.writes += 1


# -- executor ------------------------------------------------------------------


@dataclass(slots=True)
class ExecutorConfig:
    """How to run a batch of jobs.

    ``jobs=1`` (default) runs in-process and bit-identically reproduces
    the historical serial sweep; ``jobs=0`` uses every available CPU;
    ``jobs>=2`` fans out over a process pool.  ``cache=None`` disables
    the result cache.  Jobs run untelemetered: telemetry describes one
    run (``repro-taps run --out-dir``), never a batch.
    """

    jobs: int = 1
    cache: ResultCache | None = None

    def effective_jobs(self) -> int:
        if self.jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0, got {self.jobs}")
        if self.jobs == 0:
            return max(1, os.cpu_count() or 1)
        return self.jobs


def make_executor(
    jobs: int | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
) -> ExecutorConfig:
    """CLI adapter: ``--jobs/--cache-dir/--no-cache`` → ExecutorConfig."""
    cache = ResultCache(Path(cache_dir) if cache_dir else None) if use_cache else None
    return ExecutorConfig(jobs=1 if jobs is None else jobs, cache=cache)


def execute_jobs(
    jobs: Iterable[SimJob],
    config: ExecutorConfig | None = None,
) -> list[RunMetrics]:
    """Run every job; return metrics aligned with the input order.

    Cache lookups happen up front in the parent, so a fully-warm batch
    performs zero ``Engine.run()`` calls and spawns no pool.  Misses run
    serially in-process (``jobs<=1``) or across the pool; either way the
    result list is positional, so aggregation downstream is independent
    of submission and completion order.
    """
    cfg = config or ExecutorConfig()
    job_list = list(jobs)
    results: list[RunMetrics | None] = [None] * len(job_list)
    cache = cfg.cache
    if cache is not None:
        pending = []
        for i, job in enumerate(job_list):
            cached = cache.get(job)
            if cached is None:
                pending.append(i)
            else:
                results[i] = cached
    else:
        pending = list(range(len(job_list)))

    workers = min(cfg.effective_jobs(), len(pending))
    if workers <= 1:
        for i in pending:
            results[i] = run_job(job_list[i])
            if cache is not None:
                cache.put(job_list[i], results[i])
    else:
        distinct = list({(job_list[i].topology, job_list[i].max_paths): None
                         for i in pending})
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_warm_worker,
            initargs=(distinct,),
        ) as pool:
            futures = {pool.submit(run_job, job_list[i]): i for i in pending}
            for fut in as_completed(futures):
                i = futures[fut]
                results[i] = fut.result()
                if cache is not None:
                    cache.put(job_list[i], results[i])
    return results  # type: ignore[return-value]
