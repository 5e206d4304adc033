"""Synthetic workload generator replicating the paper's setup (§V-A).

"The arrival time of the tasks is generated following the poisson arrival
model, with the arrival rate λ … Each task has μ flows by average. All
flows within the same task arrive at the same time. … sending and receiving
points are randomly decided. The deadline of each task is generated by a
exponential distribution (default mean deadline = 40ms) … the sizes of each
flow are generated by a normal distribution (default mean flow size =
200KB). Note that all flows in the same task have the same deadline."

Knobs map one-to-one onto the paper's sweeps:

* ``mean_deadline``  — Fig. 6/7/8 (20…60 ms),
* ``mean_flow_size`` — Fig. 9 (60…300 KB),
* ``mean_flows_per_task`` — Fig. 11 (400…2000),
* ``num_tasks``      — Fig. 12 (30…270),
* single-flow tasks  — Fig. 10 (``flows_per_task_dist="constant"``, mean 1).

All draws are vectorised with a seeded numpy Generator; each draw family
uses its own child stream so sweeping one knob does not reshuffle the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng, spawn
from repro.util.units import KB, ms
from repro.workload.flow import Flow, Task

WORKLOAD_SCHEMA_VERSION = 1
"""Version of the generator's deterministic draw layout.

Bump whenever :func:`generate_workload` would emit different tasks for an
unchanged :class:`WorkloadConfig` — a new draw family, a reordered stream,
a changed distribution, a new config default.  The experiment executor's
result cache keys on this, so cached metrics computed under the old
generator are invalidated by construction."""


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Parameters of one generated workload.

    Defaults are the paper's (§V-A) except ``mean_flows_per_task``, whose
    paper default (1200) is impractical for CI; experiment configs set it
    per figure.
    """

    num_tasks: int = 30
    arrival_rate: float = 100.0  # tasks per second (λ)
    mean_deadline: float = 40 * ms
    mean_flow_size: float = 200 * KB
    flow_size_sigma_frac: float = 0.25  # σ as a fraction of the mean
    mean_flows_per_task: float = 30.0
    flows_per_task_dist: str = "poisson"  # "poisson" | "constant"
    flow_size_dist: str = "normal"
    """Flow-size law: ``"normal"`` (the paper's §V-A default, mean
    ``mean_flow_size`` with ``flow_size_sigma_frac``), ``"websearch"`` or
    ``"datamining"`` (empirical CDFs from published traces, rescaled so
    their mean equals ``mean_flow_size``), or ``"pareto"`` (bounded
    Pareto, α=1.2, rescaled likewise)."""
    min_flow_size: float = 1 * KB
    min_deadline: float = 1 * ms
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ConfigurationError("num_tasks must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if self.mean_deadline <= 0 or self.mean_flow_size <= 0:
            raise ConfigurationError("means must be positive")
        if self.mean_flows_per_task < 1:
            raise ConfigurationError("mean_flows_per_task must be >= 1")
        if self.flows_per_task_dist not in ("poisson", "constant"):
            raise ConfigurationError(
                f"unknown flows_per_task_dist {self.flows_per_task_dist!r}"
            )
        if self.flow_size_dist not in ("normal", "websearch", "datamining", "pareto"):
            raise ConfigurationError(
                f"unknown flow_size_dist {self.flow_size_dist!r}"
            )

    def with_(self, **kwargs) -> "WorkloadConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)


def _draw_sizes(
    config: WorkloadConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Flow sizes per ``config.flow_size_dist`` (see the field docstring)."""
    if config.flow_size_dist == "normal":
        return rng.normal(
            config.mean_flow_size,
            config.flow_size_sigma_frac * config.mean_flow_size,
            size=n,
        )
    from repro.util.distributions import (
        DATA_MINING_SIZE_CDF,
        WEB_SEARCH_SIZE_CDF,
        bounded_pareto,
    )

    if config.flow_size_dist == "pareto":
        raw = bounded_pareto(rng, n)
        return raw * (config.mean_flow_size / raw.mean()) if n else raw
    cdf = (
        WEB_SEARCH_SIZE_CDF
        if config.flow_size_dist == "websearch"
        else DATA_MINING_SIZE_CDF
    )
    raw = cdf.sample(rng, n)
    # rescale by the distribution's analytic mean so sweeps over
    # mean_flow_size behave identically across size laws
    return raw * (config.mean_flow_size / cdf.mean())


def generate_workload(
    config: WorkloadConfig,
    hosts: list[str] | tuple[str, ...],
    rng: np.random.Generator | int | None = None,
) -> list[Task]:
    """Generate tasks per ``config`` over the given host list.

    Returns tasks sorted by arrival time, ids dense from 0; flow ids dense
    from 0 across the whole workload.
    """
    if len(hosts) < 2:
        raise ConfigurationError("need at least two hosts for traffic")
    root = make_rng(config.seed if rng is None else rng)
    (
        rng_arrival,
        rng_count,
        rng_deadline,
        rng_size,
        rng_endpoints,
    ) = spawn(root, 5)
    n = config.num_tasks

    # Poisson arrivals: exponential inter-arrival gaps, first task at t=0.
    gaps = rng_arrival.exponential(1.0 / config.arrival_rate, size=n)
    arrivals = np.concatenate(([0.0], np.cumsum(gaps[:-1])))

    if config.flows_per_task_dist == "constant":
        counts = np.full(n, int(round(config.mean_flows_per_task)), dtype=np.int64)
    else:
        counts = rng_count.poisson(config.mean_flows_per_task, size=n)
    counts = np.maximum(counts, 1)

    # Per-task relative deadlines; floor keeps every task feasible in
    # principle (an instantaneously-expired task is noise, not load).
    rel_deadlines = np.maximum(
        rng_deadline.exponential(config.mean_deadline, size=n), config.min_deadline
    )

    total_flows = int(counts.sum())
    sizes = _draw_sizes(config, rng_size, total_flows)
    sizes = np.maximum(sizes, config.min_flow_size)

    # Endpoints: src uniform, dst uniform over the other hosts.
    n_hosts = len(hosts)
    src_idx = rng_endpoints.integers(0, n_hosts, size=total_flows)
    dst_off = rng_endpoints.integers(1, n_hosts, size=total_flows)
    dst_idx = (src_idx + dst_off) % n_hosts

    tasks: list[Task] = []
    flow_id = 0
    cursor = 0
    for t in range(n):
        m = int(counts[t])
        arrival = float(arrivals[t])
        deadline = arrival + float(rel_deadlines[t])
        flows = tuple(
            Flow(
                flow_id=flow_id + j,
                task_id=t,
                src=hosts[src_idx[cursor + j]],
                dst=hosts[dst_idx[cursor + j]],
                size=float(sizes[cursor + j]),
                release=arrival,
                deadline=deadline,
            )
            for j in range(m)
        )
        tasks.append(Task(task_id=t, arrival=arrival, deadline=deadline, flows=flows))
        flow_id += m
        cursor += m
    return tasks


def workload_stats(tasks: list[Task]) -> dict[str, float]:
    """Summary statistics of a workload, for reports and sanity tests."""
    flows = [f for t in tasks for f in t.flows]
    sizes = np.array([f.size for f in flows])
    slacks = np.array([f.slack for f in flows])
    return {
        "num_tasks": float(len(tasks)),
        "num_flows": float(len(flows)),
        "mean_flows_per_task": len(flows) / len(tasks) if tasks else 0.0,
        "mean_flow_size": float(sizes.mean()) if len(flows) else 0.0,
        "mean_deadline": float(slacks.mean()) if len(flows) else 0.0,
        "total_bytes": float(sizes.sum()),
        "horizon": max((t.deadline for t in tasks), default=0.0),
    }
