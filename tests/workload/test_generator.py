"""Workload generator: §V-A distributions, reproducibility, validation."""

import numpy as np
import pytest

from repro.util.errors import ConfigurationError
from repro.util.units import KB, ms
from repro.workload.generator import WorkloadConfig, generate_workload, workload_stats

HOSTS = [f"h{i}" for i in range(20)]


def _gen(**kw):
    cfg = WorkloadConfig(**{**dict(num_tasks=50, seed=3), **kw})
    return generate_workload(cfg, HOSTS)


class TestConfigValidation:
    def test_defaults_are_paper(self):
        cfg = WorkloadConfig()
        assert cfg.mean_deadline == pytest.approx(40 * ms)
        assert cfg.mean_flow_size == pytest.approx(200 * KB)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_tasks", 0),
            ("arrival_rate", 0.0),
            ("mean_deadline", -1.0),
            ("mean_flow_size", 0.0),
            ("mean_flows_per_task", 0.5),
            ("flows_per_task_dist", "weibull"),
            ("seed", -1),
        ],
    )
    def test_invalid_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**{field: value})

    def test_with_returns_modified_copy(self):
        a = WorkloadConfig()
        b = a.with_(num_tasks=99)
        assert b.num_tasks == 99
        assert a.num_tasks == 30


class TestGeneration:
    def test_reproducible(self):
        t1, t2 = _gen(), _gen()
        assert len(t1) == len(t2)
        for a, b in zip(t1, t2):
            assert a.arrival == b.arrival
            assert a.deadline == b.deadline
            assert [f.size for f in a.flows] == [f.size for f in b.flows]

    def test_seed_changes_output(self):
        t1 = _gen(seed=1)
        t2 = _gen(seed=2)
        assert [a.arrival for a in t1] != [a.arrival for a in t2]

    def test_task_ids_dense_and_sorted_by_arrival(self):
        tasks = _gen()
        assert [t.task_id for t in tasks] == list(range(len(tasks)))
        arrivals = [t.arrival for t in tasks]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0

    def test_flow_ids_dense(self):
        tasks = _gen()
        ids = [f.flow_id for t in tasks for f in t.flows]
        assert ids == list(range(len(ids)))

    def test_flows_share_arrival_and_deadline(self):
        for t in _gen():
            assert all(f.release == t.arrival for f in t.flows)
            assert all(f.deadline == t.deadline for f in t.flows)

    def test_endpoints_valid(self):
        for t in _gen():
            for f in t.flows:
                assert f.src in HOSTS and f.dst in HOSTS and f.src != f.dst

    def test_sizes_floored(self):
        tasks = _gen(mean_flow_size=2 * KB, flow_size_sigma_frac=2.0)
        assert min(f.size for t in tasks for f in t.flows) >= 1 * KB

    def test_deadlines_floored(self):
        tasks = _gen(mean_deadline=0.1 * ms, min_deadline=1 * ms)
        assert min(t.deadline - t.arrival for t in tasks) >= 1 * ms

    def test_constant_flow_count(self):
        tasks = _gen(flows_per_task_dist="constant", mean_flows_per_task=7)
        assert {t.num_flows for t in tasks} == {7}

    def test_poisson_flow_count_at_least_one(self):
        tasks = _gen(mean_flows_per_task=1.1)
        assert min(t.num_flows for t in tasks) >= 1

    def test_needs_two_hosts(self):
        with pytest.raises(ConfigurationError):
            generate_workload(WorkloadConfig(), ["only"])


class TestStatistics:
    def test_arrival_rate_approximate(self):
        tasks = _gen(num_tasks=2000, arrival_rate=100.0)
        gaps = np.diff([t.arrival for t in tasks])
        assert np.mean(gaps) == pytest.approx(1 / 100.0, rel=0.1)

    def test_mean_deadline_approximate(self):
        tasks = _gen(num_tasks=3000, mean_deadline=40 * ms)
        slacks = [t.deadline - t.arrival for t in tasks]
        assert np.mean(slacks) == pytest.approx(40 * ms, rel=0.1)

    def test_mean_size_approximate(self):
        tasks = _gen(num_tasks=1000, mean_flow_size=200 * KB)
        sizes = [f.size for t in tasks for f in t.flows]
        assert np.mean(sizes) == pytest.approx(200 * KB, rel=0.05)

    def test_mean_flow_count_approximate(self):
        tasks = _gen(num_tasks=1500, mean_flows_per_task=12)
        counts = [t.num_flows for t in tasks]
        assert np.mean(counts) == pytest.approx(12, rel=0.1)

    def test_workload_stats_fields(self):
        tasks = _gen()
        stats = workload_stats(tasks)
        assert stats["num_tasks"] == len(tasks)
        assert stats["num_flows"] == sum(t.num_flows for t in tasks)
        assert stats["total_bytes"] == pytest.approx(
            sum(t.total_size for t in tasks)
        )
        assert stats["horizon"] == max(t.deadline for t in tasks)

    def test_sweep_knob_isolation(self):
        """Changing one knob must not reshuffle unrelated draws (child
        streams) — endpoints stay identical across a deadline sweep."""
        a = _gen(mean_deadline=20 * ms)
        b = _gen(mean_deadline=60 * ms)
        ea = [(f.src, f.dst) for t in a for f in t.flows]
        eb = [(f.src, f.dst) for t in b for f in t.flows]
        assert ea == eb
