"""Workload trace (de)serialisation."""

import json

import pytest

from repro.util.errors import ConfigurationError
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.io import (
    FORMAT,
    load_tasks,
    save_tasks,
    tasks_from_dict,
    tasks_to_dict,
)
from repro.workload.traces import fig1_trace

HOSTS = [f"h{i}" for i in range(6)]


def _workload():
    cfg = WorkloadConfig(num_tasks=8, mean_flows_per_task=3, seed=5)
    return generate_workload(cfg, HOSTS)


def test_roundtrip_dict():
    tasks = _workload()
    back = tasks_from_dict(tasks_to_dict(tasks))
    assert len(back) == len(tasks)
    for a, b in zip(tasks, back):
        assert a.task_id == b.task_id
        assert a.arrival == b.arrival
        assert a.deadline == b.deadline
        assert [(f.flow_id, f.src, f.dst, f.size) for f in a.flows] == \
            [(f.flow_id, f.src, f.dst, f.size) for f in b.flows]


def test_roundtrip_file(tmp_path):
    tasks = _workload()
    p = tmp_path / "trace.json"
    save_tasks(tasks, p)
    back = load_tasks(p)
    assert tasks_to_dict(back) == tasks_to_dict(tasks)


def test_file_is_valid_json(tmp_path):
    p = tmp_path / "trace.json"
    save_tasks(_workload(), p)
    data = json.loads(p.read_text())
    assert data["format"] == FORMAT


def test_flows_inherit_task_timing():
    _, tasks = fig1_trace()
    back = tasks_from_dict(tasks_to_dict(tasks))
    for t in back:
        for f in t.flows:
            assert f.release == t.arrival
            assert f.deadline == t.deadline


def test_bad_format_rejected():
    with pytest.raises(ConfigurationError):
        tasks_from_dict({"format": "something-else", "tasks": []})


def test_non_finite_trace_value_names_the_field():
    data = tasks_to_dict(fig1_trace()[1])
    data["tasks"][0]["deadline"] = float("nan")
    with pytest.raises(ValueError, match="deadline must be finite"):
        tasks_from_dict(data)


def test_replay_equivalence(tmp_path):
    """A reloaded trace produces byte-identical simulation results."""
    from repro.core.controller import TapsScheduler
    from repro.metrics.summary import summarize
    from repro.sim.engine import Engine
    from repro.workload.traces import dumbbell

    topo = dumbbell(3)
    cfg = WorkloadConfig(num_tasks=6, mean_flows_per_task=2,
                         mean_flow_size=1.0, min_flow_size=0.2,
                         mean_deadline=2.0, arrival_rate=2.0, seed=9)
    tasks = generate_workload(cfg, list(topo.hosts))
    p = tmp_path / "t.json"
    save_tasks(tasks, p)
    m1 = summarize(Engine(topo, tasks, TapsScheduler()).run())
    m2 = summarize(Engine(topo, load_tasks(p), TapsScheduler()).run())
    assert m1.as_dict() == m2.as_dict()