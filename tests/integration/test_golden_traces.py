"""Golden decision digests: any change to a scheduling decision fails here.

Each canonical run below is small and deterministic.  Its decision trace
(the JSONL stream of :mod:`repro.trace`) and its outcome (per-flow status,
completion time and bytes, per-task outcome, the engine's work counters)
are hashed with SHA-256 and compared with the digests committed in
``golden_traces.json``.  The runs cover the TAPS controller's modes and,
because the engine loop is shared, one traced run of every scheduler in
:data:`repro.sched.registry.SCHEDULERS`.

The workloads come from :func:`_tasks`, not the numpy workload generator:
``random.Random`` uniforms and plain float arithmetic are the same on
every platform and Python version, so a digest changes only when the
decision code does.

The test never rewrites its own file.  When a change is *meant* to alter
decisions, regenerate the digests deliberately and bump
``repro.exp.executor.DECISION_VERSION`` in the same change (the file
records the version, and the test below asserts the two agree), so every
cached figure result computed by the old code is retired::

    PYTHONPATH=src python -m tests.integration.test_golden_traces --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.core.controller import TapsScheduler
from repro.core.reference import ReferenceTaps
from repro.core.reject import PreemptionPolicy
from repro.exp.configs import SMALL
from repro.exp.executor import DECISION_VERSION
from repro.net.paths import PathService
from repro.sched.registry import SCHEDULERS, make_scheduler
from repro.sim.engine import Engine, SimulationResult
from repro.sim.faults import LinkFault
from repro.trace import TraceRecorder
from repro.util.units import KB, ms
from repro.workload.flow import Task, make_task
from repro.workload.traces import dumbbell

GOLDEN = Path(__file__).with_name("golden_traces.json")
REGENERATE = "PYTHONPATH=src python -m tests.integration.test_golden_traces --write"

#: one outage shared by the faulted runs: the k=4 fat-tree's access link
#: e0_0 -> h0_0_1, so TAPS must drop a stranded task and the baselines'
#: flows to that host stall
OUTAGE = (LinkFault(15, 0.01, 0.03),)


def _run(topo, tasks, sched, max_paths=8, **engine_kw):
    recorder = TraceRecorder()
    result = Engine(
        topo, tasks, sched,
        path_service=PathService(topo, max_paths=max_paths),
        trace=recorder, **engine_kw,
    ).run()
    return result, recorder


def _tasks(
    hosts, seed: int, num_tasks: int, flows_per_task: int = 12,
    mean_size: float = 200 * KB, mean_deadline: float = 40 * ms,
    arrival_rate: float = 300.0,
) -> list[Task]:
    """Tasks shaped like the small-scale figure workloads: uniform
    inter-arrival gaps, flow counts, sizes, deadlines and endpoints around
    the given means."""
    rnd = random.Random(seed)
    tasks, now, fid = [], 0.0, 0
    for tid in range(num_tasks):
        specs = []
        for _ in range(1 + int(rnd.random() * (2 * flows_per_task - 1))):
            src = int(rnd.random() * len(hosts))
            dst = (src + 1 + int(rnd.random() * (len(hosts) - 1))) % len(hosts)
            specs.append((hosts[src], hosts[dst],
                          mean_size * (0.5 + rnd.random())))
        deadline = now + mean_deadline * (0.25 + 1.5 * rnd.random())
        tasks.append(make_task(tid, now, deadline, specs, fid))
        fid += len(specs)
        now += 2.0 * rnd.random() / arrival_rate
    return tasks


def _small_fat_tree(seed: int):
    """24 tasks on the small k=4 fat-tree, loaded until some are refused."""
    topo = SMALL.fat_tree()
    tasks = _tasks(list(topo.hosts), seed, num_tasks=24,
                   mean_deadline=15 * ms, arrival_rate=600.0)
    return topo, tasks


def _fig6_small():
    """One fig6 grid point at the small scale (single-rooted tree)."""
    topo = SMALL.single_rooted()
    tasks = _tasks(list(topo.hosts), seed=1, num_tasks=SMALL.num_tasks)
    return _run(topo, tasks, TapsScheduler(), max_paths=SMALL.max_paths)


def _outage():
    topo, tasks = _small_fat_tree(seed=3)
    return _run(topo, tasks, TapsScheduler(), faults=OUTAGE)


def _preemption():
    """The dumbbell case whose urgent newcomer discards a started victim."""
    topo = dumbbell(2)
    tasks = [
        make_task(0, 0.0, 6.5, [("L0", "R0", 6.0)], 0),
        make_task(1, 0.1, 6.2, [("L0", "R0", 6.0)], 1),
        make_task(2, 0.2, 20.0, [("L1", "R1", 3.0)], 2),
    ]
    sched = TapsScheduler(preemption=PreemptionPolicy.PROSPECTIVE)
    return _run(topo, tasks, sched)


def _batch_latency():
    topo, tasks = _small_fat_tree(seed=5)
    sched = TapsScheduler(batch_window=0.004, control_latency=0.0005)
    return _run(topo, tasks, sched)


def _incremental():
    topo, tasks = _small_fat_tree(seed=7)
    return _run(topo, tasks, TapsScheduler(reallocate_inflight=False))


def _horizon():
    topo, tasks = _small_fat_tree(seed=7)
    return _run(topo, tasks, TapsScheduler(), horizon=0.02)


def _baseline(name: str):
    def run():
        topo, tasks = _small_fat_tree(seed=2)
        return _run(topo, tasks, make_scheduler(name), faults=OUTAGE)

    return run


CASES = {
    "taps-fig6-small": _fig6_small,
    "taps-outage": _outage,
    "taps-preemption-dumbbell": _preemption,
    "taps-batch-latency": _batch_latency,
    "taps-incremental": _incremental,
    "taps-horizon": _horizon,
    **{f"sched-{name.replace(' ', '-')}-outage": _baseline(name)
       for name in SCHEDULERS},
}


def _result_blob(result: SimulationResult) -> dict:
    return {
        "finished_at": result.finished_at,
        "counters": asdict(result.counters),
        "flows": [
            [fs.flow.flow_id, fs.status.value, fs.completed_at,
             fs.bytes_sent, fs.remaining]
            for fs in result.flow_states
        ],
        "tasks": [
            [ts.task.task_id, ts.outcome.value, ts.accepted]
            for ts in result.task_states
        ],
    }


def digests(name: str) -> dict[str, str]:
    """SHA-256 of one canonical run's trace and outcome."""
    result, recorder = CASES[name]()
    outcome = json.dumps(_result_blob(result), separators=(",", ":"))
    return {
        "trace": hashlib.sha256(recorder.dumps().encode()).hexdigest(),
        "result": hashlib.sha256(outcome.encode()).hexdigest(),
    }


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_load()["runs"]) == sorted(CASES), (
        f"golden_traces.json is out of date; regenerate with:\n  {REGENERATE}"
    )


def test_decision_version_matches_golden_file():
    """A digest change must come with a DECISION_VERSION bump, which
    retires every cached figure result computed by the old code."""
    recorded = _load()["decision_version"]
    assert recorded == DECISION_VERSION, (
        f"golden_traces.json records DECISION_VERSION {recorded}, the code "
        f"says {DECISION_VERSION}; regenerate with:\n  {REGENERATE}"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    expected = _load()["runs"].get(name)
    got = digests(name)
    assert got == expected, (
        f"{name}: decisions changed ({expected} -> {got}).  If intended, "
        f"bump repro.exp.executor.DECISION_VERSION and regenerate with:\n"
        f"  {REGENERATE}"
    )


@pytest.mark.parametrize(
    "name", sorted(name for name in CASES if name.startswith("taps-"))
)
def test_reference_oracle_reproduces_digest(name, monkeypatch):
    """The literal oracle makes every golden TAPS run's decisions too."""
    monkeypatch.setattr(sys.modules[__name__], "TapsScheduler", ReferenceTaps)
    assert digests(name) == _load()["runs"][name]


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(f"usage: {REGENERATE}", file=sys.stderr)
        return 2
    doc = {
        "decision_version": DECISION_VERSION,
        "runs": {name: digests(name) for name in sorted(CASES)},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
