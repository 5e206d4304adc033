"""Differential fuzz: the TAPS controller against the reference oracle.

Hypothesis draws small workloads on the k=4 fat-tree and the small
single-rooted tree — traffic packed onto a block of a few hosts or spread
over all of them, up to three link outages, and every controller knob
(batch window, control latency, preemption policy, ``Ftmp`` priority,
incremental admission).  Each case runs through
:class:`~repro.core.controller.TapsScheduler` and
:class:`~repro.core.reference.ReferenceTaps`, which share only Alg. 1's
plumbing, and must produce byte-identical decision traces, identical
outcomes and decision counters, a clean offline audit, and an
``explain`` verdict whose recorded reject clause agrees with the one
re-derived from the evidence.

A second fuzz checks the one part of that plumbing the oracle cannot
referee, because it shares it: a trial that stops at the newcomer's last
``Ftmp`` flow once clause 2 is certain.  Against a controller whose trial
plans the whole of ``Ftmp``, it must change nothing but the planner work
and the clause-2 evidence.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, fields

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.allocation import allocation_horizon
from repro.core.controller import TapsScheduler, TapsStats
from repro.core.reference import ReferenceTaps
from repro.core.reject import PreemptionPolicy
from repro.exp.configs import SMALL
from repro.net.paths import PathService
from repro.obs.explain import explain_run
from repro.obs.timeline import timeline_from
from repro.sched.base import PRIORITY_KEYS
from repro.sim.engine import Engine
from repro.sim.faults import LinkFault
from repro.trace import TraceRecorder, audit_trace
from repro.trace.events import TaskReject, TrialBegin
from repro.util.units import KB, ms
from repro.workload.flow import make_task

TOPOLOGIES = {"fattree": SMALL.fat_tree(), "tree": SMALL.single_rooted()}

#: decision counters; ``profile`` holds implementation work counters
DECISION_STATS = [f.name for f in fields(TapsStats) if f.name != "profile"]


@st.composite
def cases(draw):
    topo_name = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topo = TOPOLOGIES[topo_name]
    hosts = list(topo.hosts)
    if draw(st.booleans()):  # concentrated traffic: heavy contention
        first = draw(st.integers(0, len(hosts) - 3))
        hosts = hosts[first:first + draw(st.integers(3, 8))]
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    tasks, now, fid = [], 0.0, 0
    for tid in range(draw(st.integers(2, 12))):
        specs = []
        for _ in range(draw(st.integers(1, 8))):
            src, dst = rnd.sample(range(len(hosts)), 2)
            specs.append((hosts[src], hosts[dst], 200 * KB * (0.3 + 2 * rnd.random())))
        deadline = now + 15 * ms * (0.3 + 1.5 * rnd.random())
        tasks.append(make_task(tid, now, deadline, specs, fid))
        fid += len(specs)
        now += rnd.random() * draw(st.sampled_from([0.0, 0.5 * ms, 2 * ms]))
    faults = [
        LinkFault(rnd.randrange(len(topo.links)), start, start + length)
        for start, length in draw(st.lists(
            st.tuples(st.floats(0.0, 0.03), st.floats(0.001, 0.05)),
            max_size=3,
        ))
    ]
    knobs = dict(
        batch_window=draw(st.sampled_from([0.0, 0.0, 2 * ms])),
        control_latency=draw(st.sampled_from([0.0, 0.0, 0.4 * ms])),
        preemption=draw(st.sampled_from(list(PreemptionPolicy))),
        priority=draw(st.sampled_from(sorted(PRIORITY_KEYS))),
        reallocate_inflight=draw(st.booleans()),
    )
    return topo, tasks, faults, draw(st.integers(1, 8)), knobs


def _run(cls, topo, tasks, faults, max_paths, knobs, horizon=None):
    recorder = TraceRecorder()
    sched = cls(**knobs)
    result = Engine(topo, tasks, sched,
                    path_service=PathService(topo, max_paths=max_paths),
                    faults=faults, horizon=horizon, trace=recorder).run()
    outcome = json.dumps({
        "finished_at": result.finished_at,
        "counters": asdict(result.counters),
        "flows": [[fs.flow.flow_id, fs.status.value, fs.completed_at,
                   fs.bytes_sent, fs.remaining] for fs in result.flow_states],
        "tasks": [[ts.task.task_id, ts.outcome.value, ts.accepted]
                  for ts in result.task_states],
        "stats": [getattr(sched.stats, name) for name in DECISION_STATS],
    })
    return recorder, outcome


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_controller_matches_reference_oracle(case):
    topo, tasks, faults, max_paths, knobs = case
    fast, fast_outcome = _run(TapsScheduler, topo, tasks, faults, max_paths, knobs)
    ref, ref_outcome = _run(ReferenceTaps, topo, tasks, faults, max_paths, knobs)
    assert fast.dumps() == ref.dumps()
    assert fast_outcome == ref_outcome
    report = audit_trace(fast)
    assert report.ok, report.summary()
    for verdict in explain_run(timeline_from(fast)):
        assert verdict.clause_consistent, verdict.lines()


class FullTrialTaps(TapsScheduler):
    """The controller with a trial that plans all of ``Ftmp`` in one call."""

    def _trial(self, flows, ledger, start, frozen_flows=None, announce=None):
        ftmp = sorted(flows, key=self._priority_key)
        if announce is not None and self.trace is not None:
            now, task_id, attempt = announce
            self.trace.emit(TrialBegin(
                now, task_id=task_id, attempt=attempt,
                flows=self._trial_flows(ftmp),
            ))
        ledger.begin_trial()
        horizon = allocation_horizon(
            ftmp + frozen_flows if frozen_flows else ftmp, self._capacity, start
        )
        plans = self._path_calculation(ftmp, ledger, start, horizon)
        self.stats.reallocations += 1
        return plans


def _split_flows_planned(outcome: str) -> tuple[dict, int]:
    doc = json.loads(outcome)
    return doc, doc["stats"].pop(DECISION_STATS.index("flows_planned"))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_refused_trial_stop_is_exact(case):
    topo, tasks, faults, max_paths, knobs = case
    cut, cut_outcome = _run(TapsScheduler, topo, tasks, faults, max_paths, knobs)
    full, full_outcome = _run(FullTrialTaps, topo, tasks, faults, max_paths, knobs)
    cut_doc, cut_planned = _split_flows_planned(cut_outcome)
    full_doc, full_planned = _split_flows_planned(full_outcome)
    assert cut_doc == full_doc
    assert cut_planned <= full_planned
    assert len(cut.events) == len(full.events)
    for c, f in zip(cut.events, full.events):
        if c == f:
            continue
        # only a clause-2 refusal's evidence may shrink, to a prefix of
        # the full trial's misses that still names a newcomer flow
        assert isinstance(c, TaskReject) and isinstance(f, TaskReject)
        assert c.reason == f.reason == "would-miss"
        assert c.clause == f.clause == 2
        assert (c.time, c.seq, c.task_id, c.victim_ratio, c.new_ratio) == (
            f.time, f.seq, f.task_id, f.victim_ratio, f.new_ratio)
        n = len(c.missing)
        assert n < len(f.missing)
        assert c.missing == f.missing[:n]
        assert c.lateness == f.lateness[:n]
        assert any(tid == c.task_id for _, tid in c.missing)
    report = audit_trace(cut)
    assert report.ok, report.summary()
