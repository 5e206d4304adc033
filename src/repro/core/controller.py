"""Alg. 1 — the TAPS controller as a simulator scheduler.

On every task arrival the controller:

1. gathers ``Ftmp`` = the new task's flows + every in-flight accepted flow
   (their *remaining* sizes — progress made so far is kept);
2. sorts by EDF then SJF and runs :func:`~repro.core.allocation.path_calculation`
   on a **fresh** trial ledger (global re-optimisation: in-flight flows may
   be moved to new slices and even new paths — this is TAPS' preemption).
   The trial stops after the new task's last flow in ``Ftmp`` if one of
   its flows is already late or unplanned, since the task is then refused
   whatever the rest of ``Ftmp`` does;
3. applies the :class:`~repro.core.reject.RejectRule`; on *discard-victim*
   the trial repeats without the victim's flows.  The victim is killed
   only when the new task commits, so if the new task is refused anyway
   (e.g. by the flow-table limit) the victim keeps its plans;
4. on acceptance commits the trial (plans + ledger); on rejection drops it
   — in-flight flows keep their previous slices untouched, and the rejected
   task never sends a byte.

Incremental admission and fault reroute run the same trial step
(:meth:`TapsScheduler._trial`) with a different ledger and retry rule.

Senders then transmit at full link rate exactly inside their allocated
slices (paper §IV-D); accepted flows meet their deadlines by construction,
so the only wasted bytes TAPS can produce come from preempted victims.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from time import perf_counter

from repro.core.allocation import (
    FlowPlan,
    allocation_horizon,
    path_calculation,
)
from repro.core.reject import Decision, PreemptionPolicy, RejectRule
from repro.core.occupancy import OccupancyLedger
from repro.obs.hotpath import HotPathCounters
from repro.obs.registry import MetricsRegistry
from repro.sched.base import PRIORITY_KEYS, Scheduler
from repro.sim.state import EPS, FlowState, FlowStatus, TaskState
from repro.trace.events import (
    FaultReallocation,
    PlanRecord,
    Preemption,
    TaskAccept,
    TaskDrop,
    TaskReject,
    TrialBegin,
    TrialRollback,
)
from repro.trace.recorder import TraceRecorder
from repro.util.intervals import IntervalSet, up

#: how far into the future a down link is considered unusable; the
#: controller does not know outage durations, so "forever" — recovery
#: triggers a fresh reallocation that lifts the block.  Far beyond the
#: exact plan-time range, so it must only ever be compared, never added to
_BLOCK_HORIZON = 1e15


@dataclass(slots=True)
class TapsStats:
    """Controller decision counters (reported by experiments).

    ``profile`` holds the hot-path work counters (union-cache hits,
    intervals scanned, candidates pruned, planner calls) — see
    :class:`~repro.obs.hotpath.HotPathCounters`.  They count work, never
    time, so two runs of one workload give equal counters.
    """

    tasks_accepted: int = 0
    tasks_rejected: int = 0
    tasks_preempted: int = 0
    reallocations: int = 0
    backstop_kills: int = 0
    flows_planned: int = 0
    fault_reroutes: int = 0
    tasks_dropped_on_fault: int = 0
    profile: HotPathCounters = field(default_factory=HotPathCounters)


class TapsScheduler(Scheduler):
    """TAPS: task-level deadline-aware preemptive flow scheduling.

    Parameters
    ----------
    preemption:
        Case-3 comparison policy of the reject rule (see
        :class:`~repro.core.reject.PreemptionPolicy`); the default is the
        paper's literal transmitted-bytes reading.
    batch_window:
        Alg. 1 line 7's wait interval ``T``: tasks arriving within the
        window are admitted together at its end, most urgent first —
        batching buys admission-order freedom at the cost of start
        latency.  0 (default) admits immediately, which is exact for the
        paper's workloads (all flows of a task arrive together anyway).
    control_latency:
        One controller round-trip (probe → compute → install, Fig. 4).
        Transmission slices are only allocated from ``now + latency``;
        reallocation of in-flight flows likewise pauses them for one
        RTT (a conservative model of rule installation delay).
    flow_table_limit:
        §IV-C's switch constraint: "only the first 1k entries are
        installed on a particular switch."  When set, a task whose
        admission would put more than this many concurrently-planned
        flows through any one switch is rejected.  ``None`` (default)
        models unconstrained tables, like the paper's simulations.
    reallocate_inflight:
        Alg. 1 re-path-calculates *all* of ``Ftmp`` on each arrival —
        in-flight flows may move to new slices and paths (the paper's
        global preemptive re-optimisation; default).  ``False`` switches
        to **incremental admission**: existing plans are frozen and only
        the new task's flows are packed around them (cheaper, Varys-like
        rigidity) — the ablation benchmark measures what the global
        reallocation buys.
    priority:
        The ``Ftmp`` sort order of Alg. 1 line 9.  The paper prescribes
        ``"edf_sjf"``; ``"edf"``, ``"sjf"`` and ``"fifo"`` are ablation
        variants (see :data:`repro.sched.base.PRIORITY_KEYS`).
    trace:
        Optional :class:`~repro.trace.recorder.TraceRecorder`: the
        controller emits its decision pipeline into it as typed events
        (trial begin/rollback, accept with the full committed plan
        table, reject with its reason, lateness and the rule clause that
        fired, preemptions, fault reallocations) for offline auditing
        (:func:`~repro.trace.audit.audit_trace`) and per-task
        explanation (``repro-taps explain``).  Events are stamped at the
        decision time and record decisions only — never fast-path
        internals — so decision-equal runs (e.g. this controller and
        :class:`~repro.core.reference.ReferenceTaps`) emit identical
        streams.  When the engine is constructed with a recorder it hands
        it to an un-traced TAPS scheduler automatically.
    telemetry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  The
        controller records each admission's wall latency into the
        ``controller/admission_latency_seconds`` histogram, opens
        ``admission``/``trial``/``commit``/``rollback`` spans around the
        Alg. 1 pipeline (with ``path_calculation`` nested inside), and
        publishes its decision and hot-path counters at end of run via
        :meth:`publish_telemetry`.  Telemetry is strictly one-way
        observation — no decision ever reads it — so traces stay
        byte-identical with it on or off (see DESIGN.md §7).  ``None``
        (default) disables instrumentation entirely; like ``trace``, the
        engine hands its registry to an uninstrumented TAPS scheduler
        automatically.
    """

    name = "TAPS"

    def __init__(
        self,
        preemption: PreemptionPolicy = PreemptionPolicy.PROGRESS,
        batch_window: float = 0.0,
        control_latency: float = 0.0,
        flow_table_limit: int | None = None,
        reallocate_inflight: bool = True,
        priority: str = "edf_sjf",
        trace: TraceRecorder | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__()
        if batch_window < 0 or control_latency < 0:
            raise ValueError("batch_window/control_latency must be >= 0")
        if flow_table_limit is not None and flow_table_limit < 1:
            raise ValueError("flow_table_limit must be >= 1")
        self.rule = RejectRule(preemption)
        self.batch_window = batch_window
        self.control_latency = control_latency
        self.flow_table_limit = flow_table_limit
        self.reallocate_inflight = reallocate_inflight
        if priority not in PRIORITY_KEYS:
            raise ValueError(
                f"unknown priority {priority!r}; known: {sorted(PRIORITY_KEYS)}"
            )
        self.priority = priority
        self._priority_key = PRIORITY_KEYS[priority]
        self.trace = trace
        self.telemetry = telemetry
        self._switch_of_link: dict[int, str] = {}
        self.stats = TapsStats()
        self.ledger = self._new_ledger()
        self.plans = {}
        self._capacity: float = 0.0
        self._task_states: dict[int, TaskState] = {}
        self._pending: list[TaskState] = []
        self._flush_at: float | None = None
        self._down_links: frozenset[int] = frozenset()
        self._accepted_flows: dict[int, FlowState] = {}

    def _new_ledger(self) -> OccupancyLedger:
        """A fresh, empty ledger wired to the profile."""
        return OccupancyLedger(profile=self.stats.profile)

    @property
    def plans(self) -> dict[int, FlowPlan]:
        """The committed plan table, flow id → plan.

        Replace it by assignment, which also resets the sender model's
        slice-boundary heaps; in place, entries may only be popped.
        """
        return self._plans

    @plans.setter
    def plans(self, table: dict[int, FlowPlan]) -> None:
        self._plans = table
        self._rate_heap: list[tuple[float, int]] | None = None
        self._change_heap: list[tuple[float, int]] | None = None

    def attach(self, topology, paths) -> None:
        super().attach(topology, paths)
        self.stats = TapsStats()
        self.ledger = self._new_ledger()
        self.plans = {}
        self._task_states = {}
        self._pending = []
        self._flush_at = None
        self._down_links = frozenset()
        self._accepted_flows = {}
        self._capacity = topology.uniform_capacity()
        switch_set = set(topology.switches)
        self._switch_of_link = {
            l.index: l.src for l in topology.links if l.src in switch_set
        }
        if self.trace is not None:
            # trace identity: what the auditor needs to pick invariants.
            # Deliberately excludes the implementation — decision-equal
            # controllers must serialize identically.
            self.trace.set_meta(
                scheduler=self.name,
                priority=self.priority,
                preemption=self.rule.policy.value,
                reallocate_inflight=self.reallocate_inflight,
                exclusive_links=True,
                capacity=self._capacity,
            )
        if self.telemetry is not None:
            self.telemetry.set_meta(
                scheduler=self.name,
                priority=self.priority,
                preemption=self.rule.policy.value,
            )

    # -- telemetry ----------------------------------------------------------

    def _span(self, name: str):
        """A telemetry span, or a free no-op when telemetry is off."""
        tel = self.telemetry
        return tel.spans.span(name) if tel is not None else nullcontext()

    def publish_telemetry(self) -> None:
        """Mirror decision and hot-path counters into the registry.

        Called once at end of run (the engine does it automatically);
        counters accumulate cheaply on :class:`TapsStats` during the run
        and land in the registry here, so the admission hot path never
        touches registry instruments.
        """
        tel = self.telemetry
        if tel is None:
            return
        s = self.stats
        for name in (
            "tasks_accepted", "tasks_rejected", "tasks_preempted",
            "reallocations", "backstop_kills", "flows_planned",
            "fault_reroutes", "tasks_dropped_on_fault",
        ):
            tel.counter("controller/" + name).inc(getattr(s, name))
        s.profile.publish_to(tel)

    # -- decision tracing ---------------------------------------------------

    def _emit(self, event) -> None:
        if self.trace is not None:
            self.trace.emit(event)

    def _plan_records(self) -> tuple[PlanRecord, ...]:
        """The committed plan table as trace records (sorted by flow id —
        construction-order independent, so snapshots diff cleanly)."""
        return tuple(
            PlanRecord(
                flow_id=fid,
                task_id=p.flow_state.flow.task_id,
                path=tuple(p.path),
                slices=tuple(p.slices._b),
                completion=p.completion,
                deadline=p.flow_state.flow.deadline,
            )
            for fid, p in sorted(self.plans.items())
        )

    @staticmethod
    def _trial_flows(
        ftmp: list[FlowState],
    ) -> tuple[tuple[int, float, float, float], ...]:
        """``Ftmp`` in trial order, with the sort-key fields the auditor
        re-checks: ``(flow_id, deadline, remaining, release)``."""
        return tuple(
            (fs.flow.flow_id, fs.flow.deadline, fs.remaining, fs.flow.release)
            for fs in ftmp
        )

    # -- admission (Alg. 1) ------------------------------------------------

    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        if self.batch_window > 0:
            # Alg. 1 line 7: wait T, gathering concurrent arrivals
            self._pending.append(task_state)
            if self._flush_at is None:
                self._flush_at = now + self.batch_window
            return
        self._admit_task(task_state, now)

    def _flush_pending(self, now: float) -> None:
        """Admit the batched tasks, most urgent (EDF) first."""
        pending, self._pending = self._pending, []
        self._flush_at = None
        for ts in sorted(pending, key=lambda t: (t.task.deadline, t.task.task_id)):
            self._admit_task(ts, now)

    def _admit_task(self, task_state: TaskState, now: float) -> None:
        tel = self.telemetry
        if tel is None:
            self._admit(task_state, now)
            return
        with tel.spans.span("admission"):
            t0 = perf_counter()
            try:
                self._admit(task_state, now)
            finally:
                tel.histogram(
                    "controller/admission_latency_seconds"
                ).observe(perf_counter() - t0)

    def _admit(self, task_state: TaskState, now: float) -> None:
        """Alg. 1 for one task: trial, reject rule, preempt and retry,
        commit.

        Full Alg. 1 re-plans every in-flight flow on a fresh outage
        ledger; incremental admission (``reallocate_inflight=False``)
        plans only the newcomer's flows on the live ledger, around the
        frozen committed plans.  Trace events are stamped at the decision
        time ``now``; slices are planned from ``now + control_latency``,
        rounded up onto the plan grid.
        """
        task_id = task_state.task.task_id
        self._task_states[task_id] = task_state
        # one controller round-trip before any new slice can start
        start = up(now + self.control_latency)
        new_flows = [fs for fs in task_state.flow_states if fs.active]
        if task_state.task.deadline <= start or not new_flows:
            self._reject(task_state, now, "deadline-expired")
            return

        inflight = [fs for fs in self._accepted_flows.values() if fs.active]
        if self.reallocate_inflight:
            ledger, frozen, replan, frozen_flows = (
                self._outage_ledger(), {}, inflight, []
            )
        else:
            ledger, frozen, replan, frozen_flows = (
                self.ledger, self.plans, [], inflight
            )
        victims: list[int] = []
        attempt = 0
        while True:
            attempt += 1
            with self._span("trial"):
                trial_plans = self._trial(
                    replan + new_flows, ledger, start, frozen_flows,
                    announce=(now, task_id, attempt),
                )
                self.stats.flows_planned += len(trial_plans)
                # a new-task flow with no usable path at all (outage)
                missing = tuple(
                    (fs.flow.flow_id, task_id)
                    for fs in new_flows
                    if fs.flow.flow_id not in trial_plans
                )
                if missing:
                    self._reject(task_state, now, "unreachable", ledger,
                                 missing=missing)
                    return
                decision = self.rule.evaluate(
                    trial_plans, task_state, self._task_states
                )

            if decision.decision is Decision.ACCEPT:
                if not self._tables_fit(trial_plans, frozen):
                    # §IV-C: some switch would exceed its install budget
                    self._reject(task_state, now, "table-limit", ledger)
                    return
                with self._span("commit"):
                    ledger.commit_trial()
                    self._commit(task_state, {**frozen, **trial_plans},
                                 ledger, victims, now)
                return

            if decision.decision is Decision.REJECT_NEW:
                # previous plans (untouched) stay in force; the rule names
                # only flows the trial planned
                lateness = tuple(
                    (fid, trial_plans[fid].completion
                     - trial_plans[fid].flow_state.flow.deadline)
                    for fid in decision.missing_flow_ids
                )
                missing = tuple(
                    (fid, trial_plans[fid].flow_state.flow.task_id)
                    for fid in decision.missing_flow_ids
                )
                self._reject(task_state, now, "would-miss", ledger,
                             clause=decision.clause, missing=missing,
                             lateness=lateness,
                             victim_ratio=decision.victim_ratio,
                             new_ratio=decision.new_ratio)
                return

            # DISCARD_VICTIM (full Alg. 1 only: an incremental trial plans
            # the newcomer alone, so every miss is its own): retry without
            # the victim's flows.  The kill is DEFERRED to commit time — if
            # the newcomer ends up rejected anyway (e.g. by the table
            # limit), the victim's committed plans were never touched and
            # it survives intact.
            assert decision.victim_task_id is not None
            self._emit(TrialRollback(
                now, task_id=task_id, attempt=attempt,
                victim_task_id=decision.victim_task_id,
                victim_ratio=decision.victim_ratio,
                new_ratio=decision.new_ratio,
            ))
            with self._span("rollback"):
                victims.append(decision.victim_task_id)
                replan = [
                    fs for fs in replan
                    if fs.flow.task_id != decision.victim_task_id
                ]
                ledger.rollback_trial()

    def _trial(
        self,
        flows: list[FlowState],
        ledger,
        start: float,
        frozen_flows: list[FlowState] | None = None,
        announce: tuple[float, int, int] | None = None,
    ) -> dict[int, FlowPlan]:
        """The trial step of Alg. 1, shared by admission and fault reroute.

        Sorts ``flows`` into ``Ftmp`` order (Alg. 1 line 9), opens a
        journal trial on ``ledger`` and plans ``Ftmp`` from ``start``
        around whatever the ledger already holds (Alg. 2/3).  The caller
        keeps the trial (``ledger.commit_trial()``), undoes it to retry
        (``rollback_trial()``), or drops a fresh ledger outright.
        ``frozen_flows`` are in-flight flows whose committed plans stay as
        they are; they only widen the horizon.  ``announce`` —
        ``(decision time, task id, attempt)`` — emits the admission's
        :class:`~repro.trace.events.TrialBegin`.

        An admission trial stops early: Alg. 2 plans ``Ftmp`` greedily in
        order, so the newcomer's plans are final once its last flow is
        planned.  If one of them is missing or late, the newcomer is
        refused whatever the rest of ``Ftmp`` does (the ``unreachable``
        check, or clause 2 of the reject rule), and the plans of that
        prefix are returned as they stand.  Otherwise the rest is planned
        on the same ledger with the same horizon, exactly as one call.
        """
        ftmp = sorted(flows, key=self._priority_key)
        cut = len(ftmp)
        if announce is not None:
            now, task_id, attempt = announce
            if self.trace is not None:
                self.trace.emit(TrialBegin(
                    now, task_id=task_id, attempt=attempt,
                    flows=self._trial_flows(ftmp),
                ))
            while cut and ftmp[cut - 1].flow.task_id != task_id:
                cut -= 1
        ledger.begin_trial()
        horizon = allocation_horizon(
            ftmp + frozen_flows if frozen_flows else ftmp, self._capacity, start
        )
        head, tail = ftmp[:cut], ftmp[cut:]
        plans = self._path_calculation(head, ledger, start, horizon)
        if tail and all(
            fs.flow.flow_id in plans and plans[fs.flow.flow_id].meets_deadline
            for fs in head if fs.flow.task_id == task_id
        ):
            plans.update(self._path_calculation(tail, ledger, start, horizon))
        self.stats.reallocations += 1
        return plans

    def _path_calculation(
        self, ftmp: list[FlowState], ledger, start: float, horizon: float
    ) -> dict[int, FlowPlan]:
        """Alg. 2/3 over ``Ftmp``: the one place a planner call is counted
        (``path_calculation_calls``) and timed, as the ``path_calculation``
        telemetry span."""
        self.stats.profile.path_calculation_calls += 1
        with self._span("path_calculation"):
            return self._plan(ftmp, ledger, start, horizon)

    def _plan(
        self, ftmp: list[FlowState], ledger, start: float, horizon: float
    ) -> dict[int, FlowPlan]:
        """The planner itself: :func:`~repro.core.allocation.path_calculation`
        (the oracle swaps in the literal one)."""
        return path_calculation(
            ftmp, ledger, self.paths, self._capacity, start, horizon,
            self.stats.profile,
        )

    def _commit(
        self,
        task_state: TaskState,
        plans: dict[int, FlowPlan],
        ledger,
        victims: list[int],
        now: float,
    ) -> None:
        # the preemption decided during the trial becomes real only now:
        # kill the victims' flows (their bytes become TAPS' only waste).
        # They keep accepted=True — they *were* admitted; the preemption
        # shows up as a FAILED outcome.
        for victim_id in victims:
            victim_state = self._task_states[victim_id]
            killed: list[int] = []
            for fs in victim_state.flow_states:
                if fs.active:
                    fs.kill(FlowStatus.TERMINATED)
                    killed.append(fs.flow.flow_id)
                self.plans.pop(fs.flow.flow_id, None)
                self._accepted_flows.pop(fs.flow.flow_id, None)
            self._emit(Preemption(
                now, victim_task_id=victim_id,
                by_task_id=task_state.task.task_id,
                killed_flows=tuple(killed),
            ))

        self.plans = plans
        self.ledger = ledger
        for plan in plans.values():
            plan.flow_state.path = plan.path
        task_state.accepted = True
        for fs in task_state.flow_states:
            if fs.active:
                self._accepted_flows[fs.flow.flow_id] = fs
        self.stats.tasks_accepted += 1
        self.stats.tasks_preempted += len(victims)
        profile = self.stats.profile
        if len(victims) > profile.max_reallocation_depth:
            profile.max_reallocation_depth = len(victims)
        if self.trace is not None:
            self.trace.emit(TaskAccept(
                now, task_id=task_state.task.task_id,
                victims=tuple(sorted(victims)),
                plans=self._plan_records(),
            ))

    def _reject(
        self,
        task_state: TaskState,
        now: float,
        reason: str,
        trial_ledger=None,
        clause: int | None = None,
        missing: tuple = (),
        lateness: tuple = (),
        victim_ratio: float | None = None,
        new_ratio: float | None = None,
    ) -> None:
        """Refuse the task.  A refused trial on the live ledger
        (incremental admission) is undone; a fresh trial ledger is simply
        dropped."""
        if trial_ledger is self.ledger:
            trial_ledger.rollback_trial()
        self._reject_task(task_state)
        self.stats.tasks_rejected += 1
        self._emit(TaskReject(
            now, task_id=task_state.task.task_id, reason=reason,
            clause=clause, missing=missing, lateness=lateness,
            victim_ratio=victim_ratio, new_ratio=new_ratio,
        ))

    def _tables_fit(
        self, trial_plans: dict[int, FlowPlan], frozen: dict[int, FlowPlan]
    ) -> bool:
        """Whether every switch's concurrent planned-flow count fits its
        install budget (``flow_table_limit``), counting the trial's plans
        together with the ``frozen`` committed ones."""
        if self.flow_table_limit is None:
            return True
        per_switch: dict[str, int] = {}
        for plan in {**frozen, **trial_plans}.values():
            if not plan.flow_state.active:
                continue
            for sw in {self._switch_of_link[l] for l in plan.path
                       if l in self._switch_of_link}:
                count = per_switch.get(sw, 0) + 1
                if count > self.flow_table_limit:
                    return False
                per_switch[sw] = count
        return True

    # -- sender model (paper §IV-D) -------------------------------------------
    #
    # A plan's rate, ``capacity if slices.contains(now + 2·EPS) else 0``,
    # can only change at one of its own slice boundaries, so each pending
    # plan waits in two min-heaps of ``(boundary, flow_id)``: ``_rate_heap``
    # holds its first boundary after the probe its rate was last set at,
    # ``_change_heap`` its first boundary after ``now + EPS`` at the last
    # ``next_change``.  The thresholds differ by one EPS — a boundary in
    # (now + EPS, now + 2·EPS] is passed for rates but still upcoming as a
    # change point — hence two heaps.  Each event then costs O(log n) per
    # plan whose rate changes, and ``assign_rates`` reports those plans'
    # flows to the engine (``rate_changes``).  Replacing the plan table
    # drops both heaps (the ``plans`` setter) and the next call re-seeds
    # them from the whole table, reporting ``None``; plans popped on
    # completion, preemption or fault drop, and flows killed without a
    # pop, are skipped when their entry surfaces.

    def _seed(self) -> list[tuple[float, int]]:
        """A heap with every plan due at once."""
        heap = [(-math.inf, fid) for fid in self._plans]
        heapify(heap)
        return heap

    def assign_rates(self, now: float) -> None:
        """Rates follow the slices: full rate inside one, zero outside.

        Only plans with a slice boundary since the last call are
        re-evaluated, and their flows are the rate report
        (``rate_changes``); it is ``None`` when the plan table was
        replaced since the last call, because then every plan is
        re-evaluated and paths may have moved.  A rate the engine zeroed
        on a down link is not restored before the flow's next boundary.
        That is exact: the down-link set changes only through
        :meth:`on_link_state_change`, which replaces the plan table and so
        re-evaluates every plan.
        """
        if self._flush_at is not None and now >= self._flush_at - EPS:
            self._flush_pending(now)
        # probe just inside 'now' so a boundary landing within float dust
        # of a slice edge resolves to the correct side
        probe = now + 2 * EPS
        capacity = self._capacity
        plans = self._plans
        pending = FlowStatus.PENDING
        changed: list[FlowState] = []
        heap = self._rate_heap
        self.rate_changes = changed if heap is not None else None
        if heap is None:
            heap = self._rate_heap = self._seed()
        while heap and heap[0][0] <= probe:
            fid = heap[0][1]
            plan = plans.get(fid)
            if plan is None or plan.flow_state.status is not pending:
                heappop(heap)
                continue
            inside, nxt = plan.slices.locate(probe)
            fs = plan.flow_state
            fs.rate = capacity if inside else 0.0
            changed.append(fs)
            if nxt is None:
                heappop(heap)
            else:
                heapreplace(heap, (nxt, fid))

    def next_change(self, now: float) -> float | None:
        """Earliest upcoming slice boundary or batch-flush time."""
        plans = self._plans
        pending = FlowStatus.PENDING
        heap = self._change_heap
        if heap is None:
            heap = self._change_heap = self._seed()
        horizon = now + EPS
        while heap:
            b, fid = heap[0]
            plan = plans.get(fid)
            if plan is None or plan.flow_state.status is not pending:
                heappop(heap)
            elif b <= horizon:
                nxt = plan.slices.next_boundary(horizon)
                if nxt is None:
                    heappop(heap)
                else:
                    heapreplace(heap, (nxt, fid))
            else:
                break
        best = heap[0][0] if heap else None
        flush = self._flush_at
        if flush is not None and flush > horizon and (best is None or flush < best):
            best = flush
        return best

    # -- faults -------------------------------------------------------------

    def _outage_ledger(self):
        """A fresh ledger with every down link blocked "forever"."""
        ledger = self._new_ledger()
        if self._down_links:
            block = IntervalSet.single(0.0, _BLOCK_HORIZON)
            for l in self._down_links:
                ledger.commit((l,), block)
        return ledger

    def on_link_state_change(self, down_links: frozenset[int], now: float) -> None:
        """Reroute: globally reallocate all in-flight flows around the new
        outage picture (and back onto recovered links)."""
        self._down_links = frozenset(down_links)
        with self._span("fault_reallocation"):
            self._reallocate_inflight(now)

    def _reallocate_inflight(self, now: float) -> None:
        flows = [fs for fs in self._accepted_flows.values() if fs.active]
        ledger = self._outage_ledger()
        dropped: list[int] = []
        start = up(now)
        while True:
            plans = self._trial(flows, ledger, start)
            missing_tasks = {
                p.flow_state.flow.task_id
                for p in plans.values()
                if not p.meets_deadline
            }
            if not missing_tasks:
                break
            # a task the outage made unmeetable: stop it now rather than
            # waste bandwidth on a doomed transfer (task-level philosophy)
            for tid in missing_tasks:
                if self._drop_task_on_fault(tid, now):
                    dropped.append(tid)
            flows = [fs for fs in flows if fs.flow.task_id not in missing_tasks]
            ledger.rollback_trial()
        ledger.commit_trial()
        self.plans = plans
        self.ledger = ledger
        for p in plans.values():
            p.flow_state.path = p.path
        self.stats.fault_reroutes += 1
        if self.trace is not None:
            self.trace.emit(FaultReallocation(
                now,
                down_links=tuple(sorted(self._down_links)),
                dropped_tasks=tuple(sorted(dropped)),
                plans=self._plan_records(),
            ))

    def _drop_task_on_fault(
        self, task_id: int, now: float = 0.0, cause: str = "fault"
    ) -> bool:
        """Kill the task's flows and count the drop.

        Returns whether anything was dropped — ``False`` when the task was
        never registered (e.g. still pending in a batch window), in which
        case the counter is *not* incremented and callers must not adjust
        it either.
        """
        ts = self._task_states.get(task_id)
        if ts is None:  # still pending in a batch window
            return False
        for fs in ts.flow_states:
            if fs.active:
                fs.kill(FlowStatus.TERMINATED)
            self.plans.pop(fs.flow.flow_id, None)
            self._accepted_flows.pop(fs.flow.flow_id, None)
        self.stats.tasks_dropped_on_fault += 1
        self._emit(TaskDrop(now, task_id=task_id, cause=cause))
        return True

    # -- lifecycle -------------------------------------------------------------

    def on_flow_completed(self, fs: FlowState, now: float) -> None:
        self.plans.pop(fs.flow.flow_id, None)
        self._accepted_flows.pop(fs.flow.flow_id, None)

    def on_deadline_expired(self, fs: FlowState, now: float) -> None:
        # Accepted flows meet deadlines by construction; reaching this
        # means an outage stranded the flow past its deadline (or a
        # numerical corner case).  Task-level no-waste: stop the whole
        # task, not just this flow.
        self.stats.backstop_kills += 1
        if self._drop_task_on_fault(fs.flow.task_id, now, cause="backstop"):
            # reclassify: this drop is a backstop kill, not a fault drop.
            # When the task was never registered (still pending in a batch
            # window) nothing was counted, so nothing may be decremented —
            # the unconditional decrement used to drive the counter negative.
            self.stats.tasks_dropped_on_fault -= 1
        if fs.active:
            fs.kill(FlowStatus.TERMINATED)

    def plan_of(self, flow_id: int) -> FlowPlan | None:
        """The committed plan for a flow (None once completed/never planned)."""
        return self.plans.get(flow_id)
