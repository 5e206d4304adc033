"""The fluid simulation engine.

Time advances from event to event; between events every flow's rate is
constant, so progress integrates exactly.  Event kinds:

* **task arrival** — the scheduler admits/rejects and (re)allocates;
* **flow completion** — earliest ``remaining / rate`` among active flows;
* **deadline expiry** — the scheduler reacts (quit, kill, or ignore);
* **scheduler change point** — e.g. a TAPS time-slice boundary.

The engine never decides policy: admission, routing, rates, and reactions
to deadline misses all live in the attached
:class:`~repro.sched.base.Scheduler`.

Performance: an event costs time in proportion to the flows that send or
change state, not to every flow in flight.  Rates are recomputed only when
the allocation is *dirty* (arrival / completion / kill / scheduler change
point).  Only sending flows (``rate > 0``) can progress or complete, so
next-event timing, integration, completion and slice tracking visit just
those; the earliest deadline comes from a lazy min-heap.  What is left per
event is a list comprehension or two over the active flows: one that
finds (and drops) flows which left the active set, one that picks out
the sending flows after a rate recompute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush

from repro.net.paths import PathService
from repro.net.topology import Topology
from repro.sim.state import EPS, FlowState, FlowStatus, TaskState, TaskOutcome
from repro.trace.events import (
    DeadlineExpired,
    FlowCompleted,
    LinkStateChange,
    RunEnd,
    SliceEnd,
    SliceStart,
    TaskArrival,
)
from repro.trace.recorder import TraceRecorder
from repro.util.errors import SimulationError
from repro.workload.flow import Task

BYTES_REL_EPS = 1e-5
"""A flow is complete when its residue drops below this fraction of its
size.  The residue comes from two sources: float rounding in ``rate * dt``
integration (~1e-16 relative) and the ±EPS slice-edge probing of the TAPS
sender model (≤ a few bytes on a 200 KB flow, ~1e-5 relative)."""

BYTES_ABS_EPS = 1e-9
"""Absolute floor of the completion tolerance, for unit-sized toy flows."""


def _done(remaining: float, size: float) -> bool:
    return remaining <= max(BYTES_ABS_EPS, BYTES_REL_EPS * size)


@dataclass(slots=True)
class EngineCounters:
    """Work counters for benchmarking the simulation itself."""

    events: int = 0
    arrivals: int = 0
    completions: int = 0
    deadline_events: int = 0
    rate_recomputes: int = 0
    stalled_kills: int = 0
    deadline_scan_skips: int = 0
    """Events where the per-flow deadline-expiry scan was skipped because
    ``now`` had not reached the min-deadline watermark — proof the
    watermark short-circuit is actually firing."""


@dataclass(slots=True)
class SimulationResult:
    """Everything a run produced, for the metrics layer to digest."""

    scheduler_name: str
    topology_name: str
    flow_states: list[FlowState]
    task_states: list[TaskState]
    finished_at: float
    counters: EngineCounters = field(default_factory=EngineCounters)

    @property
    def tasks_completed(self) -> int:
        return sum(1 for ts in self.task_states if ts.outcome is TaskOutcome.COMPLETED)

    @property
    def flows_met(self) -> int:
        return sum(1 for fs in self.flow_states if fs.met_deadline)


class Engine:
    """Runs one workload under one scheduler on one topology.

    Parameters
    ----------
    topology:
        The network; paths come from ``path_service`` (constructed with
        defaults when omitted).
    tasks:
        Workload; any order (sorted internally by arrival, then id).
    scheduler:
        A :class:`~repro.sched.base.Scheduler`; :meth:`run` attaches it.
    path_service:
        Shared path cache; pass one when sweeping many runs on a topology.
    hooks:
        Objects with optional ``on_advance(t0, t1, flows)``,
        ``on_flow_settled(fs, now)``, ``on_task_settled(ts, now)``
        callbacks (see :mod:`repro.metrics.timeseries`).  ``flows`` is
        the engine's list of every active flow, sending or not: read it
        during the call, do not keep it.  Hooks observe; they must not
        kill flows or write rates.
    max_events:
        Safety valve against runaway loops; ``SimulationError`` when hit.
    horizon:
        Optional hard stop (seconds): at this time every still-active
        flow is terminated and the run settles.  Useful for fixed-window
        measurements of deadline-oblivious policies whose doomed flows
        would otherwise run long past every deadline.
    trace:
        Optional :class:`~repro.trace.recorder.TraceRecorder`.  The
        engine emits the physical timeline (arrivals, slice
        transitions after down-link zeroing, completions, deadline
        expiries, link-state changes, run end) into it, and — when the
        scheduler supports tracing but was built without a recorder —
        hands the same recorder to the scheduler before ``attach`` so
        controller decisions and engine facts interleave in one stream.
    telemetry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  The
        engine opens a ``run`` span over the whole simulation with
        ``arrival``/``rates`` phase spans nested inside (scheduler spans
        nest further, e.g. ``span/run/arrival/admission``), tracks the
        ``engine/active_flows`` gauge, auto-attaches a
        :class:`~repro.metrics.linkload.LinkLoadCollector` hook (reusing
        a caller-supplied one), and at end of run publishes its work
        counters, per-link ``net/link_utilization`` /
        ``net/link_peak_utilization`` gauges, and the scheduler's own
        telemetry (via ``publish_telemetry``, when the scheduler has
        one).  Like ``trace``, the registry is handed to a
        telemetry-capable scheduler before ``attach``.  Telemetry never
        feeds back into decisions, so traces stay byte-identical with it
        on or off.
    """

    def __init__(
        self,
        topology: Topology,
        tasks: list[Task],
        scheduler,
        path_service: PathService | None = None,
        hooks: tuple = (),
        max_events: int = 10_000_000,
        faults=None,
        horizon: float | None = None,
        trace: TraceRecorder | None = None,
        telemetry=None,
    ) -> None:
        from repro.sim.faults import FaultSchedule

        self.topology = topology
        self.path_service = path_service or PathService(topology)
        self.scheduler = scheduler
        self.hooks = hooks
        self.max_events = max_events
        if horizon is not None and horizon <= 0:
            raise SimulationError("horizon must be positive")
        self.horizon = horizon
        if faults is None:
            self.faults = FaultSchedule([])
        elif isinstance(faults, FaultSchedule):
            self.faults = faults
        else:
            self.faults = FaultSchedule(list(faults))

        self._arrivals: list[TaskState] = []
        self.flow_states: list[FlowState] = []
        self.task_states: list[TaskState] = []
        for task in sorted(tasks, key=lambda t: (t.arrival, t.task_id)):
            ts = TaskState(task=task)
            ts.flow_states = [FlowState(flow=f) for f in task.flows]
            self._arrivals.append(ts)
            self.task_states.append(ts)
            self.flow_states.extend(ts.flow_states)
        self._task_by_id = {ts.task.task_id: ts for ts in self.task_states}
        self.counters = EngineCounters()
        self.trace = trace
        self.telemetry = telemetry
        self._tel_linkload = None
        if telemetry is not None and getattr(telemetry, "enabled", True):
            # lazy import: repro.metrics.summary imports this module back
            from repro.metrics.linkload import LinkLoadCollector

            for hook in self.hooks:
                if isinstance(hook, LinkLoadCollector):
                    self._tel_linkload = hook
                    break
            else:
                self._tel_linkload = LinkLoadCollector(topology)
                self.hooks = (*self.hooks, self._tel_linkload)
        # flow_id -> (path, task_id) of flows physically transmitting now;
        # diffed against the post-recompute picture to emit slice events
        self._transmitting: dict[int, tuple[tuple[int, ...], int]] = {}

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation to quiescence and return the result.

        Single-shot: flow/task states are consumed by the run, so a second
        ``run()`` on the same engine raises — build a fresh Engine (state
        construction is cheap; workloads are immutable and reusable).
        """
        if getattr(self, "_ran", False):
            raise SimulationError(
                "Engine.run() is single-shot; construct a new Engine to replay"
            )
        self._ran = True
        sched = self.scheduler
        trace = self.trace
        if trace is not None and getattr(sched, "trace", False) is None:
            # the scheduler supports tracing but has no recorder: share ours
            # (must happen before attach — that's where meta is stamped)
            sched.trace = trace
        tel = self.telemetry
        if tel is not None and getattr(sched, "telemetry", False) is None:
            # same handoff for telemetry: a telemetry-capable scheduler
            # built without a registry records into ours
            sched.telemetry = tel
        sched.attach(self.topology, self.path_service)
        run_span = None
        if tel is not None:
            tel.set_meta(
                topology=self.topology.name,
                num_tasks=len(self.task_states),
            )
            active_gauge = tel.gauge("engine/active_flows")
            run_span = tel.spans.span("run")
            run_span.__enter__()

        now = 0.0
        next_arrival_idx = 0
        pending = FlowStatus.PENDING
        active: list[FlowState] = []
        active_set: set[FlowState] = set()  # `active`, for membership tests
        # the active flows with rate > 0, in `active` order.  Rates change
        # only in step 3 or through kill()/finish() (which zero them), so
        # only these flows progress, complete or hold a slice.
        sending: list[FlowState] = []
        # lazy min-heap of (deadline, push seq, flow) over `active`: an
        # entry dies when its flow leaves `active` (not when it is killed)
        # or when its deadline is no longer after now + EPS
        deadlines: list[tuple[float, int, FlowState]] = []
        pushed = 0
        unsettled_tasks: set[int] = set()
        # tasks with a flow that arrived or left `active` this event: the
        # only ones that can settle at it
        touched: set[int] = set()
        dirty = True
        down_links: set[int] = set()
        # Lower bound on the earliest deadline of any active, not-yet-
        # notified flow.  Kills may leave it stale-low (costing one wasted
        # scan, never a missed expiry); each scan re-tightens it.
        next_deadline = math.inf

        while True:
            self.counters.events += 1
            if self.counters.events > self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events} at t={now:g}"
                )

            # hard horizon: terminate everything still running
            if self.horizon is not None and now >= self.horizon - EPS:
                for fs in active:
                    fs.kill(FlowStatus.TERMINATED)
                active.clear()
                self._settle_tasks(unsettled_tasks, now)
                break

            # 1. deliver arrivals due now
            # (a flow that is complete on arrival — size below the
            # completion tolerance — never sends; step 6 must still see it)
            callbacks = False  # a scheduler callback (which may kill) ran
            born_done = False
            touched.clear()
            while (
                next_arrival_idx < len(self._arrivals)
                and self._arrivals[next_arrival_idx].task.arrival <= now + EPS
            ):
                ts = self._arrivals[next_arrival_idx]
                next_arrival_idx += 1
                self.counters.arrivals += 1
                if trace is not None:
                    trace.emit(TaskArrival(
                        now,
                        task_id=ts.task.task_id,
                        deadline=ts.task.deadline,
                        num_flows=len(ts.task.flows),
                        total_bytes=ts.task.total_size,
                    ))
                if tel is None:
                    sched.on_task_arrival(ts, now)
                else:
                    with tel.spans.span("arrival"):
                        sched.on_task_arrival(ts, now)
                unsettled_tasks.add(ts.task.task_id)
                touched.add(ts.task.task_id)
                for fs in ts.flow_states:
                    if fs.status is pending:
                        active.append(fs)
                        active_set.add(fs)
                        pushed += 1
                        heappush(deadlines, (fs.flow.deadline, pushed, fs))
                        if fs.flow.deadline < next_deadline:
                            next_deadline = fs.flow.deadline
                        born_done |= _done(fs.remaining, fs.flow.size)
                callbacks = True
                dirty = True

            # 2. deadline expiries due now (notify each flow once)
            # (hot loops test FlowStatus directly — `fs.active` is a
            # property call, measurable at millions of events × flows)
            # The whole scan is skipped while `now` is before the earliest
            # unexpired deadline; most events in a healthy run never pay it.
            if now + EPS >= next_deadline:
                nd = math.inf
                for fs in active:
                    if fs.status is not pending or fs.deadline_notified:
                        continue
                    if fs.flow.deadline <= now + EPS:
                        if not _done(fs.remaining, fs.flow.size):
                            fs.deadline_notified = True
                            self.counters.deadline_events += 1
                            if trace is not None:
                                trace.emit(DeadlineExpired(
                                    now, flow_id=fs.flow.flow_id,
                                    task_id=fs.flow.task_id,
                                ))
                            sched.on_deadline_expired(fs, now)
                            callbacks = True
                            if fs.status is not pending:
                                dirty = True
                        # else: already (numerically) complete — it settles
                        # as a completion this same event, never an expiry
                    elif fs.flow.deadline < nd:
                        nd = fs.flow.deadline
                next_deadline = nd
            else:
                self.counters.deadline_scan_skips += 1

            # flows killed in steps 1-2 leave `active` (only scheduler
            # callbacks kill, and step 6 dropped every earlier kill)
            if callbacks:
                kept = self._drop_inactive(active, active_set, touched)
                if kept is not active:
                    active = kept
                    sending = [fs for fs in sending if fs.status is pending]

            # 2b. fault transitions: notify the scheduler, then physically
            # stop transmission across down links below
            if self.faults:
                current_down = self.faults.down_links(now)
                if current_down != down_links:
                    down_links = current_down
                    if trace is not None:
                        trace.emit(LinkStateChange(
                            now, down_links=tuple(sorted(down_links))
                        ))
                    on_change = getattr(sched, "on_link_state_change", None)
                    if on_change is not None:
                        on_change(frozenset(down_links), now)
                    dirty = True

            # 3. (re)compute rates
            if dirty:
                self.counters.rate_recomputes += 1
                if tel is None:
                    sched.assign_rates(now)
                else:
                    with tel.spans.span("rates"):
                        sched.assign_rates(now)
                sending = [fs for fs in active if fs.rate > 0]
                # physics: a down link carries nothing, whatever was asked
                if down_links:
                    for fs in sending:
                        if fs.path is not None and any(
                            l in down_links for l in fs.path
                        ):
                            fs.rate = 0.0
                    sending = [fs for fs in sending if fs.rate > 0]
                dirty = False
                if trace is not None:
                    self._sync_slices(sending, now)
            if tel is not None:
                active_gauge.set(len(active))

            # 4. choose the next event time
            t_next = math.inf
            if self.faults:
                fb = self.faults.next_boundary(now)
                if fb is not None:
                    t_next = fb
            if next_arrival_idx < len(self._arrivals):
                t_next = min(t_next, self._arrivals[next_arrival_idx].task.arrival)
            for fs in sending:
                t_next = min(t_next, now + fs.remaining / fs.rate)
            # the earliest deadline after now + EPS of any flow in `active`,
            # killed ones included (they leave `active` in step 6)
            while deadlines and (
                deadlines[0][0] <= now + EPS or deadlines[0][2] not in active_set
            ):
                heappop(deadlines)
            if deadlines:
                t_next = min(t_next, deadlines[0][0])
            t_sched = sched.next_change(now)
            if t_sched is not None and t_sched > now + EPS:
                t_next = min(t_next, t_sched)
            if self.horizon is not None:
                t_next = min(t_next, self.horizon)

            if not math.isfinite(t_next):
                # Nothing will ever happen again.  Any still-active flow is
                # stalled (rate 0 forever): kill it so the run terminates.
                for fs in active:
                    fs.kill(FlowStatus.TERMINATED)
                    self.counters.stalled_kills += 1
                active.clear()
                self._settle_tasks(unsettled_tasks, now)
                break

            # guard against zero-length steps looping forever
            t_next = max(t_next, now)

            # 5. integrate progress over [now, t_next)
            dt = t_next - now
            if dt > 0:
                for fs in sending:
                    fs.advance(dt)
                for hook in self.hooks:
                    on_advance = getattr(hook, "on_advance", None)
                    if on_advance is not None:
                        on_advance(now, t_next, active)
            prev_now = now
            now = t_next
            if now <= prev_now and dt == 0 and not dirty:
                # A scheduler change point at 'now' that changed nothing;
                # treat the allocation as dirty to force progress next turn.
                dirty = True

            # 6. settle completions
            still_sending: list[FlowState] = []
            for fs in active if born_done else sending:
                if fs.status is not pending:
                    continue  # killed during this event: dropped below
                if _done(fs.remaining, fs.flow.size):
                    fs.finish(now)
                    self.counters.completions += 1
                    if trace is not None:
                        trace.emit(FlowCompleted(
                            now,
                            flow_id=fs.flow.flow_id,
                            task_id=fs.flow.task_id,
                            met_deadline=fs.met_deadline,
                        ))
                    sched.on_flow_completed(fs, now)
                    for hook in self.hooks:
                        cb = getattr(hook, "on_flow_settled", None)
                        if cb is not None:
                            cb(fs, now)
                    dirty = True
                elif fs.rate > 0:
                    still_sending.append(fs)
            sending = still_sending
            # completed flows, and flows killed during this event, leave
            kept = self._drop_inactive(active, active_set, touched)
            if kept is not active:
                active = kept
                dirty = True
            if trace is not None:
                # completed/killed flows stop transmitting at this instant
                self._sync_slices(sending, now)

            # mark a scheduler change point as needing a rate refresh
            if t_sched is not None and abs(now - t_sched) <= EPS:
                dirty = True

            self._settle_tasks(unsettled_tasks, now, touched)

        if trace is not None:
            self._flush_slices(now)
            trace.emit(RunEnd(now))
        if run_span is not None:
            run_span.__exit__(None, None, None)
        if tel is not None:
            self._publish_telemetry(tel, now)
        result = SimulationResult(
            scheduler_name=getattr(sched, "name", type(sched).__name__),
            topology_name=self.topology.name,
            flow_states=self.flow_states,
            task_states=self.task_states,
            finished_at=now,
            counters=self.counters,
        )
        return result

    # -- helpers -----------------------------------------------------------

    def _publish_telemetry(self, tel, now: float) -> None:
        """End-of-run publication: engine work counters, the scheduler's
        own counters, and per-link utilization gauges."""
        for f in fields(EngineCounters):
            tel.counter("engine/" + f.name).inc(getattr(self.counters, f.name))
        publish = getattr(self.scheduler, "publish_telemetry", None)
        if publish is not None:
            publish()
        collector = self._tel_linkload
        if collector is None:
            return
        collector.finalize(self.flow_states)
        links = self.topology.links

        def labels(l: int) -> dict[str, str]:
            return {"link": str(l), "src": links[l].src, "dst": links[l].dst}

        if now > 0:
            for load in collector.utilization(now):
                tel.gauge(
                    "net/link_utilization", labels(load.link_index)
                ).set(load.utilization)
        for l, frac in sorted(collector.peak_utilization().items()):
            tel.gauge("net/link_peak_utilization", labels(l)).set(frac)

    @staticmethod
    def _drop_inactive(
        active: list[FlowState], active_set: set[FlowState], touched: set[int]
    ) -> list[FlowState]:
        """The flows of ``active`` still pending, in order: ``active``
        itself when none left, else a new list.  Flows that left are
        removed from ``active_set`` and their tasks added to ``touched``."""
        pending = FlowStatus.PENDING
        left = [fs for fs in active if fs.status is not pending]
        if not left:
            return active
        active_set.difference_update(left)
        touched.update(fs.flow.task_id for fs in left)
        return [fs for fs in active if fs.status is pending]

    def _sync_slices(self, sending: list[FlowState], now: float) -> None:
        """Diff the physically-transmitting set against the last picture and
        emit slice events (ends before starts; a path change is both).

        Called after every rate recompute (post down-link zeroing — the
        trace records what the network actually carried) and after
        completions, so a flow's slice closes at the instant it stopped.
        ``sending`` must hold every flow with ``rate > 0``.
        """
        current = {
            fs.flow.flow_id: (tuple(fs.path), fs.flow.task_id)
            for fs in sending
            if fs.rate > 0 and fs.path is not None
        }
        prev = self._transmitting
        if current == prev:
            return
        trace = self.trace
        ended = [f for f, v in prev.items() if current.get(f) != v]
        started = [f for f, v in current.items() if prev.get(f) != v]
        for fid in sorted(ended):
            trace.emit(SliceEnd(now, flow_id=fid, task_id=prev[fid][1]))
        for fid in sorted(started):
            path, tid = current[fid]
            trace.emit(SliceStart(now, flow_id=fid, task_id=tid, path=path))
        self._transmitting = current

    def _flush_slices(self, now: float) -> None:
        """Close every still-open slice at the end of the run."""
        prev = self._transmitting
        for fid in sorted(prev):
            self.trace.emit(SliceEnd(now, flow_id=fid, task_id=prev[fid][1]))
        self._transmitting = {}

    def _settle_tasks(
        self, unsettled: set[int], now: float, touched: set[int] | None = None
    ) -> None:
        """Finalize tasks whose flows have all reached a terminal status,
        checking only the ``touched`` ones when given (in ``unsettled``
        order, so hooks see settlements in the same order either way)."""
        done: list[int] = []
        for tid in unsettled:
            if touched is not None and tid not in touched:
                continue
            ts = self._task_by_id[tid]
            if all(not fs.active for fs in ts.flow_states):
                ts.settle()
                done.append(tid)
                for hook in self.hooks:
                    cb = getattr(hook, "on_task_settled", None)
                    if cb is not None:
                        cb(ts, now)
        for tid in done:
            unsettled.discard(tid)
