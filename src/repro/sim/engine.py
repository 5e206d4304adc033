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
next-event timing, integration and the completion check visit just those;
the earliest deadline comes from a lazy min-heap.  After a rate recompute
the sending set, the down-link zeroing and the slice events are updated
from the scheduler's rate report (``Scheduler.rate_changes``: the flows
whose rate it changed), not from a rescan of the active flows.  The
rescan remains where the report cannot be trusted: when it is ``None``
(every baseline; TAPS whenever its plan table was replaced) and at every
fault transition.  Completed flows leave the insertion-ordered active set
one by one; killed flows are looked for only when
``repro.sim.state.last_kill`` shows a kill happened.  Hooks see only the
sending flows, and every task that arrived settles once, when the run
ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush

from repro.net.paths import PathService
from repro.net.topology import Topology
from repro.sim import state as sim_state
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
from repro.util.errors import ConfigurationError, SimulationError
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


def _flow_id(fs: FlowState) -> int:
    return fs.flow.flow_id


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
        Objects with an ``on_advance(t0, t1, flows)`` method (see
        :class:`~repro.metrics.transmission.TransmissionLog`), called
        after every interval ``[t0, t1)`` of positive length.  ``flows``
        is the engine's set of the flows that sent over it (``rate > 0``
        after down-link zeroing; a dict keyed by flow state, not in
        arrival order): iterate it during the call, do not keep or change
        it.  Hooks observe; they must not kill flows or write rates.  A
        flow's outcome is known from its final state after the run.
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
        expiries, link-state changes, run end) into it, and hands the
        same recorder to a scheduler that traces (one with a ``trace``
        attribute, ``None`` until then) before ``attach``, so controller
        decisions and engine facts interleave in one stream.
    telemetry:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for this
        one run.  The engine opens a ``run`` span over the whole
        simulation with ``arrival``/``rates`` phase spans nested inside
        (scheduler spans nest further, e.g.
        ``span/run/arrival/admission``), and at end of run publishes its
        ``engine/<field>`` work counters and the scheduler's own
        telemetry (via ``publish_telemetry``, when the scheduler has
        one).  It attaches no hook: per-link load is a
        :class:`~repro.metrics.transmission.TransmissionLog` query.
        Like ``trace``, the registry is handed to a
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
        num_links = len(topology.links)
        for fault in self.faults.faults:
            if not 0 <= fault.link_index < num_links:
                raise ConfigurationError(
                    f"fault on link {fault.link_index}: {topology.name} has "
                    f"{num_links} links (0..{num_links - 1})"
                )

        self._arrivals: list[TaskState] = []
        self.flow_states: list[FlowState] = []
        self.task_states: list[TaskState] = []
        for task in sorted(tasks, key=lambda t: (t.arrival, t.task_id)):
            ts = TaskState(task=task)
            ts.flow_states = [FlowState(flow=f) for f in task.flows]
            self._arrivals.append(ts)
            self.task_states.append(ts)
            self.flow_states.extend(ts.flow_states)
        self.counters = EngineCounters()
        self.trace = trace
        self.telemetry = telemetry
        # flow -> path of the flows physically transmitting now; diffed
        # against the flows that may have changed to emit slice events
        self._transmitting: dict[FlowState, tuple[int, ...]] = {}

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
            # a scheduler that traces records into ours (before attach,
            # which stamps the trace meta)
            sched.trace = trace
        tel = self.telemetry
        if tel is not None and getattr(sched, "telemetry", False) is None:
            sched.telemetry = tel
        sched.attach(self.topology, self.path_service)
        run_span = None
        if tel is not None:
            tel.set_meta(
                topology=self.topology.name,
                num_tasks=len(self.task_states),
            )
            run_span = tel.spans.span("run")
            run_span.__enter__()

        now = 0.0
        next_arrival_idx = 0
        pending = FlowStatus.PENDING
        # the flows in flight, in arrival order (a dict as an ordered set)
        active: dict[FlowState, None] = {}
        # the active flows with rate > 0.  Rates change only in step 3 or
        # through kill()/finish() (which zero them), so only these flows
        # progress, complete or hold a slice.  Not in arrival order: step
        # 6 orders same-instant completions by `active`.
        sending: dict[FlowState, None] = {}
        # flows that may have started or stopped transmitting since the
        # last slice-event diff
        moved: list[FlowState] = []
        # lazy min-heap of (deadline, push seq, flow) over `active`: an
        # entry dies when its flow leaves `active` (not when it is killed)
        # or when its deadline is no longer after now + EPS
        deadlines: list[tuple[float, int, FlowState]] = []
        pushed = 0
        # sim_state.last_kill when `active` was last cleared of kills
        kills = sim_state.last_kill
        dirty = True
        down_links: set[int] = set()
        # Lower bound on the earliest deadline of any active, not-yet-
        # notified flow.  Kills may leave it stale-low (costing one wasted
        # scan, never a missed expiry); each scan re-tightens it.
        next_deadline = math.inf

        def leave(fs: FlowState) -> None:
            # a completed or killed flow leaves `active` (and `sending`)
            del active[fs]
            if fs in sending:
                del sending[fs]
                moved.append(fs)

        def drop_killed() -> bool:
            # flows killed since the last look leave `active`; whether any
            nonlocal kills
            if sim_state.last_kill == kills:
                return False
            kills = sim_state.last_kill
            killed = [fs for fs in active if fs.status is not pending]
            for fs in killed:
                leave(fs)
            return bool(killed)

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
                break

            # 1. deliver arrivals due now
            # (a flow that is complete on arrival — size below the
            # completion tolerance — never sends; step 6 must still see it)
            born_done = False
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
                for fs in ts.flow_states:
                    if fs.status is pending:
                        active[fs] = None
                        pushed += 1
                        heappush(deadlines, (fs.flow.deadline, pushed, fs))
                        if fs.flow.deadline < next_deadline:
                            next_deadline = fs.flow.deadline
                        born_done |= _done(fs.remaining, fs.flow.size)
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
            drop_killed()

            # 2b. fault transitions: notify the scheduler, then physically
            # stop transmission across down links below
            rescan = False  # the rate report cannot cover a fault
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
                    rescan = True

            # 3. (re)compute rates
            if dirty:
                self.counters.rate_recomputes += 1
                if tel is None:
                    sched.assign_rates(now)
                else:
                    with tel.spans.span("rates"):
                        sched.assign_rates(now)
                report = getattr(sched, "rate_changes", None)
                if report is None or rescan:
                    # every active flow, killed ones included (rate 0); a
                    # flow no plan covers keeps a stale rate, so after a
                    # fault only this rescan can stop it on a down link
                    report = active
                elif sim_state.last_kill != kills:
                    # killed inside assign_rates, maybe unreported
                    for fs in [fs for fs in sending if fs.status is not pending]:
                        del sending[fs]
                        moved.append(fs)
                for fs in report:
                    # physics: a down link carries nothing, whatever was asked
                    if fs.rate > 0 and down_links and fs.path is not None and any(
                        link in down_links for link in fs.path
                    ):
                        fs.rate = 0.0
                    if fs.rate > 0:
                        sending[fs] = None
                    else:
                        sending.pop(fs, None)
                if trace is not None:
                    moved.extend(report)
                    self._sync_slices(moved, sending, now)
                moved.clear()
                dirty = False

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
                deadlines[0][0] <= now + EPS or deadlines[0][2] not in active
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
                break

            # guard against zero-length steps looping forever
            t_next = max(t_next, now)

            # 5. integrate progress over [now, t_next)
            dt = t_next - now
            if dt > 0:
                for fs in sending:
                    fs.advance(dt)
                for hook in self.hooks:
                    hook.on_advance(now, t_next, sending)
            prev_now = now
            now = t_next
            if now <= prev_now and dt == 0 and not dirty:
                # A scheduler change point at 'now' that changed nothing;
                # treat the allocation as dirty to force progress next turn.
                dirty = True

            # 6. settle completions, in arrival order within the instant
            done = [
                fs for fs in (active if born_done else sending)
                if fs.status is pending and _done(fs.remaining, fs.flow.size)
            ]
            if len(done) > 1 and not born_done:
                # `sending` is not in arrival order
                first = set(done)
                done = [fs for fs in active if fs in first]
            for fs in done:
                if fs.status is not pending:
                    continue  # killed by an earlier completion's callback
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
                dirty = True
                leave(fs)
            # flows killed during this event leave too
            if drop_killed():
                dirty = True
            if moved:
                if trace is not None:
                    # completed/killed flows stop transmitting at this instant
                    self._sync_slices(moved, sending, now)
                moved.clear()

            # mark a scheduler change point as needing a rate refresh
            if t_sched is not None and abs(now - t_sched) <= EPS:
                dirty = True

        # every flow of an arrived task has reached a terminal status;
        # tasks that never arrived (cut off by the horizon) stay PENDING
        for ts in self._arrivals[:next_arrival_idx]:
            ts.settle()
        if trace is not None:
            self._flush_slices(now)
            trace.emit(RunEnd(now))
        if run_span is not None:
            run_span.__exit__(None, None, None)
        if tel is not None:
            self._publish_telemetry(tel)
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

    def _publish_telemetry(self, tel) -> None:
        """End-of-run publication: engine work counters and the
        scheduler's own counters."""
        for f in fields(EngineCounters):
            tel.counter("engine/" + f.name).inc(getattr(self.counters, f.name))
        publish = getattr(self.scheduler, "publish_telemetry", None)
        if publish is not None:
            publish()

    def _sync_slices(self, moved, sending, now: float) -> None:
        """Diff the transmission of the flows in ``moved`` against the last
        picture and emit slice events (ends before starts, each by flow
        id; a path change is both).

        Called after every rate recompute (post down-link zeroing — the
        trace records what the network actually carried) and after
        completions and kills, so a flow's slice closes at the instant it
        stopped.  Exact when ``moved`` holds every flow whose transmission
        may have started, stopped or changed path since the last diff;
        ``sending`` must hold every flow with ``rate > 0``.
        """
        prev = self._transmitting
        ended: list[FlowState] = []
        started: list[FlowState] = []
        for fs in moved:
            was = prev.get(fs)
            path = (
                tuple(fs.path) if fs in sending and fs.path is not None else None
            )
            if path == was:
                continue
            if was is not None:
                ended.append(fs)
                del prev[fs]
            if path is not None:
                prev[fs] = path
                started.append(fs)
        trace = self.trace
        for fs in sorted(ended, key=_flow_id):
            trace.emit(SliceEnd(now, flow_id=fs.flow.flow_id,
                                task_id=fs.flow.task_id))
        for fs in sorted(started, key=_flow_id):
            trace.emit(SliceStart(now, flow_id=fs.flow.flow_id,
                                  task_id=fs.flow.task_id, path=prev[fs]))

    def _flush_slices(self, now: float) -> None:
        """Close every still-open slice at the end of the run."""
        for fs in sorted(self._transmitting, key=_flow_id):
            self.trace.emit(SliceEnd(now, flow_id=fs.flow.flow_id,
                                     task_id=fs.flow.task_id))
        self._transmitting = {}
