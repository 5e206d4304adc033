"""The scheduler contract shared by all six policies.

A scheduler owns four decisions, invoked by the engine:

1. **Admission** (:meth:`Scheduler.on_task_arrival`): accept, reject, or
   preempt; route flows (set ``FlowState.path``).
2. **Rates** (:meth:`Scheduler.assign_rates`): write ``FlowState.rate`` for
   every flow it manages — there and nowhere else; called only when the
   allocation is dirty.  A scheduler that knows whose rate it changed can
   say so in :attr:`Scheduler.rate_changes`, and the engine then updates
   its sending set from those flows alone.
3. **Change points** (:meth:`Scheduler.next_change`): the next time rates
   would change with no external event (e.g. a TAPS slice boundary, a
   Varys reservation expiry that frees capacity).
4. **Deadline reaction** (:meth:`Scheduler.on_deadline_expired`): quit the
   flow, kill it, or let it keep transmitting (Baraat).

:func:`exclusive_full_rate` implements the "exclusive full-rate links by
priority" allocation Baraat uses; PDQ runs the same greedy inline, where
it also enforces its switch flow-list limit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.net.paths import PathService
from repro.net.topology import Topology
from repro.sim.state import FlowState, FlowStatus, TaskState


class Scheduler(ABC):
    """Base class: lifecycle hooks with safe defaults."""

    #: short name used in reports and figure legends
    name: str = "scheduler"

    #: the rate report of the last :meth:`assign_rates` call (see there);
    #: ``None`` makes the engine rescan every active flow
    rate_changes: list[FlowState] | None = None

    def __init__(self) -> None:
        self.topology: Topology | None = None
        self.paths: PathService | None = None
        self.active_flows: list[FlowState] = []

    # -- lifecycle ----------------------------------------------------------

    def attach(self, topology: Topology, paths: PathService) -> None:
        """Bind to a network; called once by the engine before the run."""
        self.topology = topology
        self.paths = paths
        self.active_flows = []

    @abstractmethod
    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        """Admit/reject the task and route its flows."""

    @abstractmethod
    def assign_rates(self, now: float) -> None:
        """Write ``rate`` on every managed flow state.

        Rate ownership: rates are written only here, and
        ``FlowState.kill``/``finish`` zero them.  The other callbacks may
        kill flows but never set a rate.  The engine relies on this: only
        flows with ``rate > 0`` after this call progress or complete until
        the next call, so those are the only flows it advances, times and
        checks for completion.

        Rate report: right after this call the engine reads
        :attr:`rate_changes`.  ``None`` (the default) makes it rescan
        every active flow for the sending set, the down-link zeroing and
        the slice events.  Anything else must hold every flow state whose
        rate or path this scheduler wrote since its previous call; kills
        and completions need not be listed, the engine tracks those
        itself.  The engine then updates its picture from those flows
        alone, so code that writes a rate or a path outside the report
        must set ``rate_changes`` to ``None``.
        """

    def next_change(self, now: float) -> float | None:
        """Next spontaneous rate-change time, or ``None``."""
        return None

    def on_flow_completed(self, fs: FlowState, now: float) -> None:
        """A managed flow delivered its last byte."""
        self._drop(fs)

    def on_deadline_expired(self, fs: FlowState, now: float) -> None:
        """Default policy: quit-on-miss (paper §V-A: D3/Fair Sharing "will
        not send more packets from flows already missed their deadlines").
        Deadline-agnostic schedulers override this with a no-op."""
        fs.kill(FlowStatus.TERMINATED)
        self._drop(fs)

    def on_link_state_change(self, down_links: frozenset[int], now: float) -> None:
        """A link failed or recovered (``down_links`` is the full current
        outage set).  Default: do nothing — the engine already stops
        transmission across down links, so an oblivious scheduler's flows
        stall until recovery.  Reactive schedulers (the TAPS controller)
        override this to reroute."""

    # -- shared bookkeeping ---------------------------------------------------

    def _admit_flows(self, task_state: TaskState, use_ecmp: bool = True) -> None:
        """Route and start tracking every flow of a task."""
        assert self.paths is not None
        for fs in task_state.flow_states:
            if fs.path is None and use_ecmp:
                f = fs.flow
                fs.path = self.paths.ecmp_path(f.flow_id, f.src, f.dst)
            self.active_flows.append(fs)

    def _reject_task(self, task_state: TaskState) -> None:
        """Reject a task outright: no flow ever transmits."""
        task_state.accepted = False
        for fs in task_state.flow_states:
            fs.kill(FlowStatus.REJECTED)

    def _drop(self, fs: FlowState) -> None:
        try:
            self.active_flows.remove(fs)
        except ValueError:
            pass


def exclusive_full_rate(
    flows: list[FlowState],
    priority_key,
    capacity_of,
) -> None:
    """Greedy exclusive-link allocation (PDQ's transmission model, §IV-A).

    Flows are visited in ``priority_key`` order; a flow transmits at the
    full rate of its path iff *every* link on its path is still unclaimed;
    otherwise its rate is zero ("at most one flow on transmission on each
    link at any time").

    ``capacity_of(path)`` returns the bottleneck rate of the path (uniform
    capacity in the paper, but kept general).
    """
    busy: set[int] = set()
    for fs in sorted(flows, key=priority_key):
        path = fs.path
        assert path is not None, f"flow {fs.flow.flow_id} has no path"
        if any(link in busy for link in path):
            fs.rate = 0.0
        else:
            fs.rate = capacity_of(path)
            busy.update(path)


def edf_sjf_key(fs: FlowState) -> tuple[float, float, int]:
    """EDF first, SJF (remaining) second, flow id as the stable tie-break.

    The priority used by PDQ's criticality and TAPS' ``Ftmp`` sort
    (paper Alg. 1 line 9: "sort Ftmp according to EDF and SJF").
    """
    return (fs.flow.deadline, fs.remaining, fs.flow.flow_id)


def edf_key(fs: FlowState) -> tuple[float, int]:
    """Pure EDF (ablation variant of the Ftmp sort)."""
    return (fs.flow.deadline, fs.flow.flow_id)


def sjf_key(fs: FlowState) -> tuple[float, int]:
    """Pure SJF on remaining size (ablation variant)."""
    return (fs.remaining, fs.flow.flow_id)


def fifo_key(fs: FlowState) -> tuple[float, int]:
    """Release-order FIFO (ablation variant; D3-like arrival priority)."""
    return (fs.flow.release, fs.flow.flow_id)


#: the Ftmp orderings the priority ablation sweeps
PRIORITY_KEYS = {
    "edf_sjf": edf_sjf_key,
    "edf": edf_key,
    "sjf": sjf_key,
    "fifo": fifo_key,
}
