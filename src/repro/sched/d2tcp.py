"""D2TCP: Deadline-aware Datacenter TCP (Vamanan et al., SIGCOMM 2012).

The paper discusses D2TCP as the flow-level deadline-aware transport that
still "cannot minimize the deadline-missing tasks" (§II).  D2TCP keeps
DCTCP's congestion control but scales each flow's window backoff by a
deadline factor

    d = Tc / D   (time needed at the current rate / time left),

clamped to [0.5, 2]: far-deadline flows back off more, near-deadline
flows back off less, so bottleneck bandwidth tilts toward urgency.

Fluid model: weighted max-min fairness with weight ``d`` recomputed at
every allocation event — the stationary bandwidth split D2TCP's gamma-
correction converges to on a shared bottleneck.  Like the other
simulated transports it stops flows that have already missed their
deadline (§V-A's no-useless-transmission courtesy).

D2TCP is *not* part of the paper's evaluated six; it is provided as an
extension baseline (``EXTENDED_ORDER`` in the registry) and exercised by
the extension tests and the d2tcp example sweep.
"""

from __future__ import annotations

from repro.sched.base import Scheduler
from repro.sched.waterfill import weighted_max_min
from repro.sim.state import TaskState

#: the clamp D2TCP applies to its deadline factor
D_MIN, D_MAX = 0.5, 2.0
#: how far ahead the next weight refresh falls, as a fraction of the
#: most urgent flow's remaining slack
REFRESH_FRACTION = 0.125


class D2TCP(Scheduler):
    """Deadline-weighted fair sharing (fluid D2TCP).

    Real D2TCP re-evaluates its gamma factor every RTT; the fluid model
    mirrors that by scheduling a rate-refresh change point a fraction of
    the most urgent flow's remaining slack ahead
    (:data:`REFRESH_FRACTION`), so a flow that falls behind sees its
    weight — and share — grow over time.
    """

    name = "D2TCP"

    def on_task_arrival(self, task_state: TaskState, now: float) -> None:
        task_state.accepted = True
        self._admit_flows(task_state)

    def next_change(self, now: float) -> float | None:
        """Re-evaluate weights well before the tightest deadline."""
        slacks = [
            fs.flow.deadline - now for fs in self.active_flows
            if fs.flow.deadline > now
        ]
        if not slacks:
            return None
        return now + max(min(slacks) * REFRESH_FRACTION, 1e-6)

    def deadline_factor(self, fs, now: float, capacity: float) -> float:
        """``d = Tc/D`` clamped to [0.5, 2] (the D2TCP paper's bounds)."""
        ttd = fs.flow.deadline - now
        if ttd <= 0:
            return D_MAX
        needed = fs.remaining / capacity
        return min(D_MAX, max(D_MIN, needed / ttd))

    def assign_rates(self, now: float) -> None:
        assert self.topology is not None
        flows = self.active_flows
        if not flows:
            return
        links = self.topology.links
        # the factor uses the flow's own bottleneck capacity as the
        # "current rate" reference, as D2TCP's Tc does with line rate
        weights = [
            self.deadline_factor(
                fs, now, min(links[link].capacity for link in fs.path)  # type: ignore[union-attr]
            )
            for fs in flows
        ]
        rates = weighted_max_min(
            flows, weights, link_capacity=lambda link: links[link].capacity
        )
        for fs, r in zip(flows, rates):
            fs.rate = r
