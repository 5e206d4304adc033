"""Throughput-over-time collection for the Fig. 14 experiment.

The paper plots *effective application throughput* — "the useful data
packets transmitted per unit time" — as a percentage.  In the fluid model
the instantaneous transmitted rate is exact, and a byte is *useful* iff the
flow carrying it ultimately meets its deadline.  Usefulness is only known
at the end, so the collector records per-segment rates per flow and
resolves usefulness when the run finishes.

Normalisation (documented substitution, see DESIGN.md): percentages are
relative to the run's **peak aggregate transmit rate**, which for the
testbed experiment is the rate when every sender NIC is busy.  TAPS, whose
accepted flows all complete, then sits at ~100% while active and decays as
senders drain (the paper's "tail descends little by little"); Fair Sharing
fluctuates around the fraction of engaged capacity carrying doomed flows.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.sim.state import FlowState


@dataclass(slots=True)
class _Segment:
    t0: float
    t1: float
    flow_id: int
    rate: float


class ThroughputTimeSeries:
    """Engine hook recording per-flow transmission segments.

    Pass an instance in ``Engine(hooks=(collector,))``; after the run call
    :meth:`sample` to get ``(times, effective_pct)`` arrays.
    """

    def __init__(self) -> None:
        self._segments: list[_Segment] = []
        self._met: dict[int, bool] = {}

    # -- engine hook interface ------------------------------------------------

    def on_advance(
        self, t0: float, t1: float, active: Iterable[FlowState]
    ) -> None:
        if t1 <= t0:
            return
        for fs in active:
            if fs.rate > 0:
                self._segments.append(_Segment(t0, t1, fs.flow.flow_id, fs.rate))

    def on_flow_settled(self, fs: FlowState, now: float) -> None:
        self._met[fs.flow.flow_id] = fs.met_deadline

    # -- post-run queries -------------------------------------------------------

    def finalize(self, flow_states: list[FlowState]) -> None:
        """Record final usefulness for flows that never hit the settle hook."""
        for fs in flow_states:
            self._met.setdefault(fs.flow.flow_id, fs.met_deadline)

    def total_rate_at(self, t: float) -> tuple[float, float]:
        """(useful_rate, total_rate) at time ``t``."""
        useful = total = 0.0
        for seg in self._segments:
            if seg.t0 <= t < seg.t1:
                total += seg.rate
                if self._met.get(seg.flow_id, False):
                    useful += seg.rate
        return useful, total

    def sample(
        self,
        num_points: int = 200,
        t_end: float | None = None,
        normalize: str = "instant",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample effective throughput % on a uniform grid.

        ``normalize="instant"`` (default, the Fig. 14 reading): percentage
        of the *instantaneous* transmit rate that is useful — "the useful
        data packets transmitted per unit time" relative to what is being
        pushed.  ``normalize="peak"``: useful rate relative to the run's
        peak aggregate rate, which additionally shows utilisation decay as
        senders drain.
        """
        if normalize not in ("instant", "peak"):
            raise ValueError(f"unknown normalize {normalize!r}")
        if not self._segments:
            return np.zeros(0), np.zeros(0)
        horizon = t_end if t_end is not None else max(s.t1 for s in self._segments)
        times = np.linspace(0.0, horizon, num_points, endpoint=False)
        useful = np.zeros(num_points)
        total = np.zeros(num_points)
        # vectorised membership: for each segment add rate to covered samples
        for seg in self._segments:
            i0 = int(np.searchsorted(times, seg.t0, side="left"))
            i1 = int(np.searchsorted(times, seg.t1, side="left"))
            if i1 <= i0:
                continue
            total[i0:i1] += seg.rate
            if self._met.get(seg.flow_id, False):
                useful[i0:i1] += seg.rate
        if normalize == "peak":
            peak = total.max()
            if peak <= 0:
                return times, np.zeros(num_points)
            return times, 100.0 * useful / peak
        pct = np.zeros(num_points)
        busy = total > 0
        pct[busy] = 100.0 * useful[busy] / total[busy]
        return times, pct

    def mean_effective_pct(self) -> float:
        """Time-averaged effective throughput % while anything transmits."""
        times, pct = self.sample()
        busy = pct > 0
        return float(pct[busy].mean()) if busy.any() else 0.0
