"""What the network carried over a run: per-link loads and Fig. 14.

:class:`TransmissionLog` is an engine hook that records, for every
interval between two events, each sending flow's rate and path.  A byte
is *useful* iff the flow carrying it ultimately meets its deadline, which
the log reads from the flow's final state once the run is over.  Two
views are derived from the one record:

* :meth:`TransmissionLog.sample` — the paper's *effective application
  throughput* over time ("the useful data packets transmitted per unit
  time", §VI Fig. 14): the useful share of the instantaneous transmit
  rate, as a percentage.  TAPS, whose accepted flows all complete, sits
  at 100% while anything sends; Fair Sharing fluctuates around the share
  of its rate that feeds flows bound to miss.
* :meth:`TransmissionLog.link_loads` — the bytes each link carried,
  split into useful and wasted (§VI's "effective utilization of the
  network bandwidth"), each interval charged to the path the flow used
  in that interval.

Usage::

    log = TransmissionLog(topology)
    result = Engine(topology, tasks, sched, hooks=(log,)).run()
    times, pct = log.sample(num_points=100)
    busiest = log.hottest(horizon=result.finished_at, n=5)
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.net.topology import Path, Topology
from repro.sim.state import FlowState


@dataclass(frozen=True, slots=True)
class LinkLoad:
    """One link's totals over a run."""

    link_index: int
    src: str
    dst: str
    bytes_total: float
    bytes_useful: float
    utilization: float
    """bytes_total / (capacity × horizon) — fraction of the link's
    capacity-time actually carrying traffic."""

    @property
    def bytes_wasted(self) -> float:
        return self.bytes_total - self.bytes_useful


class TransmissionLog:
    """Engine hook recording ``(t0, t1, flow, rate, path)`` for each flow
    that sent over each interval ``[t0, t1)``, in time order.

    A flow without a path (an unrouted stub) counts towards throughput
    but is charged to no link.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.records: list[
            tuple[float, float, FlowState, float, Path | None]
        ] = []

    def on_advance(
        self, t0: float, t1: float, flows: Iterable[FlowState]
    ) -> None:
        self.records.extend((t0, t1, fs, fs.rate, fs.path) for fs in flows)

    # -- queries (after the run) ----------------------------------------------

    def sample(self, num_points: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """``(times, effective_pct)`` on a uniform grid over the logged
        span: the useful share of the transmit rate at each sample time
        (0 where nothing sends)."""
        if not self.records:
            return np.zeros(0), np.zeros(0)
        times = np.linspace(0.0, self.records[-1][1], num_points,
                            endpoint=False)
        useful = np.zeros(num_points)
        total = np.zeros(num_points)
        for t0, t1, fs, rate, _path in self.records:
            i0 = int(np.searchsorted(times, t0, side="left"))
            i1 = int(np.searchsorted(times, t1, side="left"))
            if i1 <= i0:
                continue
            total[i0:i1] += rate
            if fs.met_deadline:
                useful[i0:i1] += rate
        pct = np.zeros(num_points)
        busy = total > 0
        pct[busy] = 100.0 * useful[busy] / total[busy]
        return times, pct

    def link_loads(self, horizon: float) -> list[LinkLoad]:
        """Per-link loads, utilization taken over ``[0, horizon)``,
        busiest first.  Only links that carried any traffic appear."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        totals: dict[int, float] = {}
        useful: dict[int, float] = {}
        for t0, t1, fs, rate, path in self.records:
            nbytes = rate * (t1 - t0)
            met = fs.met_deadline
            for link in path or ():
                totals[link] = totals.get(link, 0.0) + nbytes
                if met:
                    useful[link] = useful.get(link, 0.0) + nbytes
        links = self.topology.links
        out = [
            LinkLoad(
                link_index=link,
                src=links[link].src,
                dst=links[link].dst,
                bytes_total=t,
                bytes_useful=useful.get(link, 0.0),
                utilization=t / (links[link].capacity * horizon),
            )
            for link, t in totals.items()
        ]
        out.sort(key=lambda x: -x.bytes_total)
        return out

    def hottest(self, horizon: float, n: int = 5) -> list[LinkLoad]:
        """The ``n`` most loaded links."""
        return self.link_loads(horizon)[:n]
