"""Per-link utilization accounting.

The paper's §VI claim is about "effective utilization of the network
bandwidth"; this collector measures it per link: byte-time carried by
each link over a run, split into *useful* (flows that met their deadline)
and *wasted* (flows that missed).  Feeds the utilization example and the
hotspot assertions in tests.

Usage::

    load = LinkLoadCollector(topology)
    result = Engine(topo, tasks, sched, hooks=(load,)).run()
    load.finalize(result.flow_states)
    table = load.utilization(horizon=result.finished_at)
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.net.topology import Topology
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


class LinkLoadCollector:
    """Engine hook accumulating per-link byte-time.

    Usefulness (deadline met or not) is only known at the end, so bytes
    are attributed per flow during the run and split in :meth:`finalize`.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._per_flow_bytes: dict[int, float] = {}
        self._flow_paths: dict[int, tuple[int, ...]] = {}
        self._met: dict[int, bool] = {}
        self._peak: dict[int, float] = {}

    # -- engine hook ----------------------------------------------------------

    def on_advance(
        self, t0: float, t1: float, active: Iterable[FlowState]
    ) -> None:
        dt = t1 - t0
        if dt <= 0:
            return
        link_rates: dict[int, float] = {}
        for fs in active:
            if fs.rate > 0 and fs.path is not None:
                fid = fs.flow.flow_id
                self._per_flow_bytes[fid] = (
                    self._per_flow_bytes.get(fid, 0.0) + fs.rate * dt
                )
                self._flow_paths[fid] = fs.path
                for l in fs.path:
                    link_rates[l] = link_rates.get(l, 0.0) + fs.rate
        if link_rates:
            links = self.topology.links
            peak = self._peak
            for l, r in link_rates.items():
                frac = r / links[l].capacity
                if frac > peak.get(l, 0.0):
                    peak[l] = frac

    def on_flow_settled(self, fs: FlowState, now: float) -> None:
        self._met[fs.flow.flow_id] = fs.met_deadline

    def finalize(self, flow_states: list[FlowState]) -> None:
        """Fill usefulness for flows the hooks never settled."""
        for fs in flow_states:
            self._met.setdefault(fs.flow.flow_id, fs.met_deadline)
            if fs.path is not None and fs.flow.flow_id in self._per_flow_bytes:
                self._flow_paths.setdefault(fs.flow.flow_id, fs.path)

    # -- queries ------------------------------------------------------------------

    def utilization(self, horizon: float) -> list[LinkLoad]:
        """Per-link loads over ``[0, horizon)``, busiest first.

        Only links that carried any traffic appear.  Note: flows are
        attributed to their *final* path; a TAPS flow rerouted mid-run is
        charged to the path it finished on (exact per-segment attribution
        would need per-advance path snapshots, which the tests that need
        exactness arrange by construction).
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        totals: dict[int, float] = {}
        useful: dict[int, float] = {}
        for fid, nbytes in self._per_flow_bytes.items():
            path = self._flow_paths.get(fid, ())
            met = self._met.get(fid, False)
            for l in path:
                totals[l] = totals.get(l, 0.0) + nbytes
                if met:
                    useful[l] = useful.get(l, 0.0) + nbytes
        links = self.topology.links
        out = [
            LinkLoad(
                link_index=l,
                src=links[l].src,
                dst=links[l].dst,
                bytes_total=t,
                bytes_useful=useful.get(l, 0.0),
                utilization=t / (links[l].capacity * horizon),
            )
            for l, t in totals.items()
        ]
        out.sort(key=lambda x: -x.bytes_total)
        return out

    def hottest(self, horizon: float, n: int = 5) -> list[LinkLoad]:
        """The ``n`` most loaded links."""
        return self.utilization(horizon)[:n]

    def peak_utilization(self) -> dict[int, float]:
        """Per-link *peak instantaneous* utilization over the run.

        The highest ``Σ flow rates / capacity`` any advance interval saw
        on each link — the congestion question ("did this link ever
        saturate?"), complementing :meth:`utilization`'s time-averaged
        one.  Only links that ever carried traffic appear.
        """
        return dict(self._peak)
