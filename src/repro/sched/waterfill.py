"""Weighted max-min fairness by progressive filling.

The fluid ideal of window-based congestion control: repeatedly find the
most-contended link (smallest capacity per unit weight), freeze the fair
share of all its unfrozen flows, subtract, repeat.  With unit weights
this is classic max-min (Fair Sharing); with deadline-derived weights it
is the fluid model of D2TCP; it also distributes D3's leftover capacity.

Complexity O(L·F) per call — fine at experiment scale; the engine only
recomputes when the active set changes.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.sim.state import FlowState


def weighted_max_min(
    flows: Sequence[FlowState],
    weights: Sequence[float],
    link_capacity,
    base: dict[int, float] | None = None,
) -> list[float]:
    """Rates for ``flows`` under weighted max-min fairness.

    Parameters
    ----------
    flows:
        Flow states; each must have a routed ``path``.
    weights:
        Positive per-flow weights; a flow's share on its bottleneck is
        proportional to its weight.
    link_capacity:
        ``link_capacity(link_index) -> float`` available capacity.
    base:
        Optional pre-consumed capacity per link (D3's granted requests);
        the filling runs on what remains.

    Returns the per-flow rates, aligned with ``flows``.
    """
    if len(flows) != len(weights):
        raise ValueError("flows and weights must align")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")

    # per-link state, maintained incrementally: remaining capacity and the
    # weight-sum of still-unfrozen flows (the naive per-round rescan is
    # O(rounds·L·F); this is O(rounds·L + Σ path lengths))
    remaining: dict[int, float] = {}
    wsum: dict[int, float] = {}
    link_flows: dict[int, list[int]] = {}
    for idx, fs in enumerate(flows):
        assert fs.path is not None, f"flow {fs.flow.flow_id} unrouted"
        w = weights[idx]
        for link in fs.path:
            if link not in remaining:
                consumed = 0.0 if base is None else base.get(link, 0.0)
                remaining[link] = max(0.0, link_capacity(link) - consumed)
                wsum[link] = 0.0
                link_flows[link] = []
            link_flows[link].append(idx)
            wsum[link] += w

    unfrozen = [True] * len(flows)
    rates = [0.0] * len(flows)
    count = len(flows)
    while count > 0:
        best_link, best_fill = -1, math.inf
        for link, ws in wsum.items():
            if ws <= 1e-15:
                continue
            fill = remaining[link] / ws
            if fill < best_fill:
                best_fill, best_link = fill, link
        if best_link < 0:
            break
        for i in link_flows[best_link]:
            if unfrozen[i]:
                unfrozen[i] = False
                count -= 1
                rate = best_fill * weights[i]
                rates[i] = rate
                for link in flows[i].path:  # type: ignore[union-attr]
                    remaining[link] = max(0.0, remaining[link] - rate)
                    wsum[link] -= weights[i]
        wsum[best_link] = 0.0  # exactly saturated; guard float residue
    return rates
