"""Link-failure injection.

Data center links fail; a centralized controller is supposed to notice
and reroute (one of SDN's selling points, and implicit in the paper's
"online response to tasks in dynamic data center network" design goal).
This module adds scheduled link outages to the fluid simulator:

* a :class:`LinkFault` takes one directed link down over ``[start, end)``;
* the engine zeroes the rate of any flow whose path crosses a down link
  (transmission physically stops regardless of what the scheduler asked
  for) and wakes the scheduler at every fault boundary via
  ``on_link_state_change`` so it can react;
* schedulers that don't react simply stall the affected flows until the
  link returns (or the deadline kills them); the TAPS controller
  reallocates around the outage (see
  :meth:`repro.core.controller.TapsScheduler.on_link_state_change`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from repro.util.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class LinkFault:
    """One outage of one directed link.

    Attributes
    ----------
    link_index:
        The failed link.
    start, end:
        Outage window ``[start, end)``; ``end = inf`` is permanent.
    """

    link_index: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.start) or math.isnan(self.end):
            raise ConfigurationError(
                f"fault on link {self.link_index}: start must be finite and "
                f"end not NaN, got [{self.start}, {self.end})"
            )
        if self.end <= self.start:
            raise ConfigurationError(
                f"fault on link {self.link_index}: end {self.end} "
                f"not after start {self.start}"
            )
        if self.start < 0:
            raise ConfigurationError("fault start must be >= 0")


class FaultSchedule:
    """The set of outages of a run, queryable by time."""

    def __init__(self, faults: Sequence[LinkFault] = ()) -> None:
        self.faults = sorted(faults, key=lambda f: (f.start, f.link_index))
        self._boundaries = sorted(
            {f.start for f in self.faults}
            | {f.end for f in self.faults if f.end != float("inf")}
        )
        self._by_link: dict[int, list[LinkFault]] = {}
        for f in self.faults:
            self._by_link.setdefault(f.link_index, []).append(f)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def down_links(self, t: float) -> set[int]:
        """Links that are down at time ``t``."""
        return {
            f.link_index for f in self.faults if f.start <= t < f.end
        }

    def next_boundary(self, t: float) -> float | None:
        """The first fault start/end strictly after ``t``.

        Exact comparison, no tolerance: the engine integrates up to the
        boundary it was given, so a fuzzy ``> t + eps`` here would *skip*
        a boundary landing within eps after ``t`` — the outage (or
        recovery) would be applied one event late, or never.  Bisect over
        the sorted boundary list keeps this O(log n) per query.
        """
        i = bisect_right(self._boundaries, t)
        if i < len(self._boundaries):
            return self._boundaries[i]
        return None

    def outage_of(self, link_index: int, t: float) -> LinkFault | None:
        """The fault covering ``link_index`` at ``t``, if any.

        When several scheduled outages of the same link overlap at ``t``,
        the one extending furthest is returned — the link stays down until
        the *last* covering window closes, so callers asking "until when?"
        get the honest answer rather than whichever window happened to
        sort first.
        """
        best: LinkFault | None = None
        for f in self._by_link.get(link_index, ()):
            if f.start <= t < f.end and (best is None or f.end > best.end):
                best = f
        return best
