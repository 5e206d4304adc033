"""Alg. 2 (*PathCalculation*) and Alg. 3 (*TimeAllocation*).

Given a priority-ordered flow list, each flow greedily claims the earliest
idle time it can find across its candidate paths; committed claims become
occupancy that lower-priority flows must schedule around.  A flow that
cannot fit before its deadline is still allocated (past the deadline);
detecting and acting on such misses is the reject rule's job
(:mod:`repro.core.reject`).  Only a flow that no candidate can fit at all
(its links blocked by an outage) gets no plan.

Alg. 2 scores a flow's candidate paths by group, with one fold and one
exact lower bound per group (:func:`_best_candidate`); skipped candidates
count in ``candidates_pruned`` and never reach the ledger's segment cache.

:func:`path_calculation` is a plain planner: it counts its work into a
:class:`~repro.obs.hotpath.HotPathCounters` and times nothing.  The
controller counts each call and opens its ``path_calculation`` telemetry
span (:meth:`~repro.core.controller.TapsScheduler._path_calculation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.core.occupancy import OccupancyLedger
from repro.net.paths import PathService
from repro.net.topology import Path
from repro.obs.hotpath import HotPathCounters
from repro.sim.state import FlowState
from repro.util.errors import AllocationError
from repro.util.intervals import (
    IntervalSet,
    occupied_first_fit_pair,
    occupied_fit_end_pair,
    up,
)


@dataclass(slots=True, eq=False)
class FlowPlan:
    """One flow's committed allocation: ``⟨L_ij, A_ij⟩`` of paper Table I.

    Attributes
    ----------
    flow_state:
        The flow this plan serves.
    path:
        Chosen route (link indices) — ``L_ij``.
    slices:
        Pre-allocated transmission intervals — ``A_ij``; their total
        measure equals the flow's remaining transmission time at planning
        (:func:`transmission_time`).
    completion:
        End of the last slice; compared against the deadline by the
        reject rule.

    Slice boundaries and the completion are on the plan grid
    (:data:`~repro.util.intervals.GRID`), so every comparison is exact.
    """

    flow_state: FlowState
    path: Path
    slices: IntervalSet
    completion: float

    @property
    def meets_deadline(self) -> bool:
        return self.completion <= self.flow_state.flow.deadline


def transmission_time(fs: FlowState, capacity: float) -> float:
    """``E_i`` of Alg. 3: the time ``fs`` needs at full link rate for its
    remaining bytes, rounded up onto the plan grid."""
    return up(fs.remaining / capacity)


def time_allocation(
    ledger: OccupancyLedger,
    path: Path,
    duration: float,
    release: float,
    horizon: float,
) -> tuple[IntervalSet, float]:
    """Alg. 3: allocate ``duration`` of idle time on ``path`` after ``release``.

    Returns ``(slices, completion_time)``.  ``horizon`` must be generous
    enough that the fit always succeeds (callers size it as
    max-deadline + total backlog); running out raises
    :class:`~repro.util.errors.AllocationError`.  Alg. 2 calls it for a
    flow with a single candidate path; a multi-candidate winner is sliced
    straight from the two folds it was scored on.
    """
    try:
        bounds = occupied_first_fit_pair(
            ledger.union_for(path)._b, [], duration, release, horizon
        )
    except ValueError as exc:
        raise AllocationError(
            f"horizon {horizon:g} too small for duration {duration:g} "
            f"after t={release:g}"
        ) from exc
    slices = IntervalSet._from_boundaries(bounds)
    return slices, slices.end()


def _best_candidate(
    candidates: tuple[Path, ...],
    ledger: OccupancyLedger,
    duration: float,
    release: float,
    horizon: float,
    profile: HotPathCounters,
) -> tuple[Path, list[float], list[float]] | None:
    """Alg. 2 lines 7–14: the candidate with the earliest completion (ties
    keep the first), with the two folds it was scored on; ``None`` when no
    candidate fits.

    Candidates are scored by **group**, in candidate order.  A group is a
    run of consecutive candidates that share every link outside their
    interior segment: the endpoint links plus, on paths of five or more
    links, the first and last hop.  Its links are folded once (the
    endpoint fold is shared by consecutive groups), and a member's union
    is that group fold plus its interior-segment fold
    (:meth:`~repro.core.occupancy.OccupancyLedger.segment_fold`), scored
    with one fused pair scan (:func:`occupied_fit_end_pair`) — no union is
    materialised.  Three exact cut-offs skip work, each counted in
    ``candidates_pruned`` except the third:

    1. ``release + duration >= best_end`` ends the search: no path
       completes before its contention-free fit;
    2. once a best exists, the group fold's own fit (one scan, before any
       member's interior fold) bounds every member's completion from
       below, since each member's union contains the group fold; the rest
       of the group is skipped once that bound reaches ``best_end``;
    3. a member's scan aborts the moment its completion reaches
       ``best_end`` (``stop_at``).

    Only a strictly earlier completion wins, so none of them changes the
    choice of the literal algorithm
    (:func:`repro.core.reference.reference_path_calculation`).
    """
    n = len(candidates)
    profile.candidates_evaluated += n
    floor = release + duration
    best: tuple[Path, list[float], list[float]] | None = None
    best_end = inf
    group: tuple[int, ...] = ()
    for i, p in enumerate(candidates):
        long = len(p) >= 5
        key = (p[0], p[1], p[-2], p[-1]) if long else (p[0], p[-1])
        if key != group:
            if not group or key[0] != group[0] or key[-1] != group[-1]:
                ends = ledger.fold((key[0], key[-1]))
            group = key
            shared = ledger.fold((p[1], p[-2]), ends) if long else ends
            bound = None
        if best is not None:
            if bound is None:
                try:
                    bound = occupied_fit_end_pair(
                        shared, [], duration, release, horizon, best_end
                    )
                except ValueError:
                    bound = inf  # the group's own links cannot fit it
            if bound >= best_end:
                profile.candidates_pruned += 1
                continue
        inner = ledger.segment_fold(p[2:-2] if long else p[1:-1])
        try:
            end = occupied_fit_end_pair(
                shared, inner, duration, release, horizon, best_end
            )
        except ValueError:
            continue  # this candidate cannot fit (blocked link)
        if end < best_end:
            best_end = end
            best = (p, shared, inner)
            if floor >= end:
                profile.candidates_pruned += n - 1 - i
                break
    return best


def path_calculation(
    flows: list[FlowState],
    ledger: OccupancyLedger,
    paths: PathService,
    capacity: float,
    now: float,
    horizon: float,
    profile: HotPathCounters | None = None,
) -> dict[int, FlowPlan]:
    """Alg. 2: allocate every flow, in the order given, onto its best path.

    ``flows`` must already be sorted by the caller (Alg. 1 line 9 sorts by
    EDF then SJF).  The ledger is mutated: each flow's winning slices are
    committed before the next flow is considered.  ``now`` and ``horizon``
    must be on the plan grid (:func:`~repro.util.intervals.up`); releases
    and transmission times are rounded up onto it here.

    A flow that no candidate path can fit within the horizon (only
    possible when the caller blocked links, e.g. for outages) gets no
    plan: it is left out of the result and does not transmit for now.  A
    host pair with no candidate path at all raises
    :class:`~repro.util.errors.AllocationError`.

    ``profile`` (a :class:`~repro.obs.hotpath.HotPathCounters`) receives
    the candidate counts; without one they go to a private instance.

    A single-candidate flow goes straight to Alg. 3
    (:func:`time_allocation`).  Otherwise the winner is picked by group
    (:func:`_best_candidate`) and sliced by one fused scan over its two
    folds (:func:`~repro.util.intervals.occupied_first_fit_pair`), which
    computes the literal ``union → complement → first_fit`` slices
    float-for-float.

    Returns plans keyed by flow id.
    """
    if profile is None:
        profile = HotPathCounters()
    plans: dict[int, FlowPlan] = {}
    for fs in flows:
        f = fs.flow
        duration = transmission_time(fs, capacity)
        release = max(now, up(f.release))
        candidates = paths.candidates(f.src, f.dst)
        if len(candidates) == 1:
            path = candidates[0]
            try:
                slices, completion = time_allocation(
                    ledger, path, duration, release, horizon
                )
            except AllocationError:
                continue  # the one candidate cannot fit: no plan
        elif not candidates:
            raise AllocationError(f"no path for flow {f.flow_id}: {f.src}->{f.dst}")
        else:
            best = _best_candidate(
                candidates, ledger, duration, release, horizon, profile
            )
            if best is None:
                continue  # no candidate fits: no plan
            path, shared, inner = best
            slices = IntervalSet._from_boundaries(occupied_first_fit_pair(
                shared, inner, duration, release, horizon
            ))
            completion = slices.end()
        ledger.commit(path, slices)
        plans[f.flow_id] = FlowPlan(
            flow_state=fs, path=path, slices=slices, completion=completion
        )
    return plans


def allocation_horizon(flows: list[FlowState], capacity: float, now: float) -> float:
    """A horizon that guarantees every fit succeeds, on the plan grid.

    Worst case every flow is scheduled serially after the latest deadline:
    ``max(deadline, now) + Σ durations`` plus one second of slack.  Raises
    ``ValueError`` when it reaches 2**17 s, where plan time stops being
    exact (see :data:`~repro.util.intervals.GRID`).
    """
    latest = max((fs.flow.deadline for fs in flows), default=now)
    backlog = sum(fs.remaining for fs in flows) / capacity
    horizon = max(latest, now) + backlog + 1.0
    if not horizon < 2.0 ** 17:
        raise ValueError(
            f"plan horizon {horizon:g} s is beyond the exact plan-time "
            f"range of 2**17 s"
        )
    return up(horizon)
