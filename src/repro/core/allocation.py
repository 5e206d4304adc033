"""Alg. 2 (*PathCalculation*) and Alg. 3 (*TimeAllocation*).

Given a priority-ordered flow list, each flow greedily claims the earliest
idle time it can find across its candidate paths; committed claims become
occupancy that lower-priority flows must schedule around.  Flows are never
refused here — a flow that cannot fit before its deadline is still
allocated (past the deadline); detecting and acting on such misses is the
reject rule's job (:mod:`repro.core.reject`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.core.occupancy import OccupancyLedger
from repro.net.paths import PathService
from repro.net.topology import Path
from repro.sim.state import FlowState
from repro.util.errors import AllocationError
from repro.util.intervals import (
    IntervalSet,
    merge_boundaries,
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
    occupied: IntervalSet | None = None,
) -> tuple[IntervalSet, float]:
    """Alg. 3: allocate ``duration`` of idle time on ``path`` after ``release``.

    Returns ``(slices, completion_time)``.  ``horizon`` must be generous
    enough that the fit always succeeds (callers size it as
    max-deadline + total backlog); running out is a programming error.
    ``occupied`` lets a caller that already holds the path's occupancy
    union (Alg. 2 just computed it for the winning candidate) skip the
    ledger re-query; it must match ``ledger.union_for(path)``.
    """
    if occupied is None:
        occupied = ledger.union_for(path)
    try:
        slices = occupied.occupied_first_fit(duration, release, horizon)
    except ValueError as exc:
        raise AllocationError(
            f"horizon {horizon:g} too small for duration {duration:g} "
            f"after t={release:g}"
        ) from exc
    return slices, slices.end()


def path_calculation(
    flows: list[FlowState],
    ledger: OccupancyLedger,
    paths: PathService,
    capacity: float,
    now: float,
    horizon: float,
    on_unplannable: str = "raise",
    profile=None,
    spans=None,
) -> dict[int, FlowPlan]:
    """Alg. 2: allocate every flow, in the order given, onto its best path.

    ``flows`` must already be sorted by the caller (Alg. 1 line 9 sorts by
    EDF then SJF).  The ledger is mutated: each flow's winning slices are
    committed before the next flow is considered.  ``now`` and ``horizon``
    must be on the plan grid (:func:`~repro.util.intervals.up`); releases
    and transmission times are rounded up onto it here.

    ``on_unplannable`` controls what happens when *no* candidate path can
    fit a flow within the horizon (only possible when the caller blocked
    links, e.g. for outages): ``"raise"`` propagates
    :class:`~repro.util.errors.AllocationError`; ``"skip"`` omits the flow
    from the returned plans (it simply does not transmit for now).

    ``profile`` (optional :class:`~repro.obs.hotpath.HotPathCounters`)
    counts work done and wall time; ``spans`` (optional
    :class:`~repro.obs.spans.SpanTimers`) additionally records each call's
    duration as a ``path_calculation`` span nested under whatever span the
    caller has open.

    Candidates are scored without materialising their unions or idle
    sets.  Those whose contention-free completion (``release + duration``,
    a hard lower bound on any path) cannot beat the current best are
    skipped outright, and the survivors are scored with a fused pair scan
    over the path's partial union folds that aborts the moment it is
    provably beaten.  Both cut-offs are exact — they only ever drop
    candidates that compare as losers — and the scan computes the literal
    ``union → complement → fit`` completion float-for-float, so the chosen
    path is the one the literal algorithm picks
    (:func:`repro.core.reference.reference_path_calculation`).

    Returns plans keyed by flow id.
    """
    if on_unplannable not in ("raise", "skip"):
        raise ValueError(f"bad on_unplannable {on_unplannable!r}")
    if spans is not None:
        with spans.span("path_calculation"):
            return _profiled_path_calculation(
                flows, ledger, paths, capacity, now, horizon, on_unplannable,
                profile,
            )
    return _profiled_path_calculation(
        flows, ledger, paths, capacity, now, horizon, on_unplannable, profile,
    )


def _profiled_path_calculation(
    flows, ledger, paths, capacity, now, horizon, on_unplannable, profile
) -> dict[int, FlowPlan]:
    if profile is None:
        return _path_calculation(
            flows, ledger, paths, capacity, now, horizon, on_unplannable,
            profile,
        )
    profile.path_calculation_calls += 1
    t0 = perf_counter()
    try:
        return _path_calculation(
            flows, ledger, paths, capacity, now, horizon, on_unplannable,
            profile,
        )
    finally:
        profile.path_calculation_seconds += perf_counter() - t0


def _path_calculation(
    flows: list[FlowState],
    ledger: OccupancyLedger,
    paths: PathService,
    capacity: float,
    now: float,
    horizon: float,
    on_unplannable: str,
    profile,
) -> dict[int, FlowPlan]:
    plans: dict[int, FlowPlan] = {}
    for fs in flows:
        f = fs.flow
        duration = transmission_time(fs, capacity)
        release = max(now, up(f.release))
        candidates = paths.candidates(f.src, f.dst)
        if not candidates:
            raise AllocationError(f"no path for flow {f.flow_id}: {f.src}->{f.dst}")

        best_occ: IntervalSet | None = None
        if len(candidates) == 1:
            best_path = candidates[0]
        else:
            # line 7–14: keep the path with the earliest completion.  Each
            # candidate's union is available as two partial folds (shared
            # endpoint fold + cached interior segment), and its completion
            # is scored straight off the pair with one fused scan — no
            # union is materialised for losing candidates.  Two exact
            # cut-offs skip work:
            #   1. release + duration >= best_end: free; kills every
            #      later candidate once one found a contention-free fit;
            #   2. the scan aborts the moment its earliest possible
            #      completion reaches best_end (stop_at).
            # Only the winner's union is merged, for slice building.
            best_path, best_end = None, float("inf")
            best_parts: tuple[list[float], list[float]] | None = None
            union_memo: dict[Path, list[float]] = {}
            for p in candidates:
                if profile is not None:
                    profile.candidates_evaluated += 1
                if best_path is not None and release + duration >= best_end:
                    if profile is not None:
                        profile.candidates_pruned += 1
                    continue
                shared, inter = ledger.union_parts(p, union_memo)
                try:
                    end = occupied_fit_end_pair(
                        shared, inter, duration, release, horizon,
                        stop_at=best_end,
                    )
                except ValueError:
                    continue  # this candidate cannot fit (blocked link)
                if end < best_end:
                    best_end, best_path = end, p
                    best_parts = (shared, inter)
            if best_parts is not None:
                best_occ = IntervalSet._from_boundaries(
                    merge_boundaries(best_parts[0], best_parts[1])
                )
        if best_path is None:
            if on_unplannable == "skip":
                continue
            raise AllocationError(
                f"no candidate path can fit flow {f.flow_id} "
                f"({f.src}->{f.dst}) within horizon {horizon:g}"
            )

        try:
            slices, completion = time_allocation(
                ledger, best_path, duration, release, horizon,
                occupied=best_occ,
            )
        except AllocationError:
            if on_unplannable == "skip":
                continue
            raise
        ledger.commit(best_path, slices)
        plans[f.flow_id] = FlowPlan(
            flow_state=fs, path=best_path, slices=slices, completion=completion
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
