"""TAPS: the paper's centralized task-aware preemptive scheduler.

Pieces map one-to-one onto the paper's §IV:

* :class:`~repro.core.occupancy.OccupancyLedger` — the per-link occupied
  time sets ``O_x`` (Table I).
* :func:`~repro.core.allocation.time_allocation` — Alg. 3
  (*TimeAllocation*): idle-time complement + first-``E_i`` carve.
* :func:`~repro.core.allocation.path_calculation` — Alg. 2
  (*PathCalculation*): per-flow best-path search over the candidate set.
* :class:`~repro.core.reject.RejectRule` — the accept/discard policy of
  Alg. 1 line 11.
* :class:`~repro.core.controller.TapsScheduler` — Alg. 1 wired into the
  simulator's :class:`~repro.sched.base.Scheduler` contract.

:mod:`repro.core.reference` holds the literal Alg. 2/3 oracle the
controller is tested against (not imported here: only tests and
benchmarks use it).
"""

from repro.core.occupancy import OccupancyLedger
from repro.core.allocation import FlowPlan, time_allocation, path_calculation
from repro.core.reject import RejectRule, RejectDecision, PreemptionPolicy
from repro.core.controller import TapsScheduler

__all__ = [
    "OccupancyLedger",
    "FlowPlan",
    "time_allocation",
    "path_calculation",
    "RejectRule",
    "RejectDecision",
    "PreemptionPolicy",
    "TapsScheduler",
]
