"""The TAPS reject rule (paper §IV-B, Alg. 1 line 11).

After the trial allocation of ``Ftmp`` (new task + all in-flight flows),
the controller inspects which flows would miss their deadlines and decides:

1. flows of **more than one** task would miss  → *reject the new task*;
2. flows of the **new task itself** would miss → *reject the new task*;
3. all missing flows belong to exactly one **other** task ``V``:
   compare completion ratios — if ``ratio(V) >= ratio(new)`` *reject the
   new task*, else *discard* ``V`` (task preemption) and retry.

The paper leaves "completion ratio" underspecified for a task that has not
yet sent a byte (the newcomer's transmitted-bytes ratio is always 0, which
under a literal reading makes case-3 preemption unreachable — consistent
with §IV-B's "we would not discard flows in tasks which are accepted and
transmitting", but in tension with the abstract's task preemption claim).
We therefore expose the comparison as a policy knob and benchmark the
choice as an ablation:

* ``PROGRESS`` (default, literal): ratio = bytes already transmitted /
  task size.  The incumbent wins ties, so a transmitting task is never
  discarded; only a task with *strictly less* progress than the newcomer
  can be preempted.
* ``PROSPECTIVE``: ratio = fraction of the task's flows that would meet
  their deadline under the trial allocation.  The victim (which by
  definition has missing flows) always loses to the newcomer (whose flows
  all fit in case 3), making preemption aggressive.
* ``NEVER``: unconditional newcomer rejection in case 3 (a conservative
  Varys-like admission, for ablation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.allocation import FlowPlan
from repro.sim.state import EPS, TaskState


class PreemptionPolicy(enum.Enum):
    """How case 3 of the reject rule compares the victim and the newcomer."""

    PROGRESS = "progress"
    PROSPECTIVE = "prospective"
    NEVER = "never"


class Decision(enum.Enum):
    ACCEPT = "accept"
    REJECT_NEW = "reject-new"
    DISCARD_VICTIM = "discard-victim"


@dataclass(slots=True)
class RejectDecision:
    """Outcome of one rule evaluation.

    ``clause`` names which clause of the rule fired (for the decision
    trace and the auditor): 1 — flows of several tasks missing, 2 — the
    new task's own flows missing, 3 — the single-victim ratio comparison
    (either direction).  ``None`` on a clean accept.  ``victim_ratio`` /
    ``new_ratio`` are the completion ratios clause 3 compared, recorded
    so the comparison can be re-checked offline.
    """

    decision: Decision
    victim_task_id: int | None = None
    missing_flow_ids: tuple[int, ...] = ()
    clause: int | None = None
    victim_ratio: float | None = None
    new_ratio: float | None = None


class RejectRule:
    """Evaluates the reject rule over a trial allocation."""

    def __init__(self, policy: PreemptionPolicy = PreemptionPolicy.PROGRESS) -> None:
        self.policy = policy

    def evaluate(
        self,
        plans: dict[int, FlowPlan],
        new_task: TaskState,
        task_states: dict[int, TaskState],
    ) -> RejectDecision:
        """Apply the rule to a trial allocation.

        ``plans`` is the output of
        :func:`~repro.core.allocation.path_calculation` over ``Ftmp``, or
        over its prefix up to the new task's last flow when one of the new
        task's flows already misses there (the trial's early stop): the
        verdict is clause 2 either way, and ``missing_flow_ids`` lists the
        misses of the plans given.  ``task_states`` maps task id → state
        for every task with a plan.
        """
        missing = [p for p in plans.values() if not p.meets_deadline]
        if not missing:
            return RejectDecision(Decision.ACCEPT)

        missing_ids = tuple(p.flow_state.flow.flow_id for p in missing)
        missing_tasks = {p.flow_state.flow.task_id for p in missing}
        new_id = new_task.task.task_id

        if new_id in missing_tasks:
            # clause 2: the newcomer's own flows cannot make it
            return RejectDecision(
                Decision.REJECT_NEW, missing_flow_ids=missing_ids, clause=2
            )
        if len(missing_tasks) > 1:
            # clause 1: the newcomer would wreck several incumbents
            return RejectDecision(
                Decision.REJECT_NEW, missing_flow_ids=missing_ids, clause=1
            )

        # clause 3: exactly one other task would miss — compare ratios
        (victim_id,) = missing_tasks
        victim = task_states[victim_id]
        victim_ratio, new_ratio = self._ratios(plans, victim, new_task)
        if self._newcomer_wins(victim_ratio, new_ratio):
            return RejectDecision(
                Decision.DISCARD_VICTIM,
                victim_task_id=victim_id,
                missing_flow_ids=missing_ids,
                clause=3,
                victim_ratio=victim_ratio,
                new_ratio=new_ratio,
            )
        return RejectDecision(
            Decision.REJECT_NEW,
            missing_flow_ids=missing_ids,
            clause=3,
            victim_ratio=victim_ratio,
            new_ratio=new_ratio,
        )

    def _ratios(
        self,
        plans: dict[int, FlowPlan],
        victim: TaskState,
        new_task: TaskState,
    ) -> tuple[float, float]:
        """The (victim, newcomer) completion ratios clause 3 compares.

        Under ``NEVER`` the comparison is unconditional, but the progress
        ratios are still recorded for the decision trace.
        """
        if self.policy is PreemptionPolicy.PROSPECTIVE:
            return self._prospective(plans, victim), self._prospective(plans, new_task)
        return victim.completion_ratio, new_task.completion_ratio

    def _newcomer_wins(self, victim_ratio: float, new_ratio: float) -> bool:
        if self.policy is PreemptionPolicy.NEVER:
            return False
        if self.policy is PreemptionPolicy.PROGRESS:
            # "if the completion ratio of [the victim] is less than tid,
            # discard [the victim]" — strict, so ties keep the incumbent.
            return victim_ratio < new_ratio - 1e-12
        # PROSPECTIVE: fraction of flows meeting deadlines under the trial
        return victim_ratio < new_ratio

    @staticmethod
    def _prospective(plans: dict[int, FlowPlan], ts: TaskState) -> float:
        total = len(ts.flow_states)
        if total == 0:
            return 1.0
        ok = 0
        for fs in ts.flow_states:
            plan = plans.get(fs.flow.flow_id)
            if plan is not None:
                if plan.meets_deadline:
                    ok += 1
            elif fs.met_deadline or (
                fs.completed_at is not None
                and fs.completed_at <= fs.flow.deadline + EPS
            ):
                ok += 1  # already finished in time, no plan needed
        return ok / total
