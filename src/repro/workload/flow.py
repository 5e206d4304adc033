"""Flow and Task records.

These are immutable *descriptions* of offered traffic; all runtime state
(bytes remaining, current rate, allocated slices) lives in the simulator's
per-flow state so the same workload object can be replayed across the six
schedulers unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite


@dataclass(frozen=True, slots=True)
class Flow:
    """One flow ``f_ij`` (paper Table I).

    Attributes
    ----------
    flow_id:
        Globally unique integer id.
    task_id:
        Id of the owning task (``i`` in ``f_ij``).
    src, dst:
        Endpoint host names (``Src_ij``, ``Dst_ij``).
    size:
        Bytes to transfer (``s_ij``).
    release:
        Absolute arrival time in seconds; equals the task's arrival since
        all flows of a task arrive together (§V-A).
    deadline:
        Absolute deadline in seconds (``d_ij``); shared by every flow of a
        task (§IV-B: ``d_ij = d_i``).
    """

    flow_id: int
    task_id: int
    src: str
    dst: str
    size: float
    release: float
    deadline: float

    def __post_init__(self) -> None:
        if not (isfinite(self.size) and isfinite(self.release)
                and isfinite(self.deadline)):
            for name in ("size", "release", "deadline"):
                value = getattr(self, name)
                if not isfinite(value):
                    raise ValueError(
                        f"flow {self.flow_id}: {name} must be finite, got {value}"
                    )
        if self.size <= 0:
            raise ValueError(f"flow {self.flow_id}: size must be positive, got {self.size}")
        if self.deadline <= self.release:
            raise ValueError(
                f"flow {self.flow_id}: deadline {self.deadline} not after release {self.release}"
            )
        if self.src == self.dst:
            raise ValueError(f"flow {self.flow_id}: src == dst == {self.src!r}")

    @property
    def slack(self) -> float:
        """Time between release and deadline."""
        return self.deadline - self.release

    def expected_time(self, capacity: float) -> float:
        """Expected transmission time ``E_ij`` at full link rate (§IV-B)."""
        return self.size / capacity


@dataclass(frozen=True, slots=True)
class Task:
    """One task ``t_i``: flows sharing an arrival time and deadline.

    Attributes
    ----------
    task_id:
        Unique integer id.
    arrival:
        Absolute arrival time of the task (and all its flows).
    deadline:
        Absolute shared deadline.
    flows:
        The task's flows, each with matching ``task_id``/``release``/``deadline``.
    """

    task_id: int
    arrival: float
    deadline: float
    flows: tuple[Flow, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError(f"task {self.task_id} has no flows")
        for f in self.flows:
            if f.task_id != self.task_id:
                raise ValueError(
                    f"flow {f.flow_id} has task_id {f.task_id}, expected {self.task_id}"
                )
            if f.release != self.arrival:
                raise ValueError(f"flow {f.flow_id} release differs from task arrival")
            if f.deadline != self.deadline:
                raise ValueError(f"flow {f.flow_id} deadline differs from task deadline")

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    @property
    def total_size(self) -> float:
        """Sum of flow sizes in bytes (the "task size" of the paper's metrics)."""
        return sum(f.size for f in self.flows)


def make_task(
    task_id: int,
    arrival: float,
    deadline: float,
    flow_specs: list[tuple[str, str, float]],
    first_flow_id: int,
) -> Task:
    """Build a task from ``(src, dst, size)`` specs, assigning flow ids.

    Convenience used by generators and hand-written traces.
    """
    flows = tuple(
        Flow(
            flow_id=first_flow_id + j,
            task_id=task_id,
            src=src,
            dst=dst,
            size=size,
            release=arrival,
            deadline=deadline,
        )
        for j, (src, dst, size) in enumerate(flow_specs)
    )
    return Task(task_id=task_id, arrival=arrival, deadline=deadline, flows=flows)
