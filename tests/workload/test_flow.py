"""Flow/Task record validation."""

import pytest

from repro.workload.flow import Flow, Task, make_task


def _flow(**kw):
    base = dict(flow_id=0, task_id=0, src="a", dst="b",
                size=100.0, release=0.0, deadline=1.0)
    base.update(kw)
    return Flow(**base)


class TestFlow:
    def test_valid(self):
        f = _flow()
        assert f.slack == 1.0

    def test_expected_time(self):
        assert _flow(size=200.0).expected_time(capacity=100.0) == 2.0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            _flow(size=0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            _flow(size=-5)

    def test_deadline_before_release_rejected(self):
        with pytest.raises(ValueError):
            _flow(release=2.0, deadline=1.0)

    def test_deadline_equal_release_rejected(self):
        with pytest.raises(ValueError):
            _flow(release=1.0, deadline=1.0)

    def test_self_traffic_rejected(self):
        with pytest.raises(ValueError):
            _flow(src="a", dst="a")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _flow().size = 5

    def test_nan_size_rejected(self):
        with pytest.raises(ValueError, match="size must be finite"):
            _flow(size=float("nan"))

    def test_infinite_release_rejected(self):
        with pytest.raises(ValueError, match="release must be finite"):
            _flow(release=float("-inf"))

    def test_nan_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline must be finite"):
            _flow(deadline=float("nan"))


class TestTask:
    def test_make_task(self):
        t = make_task(3, arrival=1.0, deadline=2.0,
                      flow_specs=[("a", "b", 10.0), ("c", "d", 20.0)],
                      first_flow_id=7)
        assert t.num_flows == 2
        assert [f.flow_id for f in t.flows] == [7, 8]
        assert all(f.task_id == 3 for f in t.flows)
        assert t.total_size == 30.0

    def test_empty_task_rejected(self):
        with pytest.raises(ValueError):
            Task(task_id=0, arrival=0.0, deadline=1.0, flows=())

    def test_mismatched_task_id_rejected(self):
        f = _flow(task_id=9)
        with pytest.raises(ValueError):
            Task(task_id=0, arrival=0.0, deadline=1.0, flows=(f,))

    def test_mismatched_release_rejected(self):
        f = _flow(release=0.5, deadline=1.0)
        with pytest.raises(ValueError):
            Task(task_id=0, arrival=0.0, deadline=1.0, flows=(f,))

    def test_mismatched_deadline_rejected(self):
        f = _flow(deadline=0.9)
        with pytest.raises(ValueError):
            Task(task_id=0, arrival=0.0, deadline=1.0, flows=(f,))

    def test_flows_share_task_deadline(self):
        t = make_task(0, 0.0, 4.0, [("a", "b", 1.0), ("c", "d", 2.0)], 0)
        assert {f.deadline for f in t.flows} == {4.0}
