"""Weighted max-min fairness (the shared water-filling core)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sched.waterfill import weighted_max_min
from repro.sim.state import FlowState
from repro.workload.flow import Flow


def _fs(fid, path):
    f = Flow(flow_id=fid, task_id=0, src="a", dst="b",
             size=1.0, release=0.0, deadline=1.0)
    st_ = FlowState(flow=f)
    st_.path = path
    return st_


def test_equal_weights_equal_split():
    flows = [_fs(0, (0,)), _fs(1, (0,)), _fs(2, (0,))]
    rates = weighted_max_min(flows, [1, 1, 1], lambda link: 3.0)
    assert rates == pytest.approx([1.0, 1.0, 1.0])


def test_weights_tilt_shares():
    flows = [_fs(0, (0,)), _fs(1, (0,))]
    rates = weighted_max_min(flows, [2.0, 1.0], lambda link: 3.0)
    assert rates == pytest.approx([2.0, 1.0])


def test_uncontended_flow_gets_full_link():
    flows = [_fs(0, (0,)), _fs(1, (1,))]
    rates = weighted_max_min(flows, [1, 1], lambda link: 5.0)
    assert rates == pytest.approx([5.0, 5.0])


def test_classic_max_min_redistribution():
    # flows A,B share link 0; B also crosses link 1 with C.
    # link 1 (cap 1) is B and C's bottleneck: each gets 0.5;
    # A then picks up link 0's slack: 1.5.
    flows = [_fs(0, (0,)), _fs(1, (0, 1)), _fs(2, (1,))]
    rates = weighted_max_min(flows, [1, 1, 1],
                             lambda link: {0: 2.0, 1: 1.0}[link])
    assert rates == pytest.approx([1.5, 0.5, 0.5])


def test_base_consumption_respected():
    flows = [_fs(0, (0,))]
    rates = weighted_max_min(flows, [1.0], lambda link: 2.0, base={0: 1.5})
    assert rates == pytest.approx([0.5])


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        weighted_max_min([_fs(0, (0,))], [1, 2], lambda link: 1.0)


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError):
        weighted_max_min([_fs(0, (0,))], [0.0], lambda link: 1.0)


@st.composite
def scenarios(draw):
    n_links = draw(st.integers(1, 4))
    n_flows = draw(st.integers(1, 6))
    flows, weights = [], []
    for i in range(n_flows):
        path = tuple(sorted(draw(
            st.sets(st.integers(0, n_links - 1), min_size=1, max_size=n_links)
        )))
        flows.append(_fs(i, path))
        weights.append(draw(st.floats(0.1, 5.0)))
    caps = {link: draw(st.floats(0.5, 10.0)) for link in range(n_links)}
    return flows, weights, caps


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_never_oversubscribes_and_work_conserving(scenario):
    flows, weights, caps = scenario
    rates = weighted_max_min(flows, weights, lambda link: caps[link])
    assert all(r >= 0 for r in rates)
    load = {}
    for fs, r in zip(flows, rates):
        for link in fs.path:
            load[link] = load.get(link, 0.0) + r
    for link, total in load.items():
        assert total <= caps[link] * (1 + 1e-9)
    # work conservation: every flow is bottlenecked somewhere
    for fs, r in zip(flows, rates):
        slack = min(caps[link] - load[link] for link in fs.path)
        assert slack <= 1e-6, "a flow left usable capacity unused"
