"""Hand-written traces of the paper's worked examples."""

from repro.workload.traces import (
    dumbbell,
    fig1_trace,
    fig2_trace,
    fig3_topology,
    fig3_trace,
    testbed_trace as make_testbed_trace,
)


class TestDumbbell:
    def test_structure(self):
        t = dumbbell(4)
        assert len(t.hosts) == 8
        assert len(t.switches) == 2

    def test_every_pair_crosses_the_middle(self):
        t = dumbbell(3)
        mid = t.link("SL", "SR").index
        for i in range(3):
            assert mid in t.shortest_path(f"L{i}", f"R{i}")

    def test_unit_capacity(self):
        assert dumbbell(2).uniform_capacity() == 1.0


class TestFig1:
    def test_matches_paper_table(self):
        _, tasks = fig1_trace()
        assert len(tasks) == 2
        t1, t2 = tasks
        assert [f.size for f in t1.flows] == [2.0, 4.0]
        assert [f.size for f in t2.flows] == [1.0, 3.0]
        assert t1.deadline == t2.deadline == 4.0

    def test_all_arrive_simultaneously(self):
        _, tasks = fig1_trace()
        assert {t.arrival for t in tasks} == {0.0}

    def test_flow_order_is_paper_order(self):
        _, tasks = fig1_trace()
        ids = [f.flow_id for t in tasks for f in t.flows]
        assert ids == [0, 1, 2, 3]  # f11, f12, f21, f22


class TestFig2:
    def test_matches_paper_table(self):
        _, tasks = fig2_trace()
        t1, t2 = tasks
        assert all(f.size == 1.0 for f in t1.flows + t2.flows)
        assert t1.deadline == 4.0
        assert t2.deadline == 2.0


class TestFig3:
    def test_topology_shape(self):
        topo = fig3_topology()
        assert len(topo.hosts) == 4
        assert len(topo.switches) == 5

    def test_flows_match_paper_table(self):
        _, tasks = fig3_trace()
        specs = [
            (t.flows[0].src, t.flows[0].dst, t.flows[0].size, t.deadline)
            for t in tasks
        ]
        assert specs == [
            ("1", "2", 1.0, 1.0),
            ("1", "4", 1.0, 2.0),
            ("3", "2", 1.0, 2.0),
            ("3", "4", 2.0, 3.0),
        ]

    def test_contention_structure(self):
        """The link-sharing relations the paper's walk-through relies on."""
        topo, _ = fig3_trace()
        p_f1 = topo.shortest_path("1", "2")
        p_f3 = topo.shortest_path("3", "2")
        p_f4 = topo.shortest_path("3", "4")
        # f1 and f3 share the S5->2 link
        assert set(p_f1) & set(p_f3)
        # f3 and f4 share the 3->S3 (and S3->S5) links
        assert set(p_f3) & set(p_f4)
        # f2 has a detour disjoint from f1 beyond the first hop
        candidates = topo.candidate_paths("1", "4")
        assert len(candidates) == 2

    def test_optimal_schedule_exists(self):
        """The paper's Fig. 3(b) optimal allocation is feasible: all four
        flows can complete by their deadlines (TAPS finds it; asserted in
        the motivation tests)."""
        topo, tasks = fig3_trace()
        total = sum(t.total_size for t in tasks)
        assert total == 5.0  # 5 size units across disjoint-enough links


class TestTestbedTrace:
    def test_defaults(self):
        topo, tasks = make_testbed_trace()
        assert len(topo.hosts) == 8
        assert len(tasks) == 100
        assert all(t.num_flows == 1 for t in tasks)

    def test_burst_window(self):
        _, tasks = make_testbed_trace(burst_window=1e-3)
        assert max(t.arrival for t in tasks) < 5e-3  # bursty

    def test_seeded(self):
        _, a = make_testbed_trace(seed=3)
        _, b = make_testbed_trace(seed=3)
        assert [t.arrival for t in a] == [t.arrival for t in b]
