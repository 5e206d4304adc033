"""BCube(n, k): structure and digit-correction multipath."""

import networkx as nx
import pytest

from repro.net.bcube import BCube
from repro.util.errors import TopologyError


@pytest.fixture
def b41():
    return BCube(n=4, k=1)


class TestStructure:
    def test_server_count(self, b41):
        assert b41.num_servers == 16
        assert len(b41.hosts) == 16

    def test_switch_count(self, b41):
        # k+1 levels × n^k switches = 2 × 4
        assert len(b41.switches) == 8

    def test_each_server_has_k_plus_1_ports(self, b41):
        for s in b41.hosts:
            assert len(b41.out_links(s)) == 2

    def test_each_switch_has_n_ports(self, b41):
        for sw in b41.switches:
            assert len(b41.out_links(sw)) == 4

    def test_switches_never_interconnect(self, b41):
        switch_set = set(b41.switches)
        for link in b41.links:
            assert not (link.src in switch_set and link.dst in switch_set)

    def test_k0_is_single_switch(self):
        b = BCube(n=3, k=0)
        assert b.num_servers == 3
        assert len(b.switches) == 1
        b.validate()

    def test_k2_scales(self):
        b = BCube(n=3, k=2)
        assert b.num_servers == 27
        assert len(b.switches) == 3 * 9
        b.validate()

    def test_invalid_params(self):
        with pytest.raises(TopologyError):
            BCube(n=1)
        with pytest.raises(TopologyError):
            BCube(n=4, k=-1)

    def test_connected(self, b41):
        b41.validate()


class TestRouting:
    def test_one_digit_diff_two_hops(self, b41):
        p = b41.candidate_paths("s00", "s01")
        assert len(p) == 1
        assert len(p[0]) == 2  # server -> switch -> server

    def test_two_digit_diff_two_paths(self, b41):
        paths = b41.candidate_paths("s00", "s11")
        assert len(paths) == 2  # 2! correction orders
        assert all(len(p) == 4 for p in paths)
        assert paths[0] != paths[1]

    def test_three_digit_diff_six_paths(self):
        b = BCube(n=3, k=2)
        paths = b.candidate_paths("s000", "s111")
        assert len(paths) == 6  # 3!
        assert all(len(p) == 6 for p in paths)
        assert len(set(paths)) == 6

    def test_max_paths_cap(self):
        b = BCube(n=3, k=2)
        assert len(b.candidate_paths("s000", "s111", max_paths=2)) == 2

    def test_paths_are_valid_chains(self, b41):
        links = b41.links
        for p in b41.candidate_paths("s00", "s33"):
            assert links[p[0]].src == "s00"
            assert links[p[-1]].dst == "s33"
            for x, y in zip(p, p[1:]):
                assert links[x].dst == links[y].src

    def test_intermediate_hops_are_servers_and_switches_alternating(self, b41):
        switch_set = set(b41.switches)
        for p in b41.candidate_paths("s00", "s11"):
            nodes = [b41.links[p[0]].src] + [b41.links[link].dst for link in p]
            for i, node in enumerate(nodes):
                assert (node in switch_set) == (i % 2 == 1)

    def test_matches_graph_shortest_length(self, b41):
        g = b41.graph()
        for src, dst in [("s00", "s01"), ("s00", "s11"), ("s02", "s31")]:
            expect = nx.shortest_path_length(g, src, dst)
            for p in b41.candidate_paths(src, dst):
                assert len(p) == expect

    def test_same_server_raises(self, b41):
        with pytest.raises(TopologyError):
            b41.candidate_paths("s00", "s00")

    def test_malformed_names_raise(self, b41):
        with pytest.raises(TopologyError):
            b41.candidate_paths("w0_0", "s00")
        with pytest.raises(TopologyError):
            b41.candidate_paths("s99", "s00")


class TestScheduling:
    def test_taps_runs_on_bcube(self, b41):
        """End-to-end: TAPS schedules a workload on the server-centric
        topology, exploiting the digit-correction multipath."""
        from repro.core.controller import TapsScheduler
        from repro.metrics.summary import summarize
        from repro.sim.engine import Engine
        from repro.workload.generator import WorkloadConfig, generate_workload

        cfg = WorkloadConfig(num_tasks=10, mean_flows_per_task=4,
                             arrival_rate=300, seed=9)
        tasks = generate_workload(cfg, list(b41.hosts))
        m = summarize(Engine(b41, tasks, TapsScheduler()).run())
        assert m.task_completion_ratio > 0.3
        assert m.wasted_bandwidth_ratio == 0.0
