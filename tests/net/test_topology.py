"""Topology base class: construction, lookups, path computation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.net.link import Link
from repro.net.topology import Topology
from repro.util.errors import TopologyError


@pytest.fixture
def diamond():
    """a -> (s1|s2) -> b: two equal-cost 3-hop paths."""
    t = Topology(name="diamond")
    t.add_host("a")
    t.add_host("b")
    t.add_switch("s1")
    t.add_switch("s2")
    t.add_cable("a", "s1")
    t.add_cable("a", "s2")
    t.add_cable("s1", "b")
    t.add_cable("s2", "b")
    return t


class TestLink:
    def test_fields(self):
        link = Link(index=0, src="a", dst="b", capacity=10.0)
        assert link.capacity == 10.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Link(index=0, src="a", dst="b", capacity=0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(index=0, src="a", dst="a")


class TestConstruction:
    def test_counts(self, diamond):
        assert len(diamond.hosts) == 2
        assert len(diamond.switches) == 2
        assert diamond.num_links == 8  # 4 cables

    def test_dense_link_indices(self, diamond):
        assert [link.index for link in diamond.links] == list(range(8))

    def test_duplicate_node_rejected(self, diamond):
        with pytest.raises(TopologyError):
            diamond.add_host("a")
        with pytest.raises(TopologyError):
            diamond.add_switch("s1")

    def test_duplicate_link_rejected(self, diamond):
        with pytest.raises(TopologyError):
            diamond.add_link("a", "s1")

    def test_link_to_unknown_node_rejected(self, diamond):
        with pytest.raises(TopologyError):
            diamond.add_link("a", "nope")

    def test_link_lookup(self, diamond):
        link = diamond.link("a", "s1")
        assert (link.src, link.dst) == ("a", "s1")
        with pytest.raises(TopologyError):
            diamond.link("s1", "s2")

    def test_out_links(self, diamond):
        outs = {link.dst for link in diamond.out_links("a")}
        assert outs == {"s1", "s2"}
        with pytest.raises(TopologyError):
            diamond.out_links("ghost")

    def test_cable_capacity_override(self):
        t = Topology(default_capacity=5.0)
        t.add_host("x")
        t.add_host("y")
        ab, ba = t.add_cable("x", "y", capacity=2.0)
        assert ab.capacity == ba.capacity == 2.0


class TestUniformCapacity:
    def test_uniform(self, diamond):
        assert diamond.uniform_capacity() == diamond.default_capacity

    def test_heterogeneous_raises(self):
        t = Topology()
        t.add_host("x")
        t.add_host("y")
        t.add_link("x", "y", capacity=1.0)
        t.add_link("y", "x", capacity=2.0)
        with pytest.raises(TopologyError):
            t.uniform_capacity()

    def test_empty_raises(self):
        with pytest.raises(TopologyError):
            Topology().uniform_capacity()


class TestPaths:
    def test_shortest_path_is_link_indices(self, diamond):
        p = diamond.shortest_path("a", "b")
        assert len(p) == 2
        links = diamond.links
        assert links[p[0]].src == "a"
        assert links[p[-1]].dst == "b"
        # consecutive links chain
        assert links[p[0]].dst == links[p[1]].src

    def test_candidate_paths_enumerates_both(self, diamond):
        paths = diamond.candidate_paths("a", "b")
        assert len(paths) == 2
        mids = {diamond.links[p[0]].dst for p in paths}
        assert mids == {"s1", "s2"}

    def test_max_paths_caps(self, diamond):
        assert len(diamond.candidate_paths("a", "b", max_paths=1)) == 1

    def test_no_path_raises(self):
        t = Topology()
        t.add_host("a")
        t.add_host("b")
        with pytest.raises(TopologyError):
            t.shortest_path("a", "b")

    def test_same_endpoint_raises(self, diamond):
        with pytest.raises(TopologyError):
            diamond.candidate_paths("a", "a")

    def test_nodes_to_path_roundtrip(self, diamond):
        p = diamond.nodes_to_path(["a", "s1", "b"])
        assert [diamond.links[i].dst for i in p] == ["s1", "b"]

    def test_validate_connected(self, diamond):
        diamond.validate()

    def test_validate_detects_partition(self):
        t = Topology()
        t.add_host("a")
        t.add_host("b")
        t.add_host("c")
        t.add_cable("a", "b")
        with pytest.raises(TopologyError):
            t.validate()

    def test_graph_cache_invalidated_on_mutation(self, diamond):
        g1 = diamond.graph()
        diamond.add_host("c")
        diamond.add_cable("c", "s1")
        g2 = diamond.graph()
        assert g2.number_of_nodes() == g1.number_of_nodes() + 1


def test_structured_topologies_run_without_networkx():
    """Only the generic path search imports networkx: a fresh process that
    imports ``repro`` and plans on a fat-tree and a single-rooted tree
    (closed-form paths) never loads it."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys\n"
        "import repro\n"
        "from repro import FatTree, PathService, SingleRootedTree\n"
        "for topo in (FatTree(k=4), SingleRootedTree(4, 3, 3)):\n"
        "    hosts = list(topo.hosts)\n"
        "    assert PathService(topo).candidates(hosts[0], hosts[-1])\n"
        "print('networkx' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
