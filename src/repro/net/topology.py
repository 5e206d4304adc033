"""Topology: a named graph of hosts and switches with indexed directed links.

A topology owns:

* the node sets (``hosts`` — traffic endpoints; ``switches`` — forwarding
  only),
* the dense-indexed directed :class:`~repro.net.link.Link` list,
* adjacency for path computation.

Subclasses (:class:`~repro.net.trees.SingleRootedTree`,
:class:`~repro.net.fattree.FatTree`, …) build their structure in
``__init__`` via :meth:`add_host` / :meth:`add_switch` / :meth:`add_cable`
and may override :meth:`candidate_paths` with topology-aware enumeration.
"""

from __future__ import annotations

from collections.abc import Sequence

import networkx as nx

from repro.net.link import Link
from repro.util.errors import TopologyError

Path = tuple[int, ...]
"""A path is a tuple of link indices from source host to destination host."""


class Topology:
    """Base topology: nodes plus indexed directed links.

    Parameters
    ----------
    name:
        Human-readable topology name (appears in experiment reports).
    default_capacity:
        Capacity (bytes/s) used by :meth:`add_cable` when none is given.
    """

    def __init__(self, name: str = "topology", default_capacity: float = 1e9 / 8.0) -> None:
        self.name = name
        self.default_capacity = default_capacity
        self._hosts: list[str] = []
        self._switches: list[str] = []
        self._links: list[Link] = []
        self._link_by_pair: dict[tuple[str, str], Link] = {}
        self._adj: dict[str, list[Link]] = {}
        self._graph_cache: nx.DiGraph | None = None

    # -- construction -----------------------------------------------------

    def add_host(self, node: str) -> str:
        """Register a traffic-endpoint node."""
        self._check_new_node(node)
        self._hosts.append(node)
        self._adj[node] = []
        return node

    def add_switch(self, node: str) -> str:
        """Register a forwarding-only node."""
        self._check_new_node(node)
        self._switches.append(node)
        self._adj[node] = []
        return node

    def add_link(self, src: str, dst: str, capacity: float | None = None) -> Link:
        """Add one directed link."""
        for node in (src, dst):
            if node not in self._adj:
                raise TopologyError(f"unknown node {node!r}")
        if (src, dst) in self._link_by_pair:
            raise TopologyError(f"duplicate link {src!r}->{dst!r}")
        link = Link(
            index=len(self._links),
            src=src,
            dst=dst,
            capacity=self.default_capacity if capacity is None else capacity,
        )
        self._links.append(link)
        self._link_by_pair[(src, dst)] = link
        self._adj[src].append(link)
        self._graph_cache = None
        return link

    def add_cable(self, a: str, b: str, capacity: float | None = None) -> tuple[Link, Link]:
        """Add a full-duplex cable: two directed links, one each way."""
        return self.add_link(a, b, capacity), self.add_link(b, a, capacity)

    def _check_new_node(self, node: str) -> None:
        if node in self._adj:
            raise TopologyError(f"duplicate node {node!r}")

    # -- accessors ----------------------------------------------------------

    @property
    def hosts(self) -> Sequence[str]:
        """All traffic endpoints, in insertion order."""
        return self._hosts

    @property
    def switches(self) -> Sequence[str]:
        """All forwarding-only nodes, in insertion order."""
        return self._switches

    @property
    def links(self) -> Sequence[Link]:
        """All directed links, indexed densely by ``Link.index``."""
        return self._links

    @property
    def num_links(self) -> int:
        return len(self._links)

    def link(self, src: str, dst: str) -> Link:
        """The directed link ``src -> dst``; raises if absent."""
        try:
            return self._link_by_pair[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src!r}->{dst!r}") from None

    def out_links(self, node: str) -> Sequence[Link]:
        """Outgoing links of ``node``."""
        try:
            return self._adj[node]
        except KeyError:
            raise TopologyError(f"unknown node {node!r}") from None

    def uniform_capacity(self) -> float:
        """The common link capacity; raises if capacities are heterogeneous.

        TAPS' size→transmission-time reduction (§IV-B) is only valid for
        uniform capacity, so its controller calls this at construction.
        """
        if not self._links:
            raise TopologyError("topology has no links")
        caps = {link.capacity for link in self._links}
        if len(caps) != 1:
            raise TopologyError(f"link capacities not uniform: {sorted(caps)}")
        return next(iter(caps))

    # -- path computation -----------------------------------------------------

    def graph(self) -> nx.DiGraph:
        """A networkx view of the topology (cached; rebuild on mutation)."""
        if self._graph_cache is None:
            g = nx.DiGraph()
            g.add_nodes_from(self._hosts, kind="host")
            g.add_nodes_from(self._switches, kind="switch")
            for link in self._links:
                g.add_edge(link.src, link.dst, index=link.index, capacity=link.capacity)
            self._graph_cache = g
        return self._graph_cache

    def nodes_to_path(self, nodes: Sequence[str]) -> Path:
        """Convert a node sequence into a tuple of link indices."""
        return tuple(
            self.link(u, v).index for u, v in zip(nodes, nodes[1:])
        )

    def shortest_path(self, src: str, dst: str) -> Path:
        """One shortest path (hop count) from ``src`` to ``dst``."""
        try:
            nodes = nx.shortest_path(self.graph(), src, dst)
        except nx.NetworkXNoPath:
            raise TopologyError(f"no path {src!r} -> {dst!r}") from None
        return self.nodes_to_path(nodes)

    def candidate_paths(self, src: str, dst: str, max_paths: int | None = None) -> list[Path]:
        """All shortest paths ``src -> dst``, up to ``max_paths``.

        This is the "alternative path set P" of paper Alg. 2 line 3.  The
        base implementation enumerates equal-cost shortest paths with
        networkx; structured topologies override this with closed-form
        enumeration (fat-tree core choice, etc.) for speed.
        """
        if src == dst:
            raise TopologyError(f"src == dst == {src!r}")
        gen = nx.all_shortest_paths(self.graph(), src, dst)
        paths: list[Path] = []
        try:
            for nodes in gen:
                paths.append(self.nodes_to_path(nodes))
                if max_paths is not None and len(paths) >= max_paths:
                    break
        except nx.NetworkXNoPath:
            raise TopologyError(f"no path {src!r} -> {dst!r}") from None
        return paths

    def validate(self) -> None:
        """Structural sanity check: every host can reach every other host.

        O(hosts²) reachability via one BFS per host on the condensed graph;
        intended for tests and small topologies, not the 36k-server tree.
        """
        g = self.graph()
        for h in self._hosts:
            reach = nx.descendants(g, h)
            missing = [x for x in self._hosts if x != h and x not in reach]
            if missing:
                raise TopologyError(f"host {h!r} cannot reach {missing[:3]}…")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}: {len(self._hosts)} hosts, "
            f"{len(self._switches)} switches, {len(self._links)} links)"
        )
