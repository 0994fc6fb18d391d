"""Network, demand, device and instance model, plus the on-disk instance format.

Every fact of an instance lives here: the fibre topology, the demands and the
device power model they are priced with.  Nodes are integers 1..N.  A
topology stores each bidirectional fibre once, as the canonical (u, v) with
u < v, which is what the ``edge`` directives in instance files describe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .errors import DomainError, InstanceError

# Directed link and canonical (u < v) undirected edge.
Link = tuple[int, int]
Edge = tuple[int, int]

# uniform demand volume in Gbps of a generated instance when none is given
DEFAULT_VOLUME = 20.0


def undirected(link: Link) -> Edge:
    u, v = link
    return (u, v) if u < v else (v, u)


def _bfs_dist(adjacency: Mapping[int, Sequence[int]], start: int) -> dict[int, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adjacency[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


@dataclass(frozen=True)
class Topology:
    """Bidirectional fibre topology over nodes 1..node_count."""

    node_count: int
    undirected_edges: frozenset[Edge]

    def __post_init__(self):
        if self.node_count < 1:
            raise DomainError("topology needs at least one node")
        for u, v in self.undirected_edges:
            if u == v:
                raise DomainError(f"self-loop at node {u}")
            if not (1 <= u <= self.node_count and 1 <= v <= self.node_count):
                raise DomainError(f"link ({u},{v}) outside node range 1..{self.node_count}")
            if u > v:
                raise DomainError(
                    f"fibre ({u},{v}) must be written ({v},{u}); "
                    f"Topology.from_undirected_edges accepts either order"
                )

    @classmethod
    def from_undirected_edges(cls, node_count: int, edges) -> Topology:
        return cls(node_count, frozenset(map(undirected, edges)))

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Sorted neighbour lists; sortedness keeps traversals deterministic."""
        nbrs: dict[int, list[int]] = {n: [] for n in range(1, self.node_count + 1)}
        for u, v in self.undirected_edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {n: tuple(sorted(ns)) for n, ns in nbrs.items()}

    @cached_property
    def _distance_tables(self) -> dict[int, dict[int, int]]:
        return {}

    @cached_property
    def _pair_walks(self) -> dict[tuple[int, int], object]:
        # disjoint-pair candidate walk per ordered (s, t); routing fills it
        return {}

    def distances_to(self, node: int) -> dict[int, int]:
        """Hop distance to ``node`` from every node that reaches it.

        The BFS runs on first use and its table is kept with the topology, so
        routing and bounds share one table per node.  Links come in fibre
        pairs, so distances to and from a node agree.  Callers must treat the
        table as read-only.
        """
        table = self._distance_tables.get(node)
        if table is None:
            table = self._distance_tables[node] = _bfs_dist(self.adjacency, node)
        return table

    def is_connected(self) -> bool:
        return len(self.distances_to(1)) == self.node_count


@dataclass(frozen=True)
class Demand:
    """Directed traffic demand of ``volume`` Gbps from source to dest."""

    source: int
    dest: int
    volume: float

    def __post_init__(self):
        if self.source == self.dest:
            raise DomainError(f"demand endpoints coincide at node {self.source}")
        if not 0 <= self.volume < math.inf:
            raise DomainError(f"demand {self} volume {self.volume} must be finite and non-negative")

    def __str__(self) -> str:
        return f"{self.source}->{self.dest}"


@dataclass(frozen=True)
class PowerParams:
    """Device power draw and channel capacity.

    Defaults model a 1000 W IP router port plus a 73 W WDM transponder on
    40 Gbps channels, i.e. a slope of 26.825 W per Gbps per hop.
    """

    port_w: float = 1000.0
    transponder_w: float = 73.0
    channel_gbps: float = 40.0

    def __post_init__(self):
        if not (0 <= self.port_w < math.inf and 0 <= self.transponder_w < math.inf):
            raise DomainError("device powers must be finite and non-negative")
        if not 0 < self.channel_gbps < math.inf:
            raise DomainError("channel capacity must be finite and positive")

    @property
    def slope_w_per_gbps(self) -> float:
        """Watts drawn per Gbps carried over one link."""
        return (self.port_w + self.transponder_w) / self.channel_gbps


@dataclass(frozen=True)
class Instance:
    """A topology, a demand set and the power parameters to price them with."""

    topology: Topology
    demands: tuple[Demand, ...]
    power: PowerParams = field(default_factory=PowerParams)

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        for d in self.demands:
            for node in (d.source, d.dest):
                if not 1 <= node <= self.topology.node_count:
                    raise DomainError(f"demand {d} references unknown node {node}")
            key = (d.source, d.dest)
            if key in seen:
                raise DomainError(f"duplicate demand {d}")
            seen.add(key)


def _all_pairs_demands(n: int, volume: float) -> tuple[Demand, ...]:
    return tuple(
        Demand(s, t, volume) for s in range(1, n + 1) for t in range(1, n + 1) if s != t
    )


def generate_full_mesh(
    n: int, volume: float = DEFAULT_VOLUME, power: PowerParams = PowerParams()
) -> Instance:
    """Full mesh on n >= 3 nodes with a uniform all-pairs demand set."""
    if n < 3:
        raise DomainError(f"n={n}: 1+1 protection is undefined below 3 nodes")
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    topo = Topology.from_undirected_edges(n, edges)
    return Instance(topo, _all_pairs_demands(n, volume), power)


def generate_ring(
    n: int, volume: float = DEFAULT_VOLUME, power: PowerParams = PowerParams()
) -> Instance:
    """Bidirectional ring 1-2-...-n-1 with a uniform all-pairs demand set."""
    if n < 3:
        raise DomainError(f"n={n}: 1+1 protection is undefined below 3 nodes")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    topo = Topology.from_undirected_edges(n, edges)
    return Instance(topo, _all_pairs_demands(n, volume), power)


# ---------------------------------------------------------------------------
# Instance file format: line-oriented text, '#' starts a comment.
#   nodes <N>                 first directive, exactly once
#   edge <u> <v>              undirected fibre pair
#   demand <s> <t> <gbps>     optional
#   power <pp_w> <pt_w> <B_gbps>   optional, defaults 1000 73 40
# ---------------------------------------------------------------------------


def _num(token: str, kind, what: str, line_no: int):
    try:
        value = kind(token)
    except ValueError:
        raise InstanceError(f"{what} must be a {kind.__name__}, got {token!r}", line_no) from None
    return value


def load_instance(text: str) -> Instance:
    """Parse an instance file; raises InstanceError naming the offending line."""
    node_count = None
    nodes_line = None
    edges: list[tuple[int, int]] = []
    edge_keys: set[Edge] = set()
    edge_lines: dict[Edge, int] = {}
    demands: list[Demand] = []
    demand_keys: set[tuple[int, int]] = set()
    power: PowerParams | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]

        if node_count is None and directive != "nodes":
            raise InstanceError("first directive must be 'nodes <N>'", line_no)

        if directive == "nodes":
            if node_count is not None:
                raise InstanceError("duplicate 'nodes' directive", line_no)
            if len(args) != 1:
                raise InstanceError("'nodes' takes exactly one argument", line_no)
            node_count = _num(args[0], int, "node count", line_no)
            if node_count < 1:
                raise InstanceError("node count must be positive", line_no)
            nodes_line = line_no
        elif directive == "edge":
            if len(args) != 2:
                raise InstanceError("'edge' takes exactly two arguments", line_no)
            u = _num(args[0], int, "edge endpoint", line_no)
            v = _num(args[1], int, "edge endpoint", line_no)
            if u == v:
                raise InstanceError(f"self-loop at node {u}", line_no)
            for node in (u, v):
                if not 1 <= node <= node_count:
                    raise InstanceError(f"node {node} outside 1..{node_count}", line_no)
            key = undirected((u, v))
            if key in edge_keys:
                raise InstanceError(
                    f"duplicate edge {key} (first seen on line {edge_lines[key]})", line_no
                )
            edge_keys.add(key)
            edge_lines[key] = line_no
            edges.append((u, v))
        elif directive == "demand":
            if len(args) != 3:
                raise InstanceError("'demand' takes exactly three arguments", line_no)
            s = _num(args[0], int, "demand source", line_no)
            t = _num(args[1], int, "demand dest", line_no)
            vol = _num(args[2], float, "demand volume", line_no)
            if s == t:
                raise InstanceError("demand source and dest coincide", line_no)
            for node in (s, t):
                if not 1 <= node <= node_count:
                    raise InstanceError(f"node {node} outside 1..{node_count}", line_no)
            if not 0 <= vol < math.inf:
                raise InstanceError("demand volume must be finite and non-negative", line_no)
            if (s, t) in demand_keys:
                raise InstanceError(f"duplicate demand {s}->{t}", line_no)
            demand_keys.add((s, t))
            demands.append(Demand(s, t, vol))
        elif directive == "power":
            if len(args) != 3:
                raise InstanceError("'power' takes exactly three arguments", line_no)
            if power is not None:
                raise InstanceError("duplicate 'power' directive", line_no)
            pp = _num(args[0], float, "port power", line_no)
            pt = _num(args[1], float, "transponder power", line_no)
            cap = _num(args[2], float, "channel capacity", line_no)
            try:
                power = PowerParams(pp, pt, cap)
            except DomainError as exc:
                raise InstanceError(str(exc), line_no) from None
        else:
            raise InstanceError(f"unknown directive {directive!r}", line_no)

    if node_count is None:
        raise InstanceError("empty instance: no 'nodes' directive", 1)

    topo = Topology.from_undirected_edges(node_count, edges)
    # a connected graph needs N - 1 fibres; too few refuses a huge node count
    # before the connectivity check builds an adjacency entry per node
    if len(edges) < node_count - 1 or not topo.is_connected():
        raise InstanceError("graph is disconnected", nodes_line)
    return Instance(topo, tuple(demands), power or PowerParams())


def _fmt(value: float) -> str:
    # repr round-trips floats exactly; integral values are written bare
    return str(int(value)) if float(value).is_integer() else repr(value)


def serialize_instance(instance: Instance) -> str:
    """Inverse of load_instance: load(serialize(i)) == i."""
    lines = [f"nodes {instance.topology.node_count}"]
    p = instance.power
    lines.append(f"power {_fmt(p.port_w)} {_fmt(p.transponder_w)} {_fmt(p.channel_gbps)}")
    for u, v in sorted(instance.topology.undirected_edges):
        lines.append(f"edge {u} {v}")
    for d in instance.demands:
        lines.append(f"demand {d.source} {d.dest} {_fmt(d.volume)}")
    return "\n".join(lines) + "\n"
