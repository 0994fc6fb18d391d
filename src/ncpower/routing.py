"""Shortest paths and minimum-total-hop link-disjoint path pairs.

All tie-breaks are lexicographic on node sequences so that repeated runs (and
the reference tables under tests/data/) are reproducible bit-for-bit:

* ``shortest_path`` returns the lexicographically smallest minimum-hop path.
* A disjoint pair is ordered (working, protection) by (hop count, sequence).
* Candidate pairs are sorted by (working sequence, protection sequence).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ContractError, RoutingError, SurvivabilityError
from .model import Demand, Edge, Instance, Link, Topology, _bfs_dist, undirected


@dataclass(frozen=True)
class Path:
    """A simple path stored as its node sequence."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ContractError("a path needs at least two nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ContractError(f"path {self.nodes} revisits a node")

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1

    @cached_property
    def links(self) -> tuple[Link, ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))

    @cached_property
    def link_set(self) -> frozenset[Link]:
        return frozenset(self.links)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(undirected(l) for l in self.links)

    def __str__(self) -> str:
        return "-".join(map(str, self.nodes))


class PathKind(Enum):
    WORKING = "w"
    PROTECTION = "p"


@dataclass(frozen=True)
class PathPair:
    """Working and protection path of one demand; disjoint in the fibre view."""

    demand: Demand
    working: Path
    protection: Path

    def __post_init__(self):
        for path in (self.working, self.protection):
            if path.nodes[0] != self.demand.source or path.nodes[-1] != self.demand.dest:
                raise ContractError(f"path {path} does not serve demand {self.demand}")
        if self.working.edge_set & self.protection.edge_set:
            raise ContractError(f"paths of {self.demand} share a fibre")
        if self.working.hop_count > self.protection.hop_count:
            raise ContractError("working path must not be longer than protection")

    @property
    def total_hops(self) -> int:
        return self.working.hop_count + self.protection.hop_count

    def path(self, kind: PathKind) -> Path:
        return self.working if kind is PathKind.WORKING else self.protection


def shortest_path(topology: Topology, source: int, dest: int) -> Path:
    """Lexicographically smallest minimum-hop path from source to dest.

    It follows the topology's hop-distance table to dest downhill, taking the
    smallest neighbour one hop closer at each step.
    """
    dist_to_dest = topology.distances_to(dest)
    if source not in dist_to_dest:
        raise RoutingError(f"node {dest} is unreachable from node {source}")
    nodes = [source]
    while nodes[-1] != dest:
        here = nodes[-1]
        # adjacency is sorted, so the first admissible neighbour is the smallest
        for nb in topology.adjacency[here]:
            if dist_to_dest.get(nb, -1) == dist_to_dest[here] - 1:
                nodes.append(nb)
                break
    return Path(tuple(nodes))


def _min_pair_total(topology: Topology, source: int, dest: int) -> int:
    """Minimum total hop count over all edge-disjoint path pairs (Suurballe).

    The hop distances d to dest, negated, are the potentials (Suurballe &
    Tarjan, 1984): in the residual graph of the shortest path (its links
    reversed at cost -1) an arc u->v has reduced cost 1 + d(v) - d(u) >= 0,
    and a reversed link 0, so a single Dijkstra run finds the cheapest
    augmenting path.
    """
    base = shortest_path(topology, source, dest)
    to_dest = topology.distances_to(dest)
    base_edges = base.edge_set
    reversed_links = {(b, a) for a, b in base.links}

    def reduced_arcs(node: int):
        for nb in topology.adjacency[node]:
            if undirected((node, nb)) in base_edges:
                if (node, nb) in reversed_links:
                    yield nb, 0
                continue
            yield nb, 1 + to_dest[nb] - to_dest[node]

    dist: dict[int, int] = {}
    queue: list[tuple[int, int]] = [(0, source)]
    while queue:
        d, node = heapq.heappop(queue)
        if node in dist:
            continue
        dist[node] = d
        if node == dest:
            break
        for nb, w in reduced_arcs(node):
            if nb not in dist:
                heapq.heappush(queue, (d + w, nb))
    if dest not in dist:
        # the reached set holds a prefix of the base path (each base link's
        # reversed arc leads back) and no other edge leaves it, so the one
        # base link out of it is the bridge nearest the source
        edge = next(undirected((a, b)) for a, b in base.links if a in dist and b not in dist)
        raise SurvivabilityError(
            f"no edge-disjoint path pair from {source} to {dest}: "
            f"edge {edge} is a cut edge",
            cut_edge=edge,
        )
    # undo the potential shift: true residual cost = dist + d(source)
    return base.hop_count + dist[dest] + to_dest[source]


def _simple_paths_upto(
    adjacency: Mapping[int, Sequence[int]],
    dist_to_dest: Mapping[int, int],
    source: int,
    dest: int,
    max_hops: int,
) -> Iterator[tuple[int, ...]]:
    """Simple source->dest paths of at most max_hops hops, yielded in lex order.

    A depth-first search over sorted neighbour lists meets the paths in
    lexicographic order of their node sequences (no path to dest is a prefix
    of another), and ``dist_to_dest``, the hop distances to dest in
    ``adjacency``, prunes every branch that cannot reach dest within the hops
    left.  The paths are produced lazily, so a caller that stops early pays
    only for the paths it consumed.
    """
    if dist_to_dest.get(source, max_hops + 1) > max_hops:
        return
    # explicit stack of neighbour iterators: recursing would overflow on paths
    # hundreds of hops deep, e.g. the far arc of a large ring
    path = [source]
    on_path = {source}
    stack = [iter(adjacency[source])]
    while stack:
        budget = max_hops - len(path) + 1
        for nb in stack[-1]:
            if nb in on_path or dist_to_dest.get(nb, budget) > budget - 1:
                continue
            if nb == dest:
                yield tuple(path) + (nb,)
                continue
            path.append(nb)
            on_path.add(nb)
            stack.append(iter(adjacency[nb]))
            break
        else:
            stack.pop()
            on_path.remove(path.pop())


def _without_fibres(
    adjacency: Mapping[int, Sequence[int]], nodes: tuple[int, ...]
) -> dict[int, Sequence[int]]:
    """A copy of adjacency with every fibre of the path ``nodes`` removed."""
    reduced = dict(adjacency)
    for a, b in zip(nodes, nodes[1:]):
        reduced[a] = [nb for nb in reduced[a] if nb != b]
        reduced[b] = [nb for nb in reduced[b] if nb != a]
    return reduced


def disjoint_pair_candidates(topology: Topology, demand: Demand, k: int = 8) -> list[PathPair]:
    """Up to k minimum-total-hop edge-disjoint pairs for a demand, lex-ordered.

    Every returned pair has the same (optimal) total hop count, so callers may
    swap freely among them without touching the uncoded power.  The pairs are
    the first k of all optimal pairs sorted by (working, protection) node
    sequence, where working is the shorter path (the smaller one on a tie).

    The search walks candidate working paths W of at most total // 2 hops in
    lex order and, for each, the paths P of at most total - |W| hops in the
    graph without W's fibres, again in lex order.  No such P is shorter than
    total - |W| hops, since (W, P) would then be a disjoint pair below the
    minimum total; so every P found completes an optimal pair, and the walk
    over P, pruned by one BFS in that graph, follows its shortest paths only.
    It finds every optimal pair: W, the shorter path of the pair, has at most
    total // 2 hops.  A P as long as W is kept only if it is lex-larger than
    W; the other order is met with the roles swapped.  Both loops run in lex
    order, so pairs come out sorted and the search stops at the k-th.  Its
    cost is in proportion to the working paths tried and the k pairs
    returned, not to the number of all paths in the graph.
    """
    if k < 1:
        raise ContractError("candidate budget must be at least 1")
    s, t = demand.source, demand.dest
    total = _min_pair_total(topology, s, t)
    pairs: list[PathPair] = []
    adjacency = topology.adjacency
    for working in _simple_paths_upto(adjacency, topology.distances_to(t), s, t, total // 2):
        reduced = _without_fibres(adjacency, working)
        dist_reduced = _bfs_dist(reduced, t)
        for protection in _simple_paths_upto(reduced, dist_reduced, s, t, total - len(working) + 1):
            if len(protection) == len(working) and protection < working:
                continue
            pairs.append(PathPair(demand, Path(working), Path(protection)))
            if len(pairs) == k:
                return pairs
    return pairs


def suurballe_pair(topology: Topology, demand: Demand) -> PathPair:
    """The canonical minimum-total-hop disjoint pair (first candidate)."""
    return disjoint_pair_candidates(topology, demand, k=1)[0]


def route_instance(instance: Instance) -> tuple[PathPair, ...]:
    """Canonical 1+1 routing: suurballe_pair for every demand, in demand order."""
    return tuple(suurballe_pair(instance.topology, d) for d in instance.demands)


def index_routing(instance: Instance, routing: Iterable[PathPair]) -> dict[Demand, PathPair]:
    """Map each instance demand to its routed pair; reject gaps and duplicates."""
    by_demand: dict[Demand, PathPair] = {}
    for pair in routing:
        if pair.demand in by_demand:
            raise ContractError(f"demand {pair.demand} routed twice")
        by_demand[pair.demand] = pair
    for d in instance.demands:
        if d not in by_demand:
            raise ContractError(f"demand {d} has no routing")
    if len(by_demand) != len(instance.demands):
        stranger = next(d for d in by_demand if d not in set(instance.demands))
        raise ContractError(f"routing covers unknown demand {stranger}")
    return by_demand
