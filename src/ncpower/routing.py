"""Shortest paths and minimum-total-hop link-disjoint path pairs.

All tie-breaks are lexicographic on node sequences so that repeated runs (and
the reference tables under tests/data/) are reproducible bit-for-bit:

* ``shortest_path`` returns the lexicographically smallest minimum-hop path.
* A disjoint pair is ordered (working, protection) by (hop count, sequence).
* Candidate pairs are sorted by (working sequence, protection sequence).

The candidates of each ordered (source, dest) come from one walk per
topology.  Its record, kept with the topology beside the distance tables,
holds the minimum total, the pairs found and whether the walk has run out.
There is one search per unordered pair, and a finished walk serves its
reverse.  Routing walks each demand to the selectors' budget, so their calls
only read the record.
A path is its node tuple.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ContractError, RoutingError, SurvivabilityError
from .model import Demand, Instance, Topology, bfs_dist, undirected

# disjoint-pair candidates per demand when the caller names no budget
CANDIDATE_BUDGET = 8


class PathKind(Enum):
    WORKING = "w"
    PROTECTION = "p"


@dataclass(frozen=True, slots=True)
class PathPair:
    """Working and protection path of one (source, dest); disjoint in the fibre view.

    Each path is its node tuple: at least two nodes, none repeated.
    """

    working: tuple[int, ...]
    protection: tuple[int, ...]

    def __post_init__(self):
        w, p = self.working, self.protection
        for nodes in (w, p):
            if type(nodes) is not tuple:  # a list would compare unequal and not hash
                raise ContractError(f"path {nodes} is not a tuple")
            if len(nodes) < 2:
                raise ContractError(f"path {nodes} needs at least two nodes")
            if len(set(nodes)) != len(nodes):
                raise ContractError(f"path {nodes} revisits a node")
        if (w[0], w[-1]) != (p[0], p[-1]):
            raise ContractError(f"paths {w} and {p} do not share their endpoints")
        fibres = set(zip(w, w[1:]))
        fibres.update(zip(w[1:], w))
        if not fibres.isdisjoint(zip(p, p[1:])):
            raise ContractError(f"paths {w} and {p} share a fibre")
        if len(w) > len(p):
            raise ContractError("working path must not be longer than protection")

    @property
    def ends(self) -> tuple[int, int]:
        """(source, dest) of both paths."""
        return self.working[0], self.working[-1]

    @property
    def total_hops(self) -> int:
        return len(self.working) + len(self.protection) - 2

    def path(self, kind: PathKind) -> tuple[int, ...]:
        return self.working if kind is PathKind.WORKING else self.protection


def shortest_path(topology: Topology, source: int, dest: int) -> tuple[int, ...]:
    """Lexicographically smallest minimum-hop path from source to dest.

    It is the first path of at most the minimum hop count that the lex-ordered
    walk meets; the walk yields no path from a node to itself, which is
    ``(source,)``.
    """
    dist_to_dest = topology.distances_to(dest)
    if source not in dist_to_dest:
        raise RoutingError(f"node {dest} is unreachable from node {source}")
    walk = _simple_paths_upto(topology.adjacency, dist_to_dest, source, dest, dist_to_dest[source])
    return next(walk, (source,))


@dataclass(slots=True)
class _PairWalk:
    """The candidate walk of one ordered (s, t), as far as it has gone.

    ``total`` is the minimum disjoint-pair total, ``pairs`` the first
    optimal pairs in lex order, and ``done`` says the walk has run out, so
    ``pairs`` holds every optimal pair and serves (t, s) reversed.
    """

    total: int
    pairs: list[PathPair] = field(default_factory=list)
    done: bool = False


def _suurballe_total(topology: Topology, source: int, dest: int) -> int:
    """The minimum disjoint-pair total by one Suurballe search.

    The hop distances d to dest, negated, are the potentials (Suurballe &
    Tarjan, 1984): in the residual graph of the shortest path (its links
    reversed at cost -1) an arc u->v has reduced cost 1 + d(v) - d(u) >= 0,
    and a reversed link 0, so a single Dijkstra run finds the cheapest
    augmenting path.  Among equal distances dest is popped first, which
    ends the search early without changing any distance.
    """
    base = shortest_path(topology, source, dest)
    adjacency = topology.adjacency
    to_dest = topology.distances_to(dest)
    forward = set(zip(base, base[1:]))
    backward = set(zip(base[1:], base))

    dist: dict[int, int] = {}
    queue: list[tuple[int, bool, int]] = [(0, source != dest, source)]
    while queue:
        d, _, node = heapq.heappop(queue)
        if node in dist:
            continue
        dist[node] = d
        if node == dest:
            break
        for nb in adjacency[node]:
            if nb in dist or (node, nb) in forward:
                continue
            w = 0 if (node, nb) in backward else 1 + to_dest[nb] - to_dest[node]
            heapq.heappush(queue, (d + w, nb != dest, nb))
    if dest not in dist:
        # the reached set holds a prefix of the base path (each base link's
        # reversed arc leads back) and no other edge leaves it, so the one
        # base link out of it is the bridge nearest the source
        edge = next(
            undirected((a, b)) for a, b in zip(base, base[1:]) if a in dist and b not in dist
        )
        raise SurvivabilityError(
            f"no edge-disjoint path pair from {source} to {dest}: "
            f"edge {edge} is a cut edge",
            cut_edge=edge,
        )
    # undo the potential shift: true residual cost = dist + d(source)
    return len(base) - 1 + dist[dest] + to_dest[source]


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
    # each node of the path loses the fibres to its neighbours on the path
    ends = (None, *nodes, None)
    for prev, node, nxt in zip(ends, nodes, ends[2:]):
        reduced[node] = [nb for nb in adjacency[node] if nb != prev and nb != nxt]
    return reduced


def _walk_on(topology: Topology, walk: _PairWalk, source: int, dest: int, k: int) -> None:
    """Walk from the source until ``walk`` holds the first k pairs or has run out.

    Working paths W are walked outside, protections P inside.  The pairs of
    one W share the one tuple that the walk yields for it.
    """
    adjacency = topology.adjacency
    pairs = walk.pairs = []
    for working in _simple_paths_upto(
        adjacency, topology.distances_to(dest), source, dest, walk.total // 2
    ):
        reduced = _without_fibres(adjacency, working)
        for protection in _simple_paths_upto(
            reduced, bfs_dist(reduced, dest), source, dest, walk.total - len(working) + 1
        ):
            if len(protection) == len(working) and protection < working:
                continue
            pairs.append(PathPair(working, protection))
            if len(pairs) == k:
                return
    walk.done = True


def _mirrored(walk: _PairWalk) -> _PairWalk:
    """The finished walk of (s, t) built from the finished walk of (t, s).

    Fibres come in pairs, so reversing both paths of each optimal pair of
    (t, s) gives every optimal pair of (s, t).  The shorter path is the
    working one (the smaller on a tie), and the pairs of one working path
    share one tuple of it.
    """
    reversed_pairs = []
    for pair in walk.pairs:
        w, p = pair.working[::-1], pair.protection[::-1]
        reversed_pairs.append((p, w) if len(p) == len(w) and p < w else (w, p))
    mirror = _PairWalk(walk.total, done=True)
    working = None
    for w, p in sorted(reversed_pairs):
        if w != working:
            working = w
        mirror.pairs.append(PathPair(working, p))
    return mirror


def disjoint_pair_candidates(
    topology: Topology, demand: Demand, k: int = CANDIDATE_BUDGET
) -> list[PathPair]:
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

    There is one Suurballe search per unordered pair of a topology, and a
    finished walk serves its reverse: the first call for (source, dest) takes
    the total from the record of (dest, source) when there is one, and when
    that walk has run out, reverses its pairs and walks nothing.
    ``route_instance`` walks to the selectors' budget, so the selector's pool
    and the oracle's read what the routing call found.  The walk's record is
    kept with the topology, keyed by the endpoints alone so that volume
    sweeps share it too.  A call for no more pairs than it holds, or for any
    number once the walk has run out, reads them; a call for more walks
    afresh, and the walk is deterministic, so the first k pairs are the same
    whatever budgets came before.  The pairs carry no volume, so every call
    shares the walk's ``PathPair``s; each returns them in a fresh list, which
    the caller may extend.  A pair that does not exist raises on every call,
    in each direction, naming the cut edge nearest that call's source;
    errors are not kept.
    """
    if k < 1:
        raise ContractError("candidate budget must be at least 1")
    s, t = demand.source, demand.dest
    walks = topology._pair_walks
    walk = walks.get((s, t))
    if walk is None:
        reverse = walks.get((t, s))
        if reverse is None:
            walk = _PairWalk(_suurballe_total(topology, s, t))
        elif reverse.done:
            walk = _mirrored(reverse)
        else:
            walk = _PairWalk(reverse.total)
        walks[(s, t)] = walk
    if len(walk.pairs) < k and not walk.done:
        _walk_on(topology, walk, s, t, k)
    return walk.pairs[:k]


def route_instance(instance: Instance, budget: int = CANDIDATE_BUDGET) -> tuple[PathPair, ...]:
    """Canonical 1+1 routing: each demand's first disjoint-pair candidate, in order.

    Each demand's walk runs to ``budget`` pairs, the pool a selector or the
    oracle reads next; its first pair, the routing, does not depend on it.
    A demand whose reverse was routed before searches nothing, and walks
    nothing when the reverse's walk ran out below the budget.
    """
    topology = instance.topology
    return tuple(disjoint_pair_candidates(topology, d, budget)[0] for d in instance.demands)


def index_routing(instance: Instance, routing: Iterable[PathPair]) -> dict[Demand, PathPair]:
    """Map each instance demand to the routed pair of its endpoints.

    Rejects a demand routed twice, a demand with no routing and a pair that
    serves no demand.
    """
    by_ends: dict[tuple[int, int], PathPair] = {}
    for pair in routing:
        ends = pair.ends
        if ends in by_ends:
            raise ContractError("demand {}->{} routed twice".format(*ends))
        by_ends[ends] = pair
    by_demand: dict[Demand, PathPair] = {}
    for d in instance.demands:
        pair = by_demand[d] = by_ends.pop((d.source, d.dest), None)
        if pair is None:
            raise ContractError(f"demand {d} has no routing")
    if by_ends:  # what is left serves no demand
        raise ContractError("routing covers unknown demand {}->{}".format(*next(iter(by_ends))))
    return by_demand
