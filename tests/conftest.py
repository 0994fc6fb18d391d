"""Test-side brute-force oracles and instance generators.

These deliberately avoid the package's routing/matching code paths so that
tests cross-validate two independent implementations.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from ncpower.model import Demand, Instance, Topology

DATA_DIR = Path(__file__).parent / "data"


def all_simple_paths(topology: Topology, source: int, dest: int) -> list[tuple[int, ...]]:
    """Every simple source->dest path, by plain DFS over sorted neighbours."""
    out: list[tuple[int, ...]] = []
    stack = [(source, (source,))]
    while stack:
        node, path = stack.pop()
        if node == dest:
            out.append(path)
            continue
        for nb in reversed(topology.adjacency[node]):
            if nb not in path:
                stack.append((nb, path + (nb,)))
    return out


def link_set(nodes: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The directed links of the path ``nodes``."""
    return frozenset(zip(nodes, nodes[1:]))


def _edges_of(path: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    return frozenset(tuple(sorted(e)) for e in zip(path, path[1:]))


def brute_min_disjoint_total(topology: Topology, source: int, dest: int) -> int | None:
    """Minimum working+protection hops over all disjoint pairs; None if none exist."""
    paths = all_simple_paths(topology, source, dest)
    best = None
    for a, b in itertools.combinations(paths, 2):
        if _edges_of(a) & _edges_of(b):
            continue
        total = len(a) + len(b) - 2
        if best is None or total < best:
            best = total
    return best


def brute_min_pairs(topology: Topology, source: int, dest: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every edge-disjoint pair at the minimum total hop count, sorted; [] if none.

    Each pair is ordered (shorter path, lexicographically smaller on a tie), and
    the list is sorted by (first, second).  Totals are tried in increasing
    order over all simple paths bucketed by hop count.
    """
    by_hops: dict[int, list[tuple[int, ...]]] = {}
    for path in all_simple_paths(topology, source, dest):
        by_hops.setdefault(len(path) - 1, []).append(path)
    if not by_hops:
        return []
    lo, hi = min(by_hops), max(by_hops)
    for total in range(2 * lo, 2 * hi + 1):
        pairs = set()
        for hops in range(lo, total // 2 + 1):
            for a in by_hops.get(hops, ()):
                for b in by_hops.get(total - hops, ()):
                    if not _edges_of(a) & _edges_of(b):
                        pairs.add(tuple(sorted((a, b), key=lambda p: (len(p), p))))
        if pairs:
            return sorted(pairs)
    return []


def shared_hops_by_demand(assignment) -> dict[tuple[int, int], int]:
    """Each paired demand's (source, dest) mapped to its coded pair's shared hops."""
    return {ends: pair.shared_hops for pair in assignment.pairs for ends in (pair.first, pair.second)}


def exact_bounds(instance: Instance, assignment) -> dict[str, float]:
    """The five ``BoundReport`` numbers in Fraction arithmetic, each rounded once.

    Summed demand by demand in instance order, with min hops from networkx
    BFS; the slope k and every volume enter as the exact value of their float.
    """
    graph = nx.Graph(list(instance.topology.undirected_edges))
    graph.add_nodes_from(range(1, instance.topology.node_count + 1))
    k = Fraction(instance.power.slope_w_per_gbps)
    distances: dict[int, dict[int, int]] = {}
    volume_hops = volume = Fraction(0)
    quarter_characteristic = 0  # sum of 4 * (h_min - shared / 4)
    shared = shared_hops_by_demand(assignment)
    for d in instance.demands:
        if d.dest not in distances:
            distances[d.dest] = nx.single_source_shortest_path_length(graph, d.dest)
        hops = distances[d.dest][d.source]
        v = Fraction(d.volume)
        volume_hops += v * hops
        volume += v
        quarter_characteristic += 4 * hops - shared.get((d.source, d.dest), 0)
    volumes = {(d.source, d.dest): d.volume for d in instance.demands}
    cut = Fraction(0)
    for pair in assignment.pairs:
        cut += Fraction(min(volumes[pair.first], volumes[pair.second])) * pair.shared_hops
    count = len(instance.demands)
    characteristic = Fraction(quarter_characteristic, 4)
    return {
        "conventional_lower": float(2 * k * volume_hops),
        "nc_lower_per_demand": float(k * (2 * volume_hops - cut)),
        "nc_lower_mean_form": float(2 * k * count * (volume / count) * (characteristic / count)),
        "volume_avg": float(volume / count),
        "characteristic_avg": float(characteristic / count),
    }


def reference_selection(instance: Instance, pools: dict, combos) -> tuple[list[tuple], list]:
    """The selectors' answer by nested loops over frozensets of links.

    ``pools`` maps each demand to its candidate ``PathPair``s; ``combos``
    lists (first kind, second kind) pairs of ``PathKind``.  Per destination
    cluster, sources ascending, a demand pair weighs its most shared directed
    links over the combos and the two pools (the first maximum in combo, then
    pool order, wins; a pool's repeated link sets count once, at their first
    index) times the smaller volume in exact integer units, and networkx
    matches each cluster.  Returns the coded pairs as (first, second,
    first_kind, second_kind, shared_links), each demand named by its
    (source, dest), and the routing in instance order, where unmatched
    demands keep the head of their pool.
    """
    volumes = {d: Fraction(d.volume) for d in instance.demands}
    den = math.lcm(*(v.denominator for v in volumes.values()))
    scaled = {d: int(v * den) for d, v in volumes.items()}
    unit = math.gcd(*scaled.values()) or 1
    units = {d: v // unit for d, v in scaled.items()}

    def link_sets(pool, kind):
        seen = {}
        for idx, pair in enumerate(pool):
            seen.setdefault(link_set(pair.path(kind)), idx)
        return list(seen.items())

    routing = {d: pool[0] for d, pool in pools.items()}
    chosen = []
    for dest in sorted({d.dest for d in instance.demands}):
        demands = sorted((d for d in instance.demands if d.dest == dest), key=lambda d: d.source)
        graph = nx.Graph()
        graph.add_nodes_from(range(len(demands)))
        picks = {}
        for (i, d1), (j, d2) in itertools.combinations(enumerate(demands), 2):
            best_shared, best = 0, None
            for combo in combos:
                for links1, idx1 in link_sets(pools[d1], combo[0]):
                    for links2, idx2 in link_sets(pools[d2], combo[1]):
                        shared = links1 & links2
                        if len(shared) > best_shared:
                            best_shared, best = len(shared), (idx1, idx2, combo, shared)
            if best is not None:
                picks[(i, j)] = best
                graph.add_edge(i, j, weight=min(units[d1], units[d2]) * best_shared)
        for i, j in sorted(tuple(sorted(e)) for e in nx.max_weight_matching(graph)):
            d1, d2 = demands[i], demands[j]
            idx1, idx2, combo, shared = picks[(i, j)]
            routing[d1], routing[d2] = pools[d1][idx1], pools[d2][idx2]
            chosen.append(((d1.source, d1.dest), (d2.source, d2.dest), combo[0], combo[1], shared))
    return chosen, [routing[d] for d in instance.demands]


def routed_shared_links(routing, pairs) -> list[frozenset]:
    """Each coded pair's shared links, read from ``routing``.

    They are the intersection of the link sets of the two paths the pair
    encodes, as ``routing`` records them; each pair's ``shared_hops`` must
    count exactly these links.
    """
    by_ends = {pair.ends: pair for pair in routing}
    links = []
    for coded in pairs:
        first = link_set(by_ends[coded.first].path(coded.first_kind))
        shared = first & link_set(by_ends[coded.second].path(coded.second_kind))
        assert coded.shared_hops == len(shared)
        links.append(shared)
    return links


def grid_topology(rows: int, cols: int) -> Topology:
    """rows x cols grid, nodes numbered row by row from 1."""
    edges = []
    for node in range(1, rows * cols + 1):
        if node % cols:
            edges.append((node, node + 1))
        if node + cols <= rows * cols:
            edges.append((node, node + cols))
    return Topology.from_undirected_edges(rows * cols, edges)


def connected_graphs(n: int):
    """All labelled connected graphs on nodes 1..n, as edge lists."""
    all_edges = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if bits >> i & 1]
        if len(edges) < n - 1:
            continue
        g = nx.Graph(edges)
        if len(g) == n and nx.is_connected(g):
            yield edges


def random_survivable_instance(
    rng: random.Random,
    n_lo: int = 4,
    n_hi: int = 6,
    volume: float | None = None,
) -> Instance:
    """Connected bridgeless G(n, 0.5) instance with all-pairs demands.

    Bridgeless so that every demand admits a disjoint path pair; ``volume``
    None draws per-demand volumes uniformly from [10, 100].
    """
    while True:
        n = rng.randint(n_lo, n_hi)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        g = nx.Graph(edges)
        g.add_nodes_from(range(1, n + 1))
        if not nx.is_connected(g) or list(nx.bridges(g)):
            continue
        demands = tuple(
            Demand(s, t, volume if volume is not None else rng.uniform(10.0, 100.0))
            for s in range(1, n + 1)
            for t in range(1, n + 1)
            if s != t
        )
        return Instance(Topology.from_undirected_edges(n, edges), demands)


@pytest.fixture(scope="session")
def random_instances() -> list[Instance]:
    """The 25 heterogeneous-volume instances shared across oracle/bounds tests."""
    rng = random.Random(20260816)
    return [random_survivable_instance(rng) for _ in range(25)]


@pytest.fixture(scope="session")
def random_instances_uniform(random_instances) -> list[Instance]:
    """Same 25 topologies with every volume forced to 20 Gbps."""
    out = []
    for inst in random_instances:
        demands = tuple(Demand(d.source, d.dest, 20.0) for d in inst.demands)
        out.append(Instance(inst.topology, demands, inst.power))
    return out
