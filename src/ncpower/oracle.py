"""Brute-force baselines for cross-validating the coding heuristics.

``optimal_matching`` enumerates every matching per destination cluster on a
fixed routing; ``optimal_joint`` additionally enumerates the cross-product of
per-demand disjoint-pair candidates.  Both are deliberately independent of the
max-weight-matching machinery in :mod:`ncpower.coding` so the two code paths
validate each other.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .coding import (
    KIND_COMBOS,
    CodedPair,
    CodingAssignment,
    PathKind,
    _clusters,
    build_encodable_graph,
)
from .errors import OracleGuardError
from .model import Instance
from .power import eval_with_coding
from .routing import PathPair, disjoint_pair_candidates, index_routing, route_instance

MATCHING_GUARD = 1 << 20  # max matchings enumerated per cluster
JOINT_NODE_GUARD = 7  # optimal_joint refuses larger instances


@dataclass(frozen=True)
class OracleResult:
    best_power: float
    best_assignment: CodingAssignment
    best_routing: tuple[PathPair, ...]
    explored: int  # configurations enumerated (summed over clusters)
    exact: bool


def _count_matchings(n: int, partners: dict[int, list[int]], cap: int) -> int:
    """Number of matchings (including partial and empty); aborts above cap."""
    count = 0

    def walk(i: int, used: int) -> bool:
        nonlocal count
        while i < n and used >> i & 1:
            i += 1
        if i == n:
            count += 1
            return count <= cap
        for j in partners[i]:
            if not used >> j & 1:
                if not walk(i + 1, used | 1 << i | 1 << j):
                    return False
        return walk(i + 1, used | 1 << i)

    walk(0, 0)
    return count


def _enumerate_matchings(n: int, partners: dict[int, list[int]]):
    """Yield every matching as a tuple of (i, j) pairs, lexicographic order."""
    chosen: list[tuple[int, int]] = []

    def walk(i: int, used: int):
        while i < n and used >> i & 1:
            i += 1
        if i == n:
            yield tuple(chosen)
            return
        for j in partners[i]:
            if not used >> j & 1:
                chosen.append((i, j))
                yield from walk(i + 1, used | 1 << i | 1 << j)
                chosen.pop()
        yield from walk(i + 1, used | 1 << i)

    yield from walk(0, 0)


def optimal_matching(
    instance: Instance,
    routing: Iterable[PathPair],
    combos: Sequence[tuple[PathKind, PathKind]] = KIND_COMBOS,
) -> OracleResult:
    """Best coding assignment on a fixed routing, by exhaustive matching search.

    Clusters are independent, so the search enumerates each destination
    cluster separately; ``explored`` sums the enumerated matchings.  Raises
    OracleGuardError when a cluster holds more than 2**20 matchings.
    """
    routing = tuple(routing)
    graph = build_encodable_graph(instance, routing, combos)
    chosen: list[CodedPair] = []
    explored = 0

    for dest, demands in graph.clusters().items():
        n = len(demands)
        edge_best: dict[tuple[int, int], CodedPair] = {}
        for (i, d1), (j, d2) in itertools.combinations(enumerate(demands), 2):
            best = None
            for combo in combos:
                pair = graph.edges.get((d1, d2, combo[0], combo[1]))
                if pair is not None and (best is None or pair.benefit > best.benefit):
                    best = pair
            if best is not None:
                edge_best[(i, j)] = best
        partners = {i: [j for j in range(i + 1, n) if (i, j) in edge_best] for i in range(n)}

        total = _count_matchings(n, partners, MATCHING_GUARD)
        if total > MATCHING_GUARD:
            raise OracleGuardError(
                f"cluster for destination {dest} ({n} demands) exceeds "
                f"{MATCHING_GUARD} matchings"
            )
        best_value = 0.0
        best_edges: tuple[tuple[int, int], ...] = ()
        for matching in _enumerate_matchings(n, partners):
            explored += 1
            value = sum(edge_best[e].benefit for e in matching)
            if value > best_value:
                best_value = value
                best_edges = matching
        chosen.extend(edge_best[e] for e in best_edges)

    assignment = CodingAssignment(tuple(chosen))
    report = eval_with_coding(instance, routing, assignment)
    return OracleResult(
        best_power=report.p_total,
        best_assignment=assignment,
        best_routing=routing,
        explored=explored,
        exact=True,
    )


def optimal_joint(instance: Instance, candidate_budget: int = 8) -> OracleResult:
    """Best assignment over candidate routings x matchings, by brute force.

    Guarded to instances of at most 7 nodes: the search is a cross-product of
    every demand's candidate pool with every per-cluster matching.
    """
    n_nodes = instance.topology.node_count
    if n_nodes > JOINT_NODE_GUARD:
        raise OracleGuardError(
            f"joint oracle refuses {n_nodes}-node instances (limit {JOINT_NODE_GUARD})"
        )
    base = index_routing(instance, route_instance(instance))
    pools = {
        d: disjoint_pair_candidates(instance.topology, d, candidate_budget)
        for d in instance.demands
    }

    final_routing = dict(base)
    chosen: list[CodedPair] = []
    explored = 0

    for demands in _clusters(instance.demands).values():
        n = len(demands)
        cluster_pools = [pools[d] for d in demands]

        # benefit of pair (i, j) when i uses candidate ci and j uses cj:
        # best over the four kind combos; volumes factored in
        def pair_value(i, ci, j, cj):
            best_shared: frozenset | None = None
            best_combo = None
            for combo in KIND_COMBOS:
                shared = (
                    cluster_pools[i][ci].path(combo[0]).link_set
                    & cluster_pools[j][cj].path(combo[1]).link_set
                )
                if best_shared is None or len(shared) > len(best_shared):
                    best_shared = shared
                    best_combo = combo
            return best_shared, best_combo

        values: dict[tuple[int, int, int, int], tuple[frozenset, tuple]] = {}
        for i, j in itertools.combinations(range(n), 2):
            vol = min(demands[i].volume, demands[j].volume)
            for ci in range(len(cluster_pools[i])):
                for cj in range(len(cluster_pools[j])):
                    shared, combo = pair_value(i, ci, j, cj)
                    if shared:
                        values[(i, ci, j, cj)] = (shared, combo)

        best_value = 0.0
        best_pick: tuple[tuple[int, ...], tuple[tuple[int, int], ...]] | None = None
        for cand_idx in itertools.product(*(range(len(p)) for p in cluster_pools)):
            partners = {
                i: [
                    j
                    for j in range(i + 1, n)
                    if (i, cand_idx[i], j, cand_idx[j]) in values
                ]
                for i in range(n)
            }
            for matching in _enumerate_matchings(n, partners):
                explored += 1
                value = sum(
                    min(demands[i].volume, demands[j].volume)
                    * len(values[(i, cand_idx[i], j, cand_idx[j])][0])
                    for i, j in matching
                )
                if value > best_value:
                    best_value = value
                    best_pick = (cand_idx, matching)

        if best_pick is not None:
            cand_idx, matching = best_pick
            k = instance.power.slope_w_per_gbps
            for i, j in matching:
                d1, d2 = demands[i], demands[j]
                shared, combo = values[(i, cand_idx[i], j, cand_idx[j])]
                final_routing[d1] = cluster_pools[i][cand_idx[i]]
                final_routing[d2] = cluster_pools[j][cand_idx[j]]
                benefit = k * min(d1.volume, d2.volume) * len(shared)
                chosen.append(CodedPair(d1, d2, combo[0], combo[1], shared, benefit))

    routing = tuple(final_routing[d] for d in instance.demands)
    assignment = CodingAssignment(tuple(chosen))
    report = eval_with_coding(instance, routing, assignment)
    return OracleResult(
        best_power=report.p_total,
        best_assignment=assignment,
        best_routing=routing,
        explored=explored,
        exact=True,
    )
