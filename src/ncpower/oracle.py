"""Brute-force baselines for cross-validating the coding heuristics.

``optimal_matching`` enumerates every matching per destination cluster on a
fixed routing; ``optimal_joint`` additionally enumerates the cross-product of
per-demand disjoint-pair candidates.  Both walk the matchings with
:func:`ncpower.matching.exhaustive_matching`, the search that also serves
small clusters in :mod:`ncpower.coding` and that the tests check against
networkx.  Pair scoring stays independent of the selectors:
``optimal_matching`` scores pairs through ``build_encodable_graph`` and
``optimal_joint`` through its own ``pair_value``, so a scoring fault in the
selectors' shared body shows up as a disagreement with the oracles.
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
from .matching import exhaustive_matching
from .model import Instance
from .power import eval_with_coding
from .routing import PathPair, disjoint_pair_candidates

MATCHING_GUARD = 1 << 20  # max matchings enumerated per cluster
JOINT_NODE_GUARD = 7  # optimal_joint refuses larger instances


@dataclass(frozen=True)
class OracleResult:
    best_power: float
    best_assignment: CodingAssignment
    best_routing: tuple[PathPair, ...]
    explored: int  # configurations enumerated (summed over clusters)


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
        weights = {e: pair.benefit for e, pair in edge_best.items()}
        best_edges, _, count = exhaustive_matching(n, weights, MATCHING_GUARD)
        if count > MATCHING_GUARD:
            raise OracleGuardError(
                f"cluster for destination {dest} ({n} demands) exceeds "
                f"{MATCHING_GUARD} matchings"
            )
        explored += count
        chosen.extend(edge_best[e] for e in best_edges)

    assignment = CodingAssignment(tuple(chosen))
    report = eval_with_coding(instance, routing, assignment)
    return OracleResult(
        best_power=report.p_total,
        best_assignment=assignment,
        best_routing=routing,
        explored=explored,
    )


def optimal_joint(instance: Instance, candidate_budget: int = 8) -> OracleResult:
    """Best assignment over candidate routings x matchings, by brute force.

    Guarded to instances of at most 7 nodes: the search is a cross-product of
    every demand's candidate pool with every per-cluster matching.  Unmatched
    demands keep the head of their pool, the pair ``route_instance`` gives them.
    """
    n_nodes = instance.topology.node_count
    if n_nodes > JOINT_NODE_GUARD:
        raise OracleGuardError(
            f"joint oracle refuses {n_nodes}-node instances (limit {JOINT_NODE_GUARD})"
        )
    pools = {
        d: disjoint_pair_candidates(instance.topology, d, candidate_budget)
        for d in instance.demands
    }

    final_routing = {d: pool[0] for d, pool in pools.items()}
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

        # (i, ci, j, cj) -> shared links, kind combo and volume-weighted benefit
        values: dict[tuple[int, int, int, int], tuple[frozenset, tuple, float]] = {}
        for i, j in itertools.combinations(range(n), 2):
            vol = min(demands[i].volume, demands[j].volume)
            for ci in range(len(cluster_pools[i])):
                for cj in range(len(cluster_pools[j])):
                    shared, combo = pair_value(i, ci, j, cj)
                    if shared:
                        values[(i, ci, j, cj)] = (shared, combo, vol * len(shared))

        best_value = 0.0
        best_pick: tuple[tuple[int, ...], list[tuple[int, int]]] | None = None
        for cand_idx in itertools.product(*(range(len(p)) for p in cluster_pools)):
            weights = {}
            for i, j in itertools.combinations(range(n), 2):
                hit = values.get((i, cand_idx[i], j, cand_idx[j]))
                if hit is not None:
                    weights[(i, j)] = hit[2]
            matching, value, count = exhaustive_matching(n, weights)
            explored += count
            if value > best_value:
                best_value = value
                best_pick = (cand_idx, matching)

        if best_pick is not None:
            cand_idx, matching = best_pick
            k = instance.power.slope_w_per_gbps
            for i, j in matching:
                d1, d2 = demands[i], demands[j]
                shared, combo, _ = values[(i, cand_idx[i], j, cand_idx[j])]
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
    )
