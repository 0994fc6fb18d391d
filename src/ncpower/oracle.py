"""Brute-force baselines for cross-validating the coding heuristics.

Both oracles run one search body, the only one that enumerates.  Every
destination cluster is searched separately: for each tuple of its demands'
candidate pairs, every matching is walked with
:func:`ncpower.matching.exhaustive_matching`, while the selectors match with
the blossom algorithm.  ``optimal_matching`` gives each demand a pool of its
own routed pair, as ``select_pairs_fixed`` does, so only the matchings vary;
``optimal_joint`` gives it its disjoint-pair candidates, as
``select_pairs_osh`` does.  As in the selectors, an unmatched demand keeps
its pool's head.  Pairs are scored by the oracle's own link-set
intersections, independent of the selectors, and weighed in the selectors'
exact integer volume units, so a fault in the selectors shows up as a
disagreement.

Both return a selection, as the selectors do, plus the number of matchings
explored; ``power.eval_with_coding`` prices it like a selector's.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .coding import (
    KIND_COMBOS,
    CodedPair,
    CodingAssignment,
    PathKind,
    SelectionResult,
    clusters,
    volume_units,
)
from .errors import OracleGuardError
from .matching import exhaustive_matching
from .model import Demand, Instance
from .routing import CANDIDATE_BUDGET, PathPair, disjoint_pair_candidates, index_routing

MATCHING_GUARD = 1 << 20  # max matchings enumerated per cluster
JOINT_NODE_GUARD = 7  # optimal_joint refuses larger instances


@dataclass(frozen=True)
class OracleResult(SelectionResult):
    """The optimal selection found, and the matchings walked to find it."""

    explored: int  # configurations enumerated (summed over clusters)


def require_joint_size(node_count: int):
    """Refuse a joint search over more than JOINT_NODE_GUARD nodes, before any work."""
    if node_count > JOINT_NODE_GUARD:
        raise OracleGuardError(
            f"joint oracle refuses {node_count}-node instances (limit {JOINT_NODE_GUARD})"
        )


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
    by_demand = index_routing(instance, routing)
    return _search(instance, combos, lambda d: [by_demand[d]])


def optimal_joint(instance: Instance, candidate_budget: int = CANDIDATE_BUDGET) -> OracleResult:
    """Best assignment over candidate routings x matchings, by brute force.

    Guarded to instances of at most 7 nodes: the search is a cross-product of
    every demand's candidate pool with every per-cluster matching.  Unmatched
    demands keep the head of their pool, the pair ``route_instance`` gives them.
    """
    topology = instance.topology
    require_joint_size(topology.node_count)
    return _search(
        instance, KIND_COMBOS, lambda d: disjoint_pair_candidates(topology, d, candidate_budget)
    )


def _search(
    instance: Instance,
    combos: Sequence[tuple[PathKind, PathKind]],
    pool_of: Callable[[Demand], list[PathPair]],
) -> OracleResult:
    """Every candidate tuple x every matching, per destination cluster.

    Each cluster reads its pools from ``pool_of`` when it is searched, and
    unmatched demands keep the head of their pool.  ``explored`` sums the
    matchings visited; a walk past MATCHING_GUARD matchings raises
    OracleGuardError.
    """
    final_routing: dict[Demand, PathPair] = {}
    units = volume_units(instance.demands)
    chosen: list[CodedPair] = []
    explored = 0

    for dest, demands in clusters(instance.demands).items():
        n = len(demands)
        cluster_pools = [pool_of(d) for d in demands]
        final_routing.update(zip(demands, (pool[0] for pool in cluster_pools)))
        # each candidate path's link set, built once per cluster
        link_sets = [
            [
                {kind: frozenset(zip(pair.path(kind), pair.path(kind)[1:])) for kind in PathKind}
                for pair in pool
            ]
            for pool in cluster_pools
        ]

        # (i, ci, j, cj) -> links shared when i uses candidate ci and j uses
        # cj, the first combo sharing the most and the volume-unit weight
        values: dict[tuple[int, int, int, int], tuple[int, tuple, int]] = {}
        for i, j in itertools.combinations(range(n), 2):
            unit = min(units[demands[i]], units[demands[j]])
            for ci, links_i in enumerate(link_sets[i]):
                for cj, links_j in enumerate(link_sets[j]):
                    shared, combo = max(
                        ((len(links_i[a] & links_j[b]), (a, b)) for a, b in combos),
                        key=lambda hit: hit[0],
                        default=(0, None),
                    )
                    if shared:
                        values[(i, ci, j, cj)] = (shared, combo, unit * shared)

        best_value = 0
        best_pick: tuple[tuple[int, ...], list[tuple[int, int]]] | None = None
        for cand_idx in itertools.product(*(range(len(p)) for p in cluster_pools)):
            weights = {}
            for i, j in itertools.combinations(range(n), 2):
                hit = values.get((i, cand_idx[i], j, cand_idx[j]))
                if hit is not None:
                    weights[(i, j)] = hit[2]
            matching, value, count = exhaustive_matching(n, weights, MATCHING_GUARD)
            if count > MATCHING_GUARD:
                raise OracleGuardError(
                    f"cluster for destination {dest} ({n} demands) exceeds "
                    f"{MATCHING_GUARD} matchings"
                )
            explored += count
            if value > best_value:
                best_value = value
                best_pick = (cand_idx, matching)

        if best_pick is not None:
            cand_idx, matching = best_pick
            for i, j in matching:
                d1, d2 = demands[i], demands[j]
                shared, combo, _ = values[(i, cand_idx[i], j, cand_idx[j])]
                final_routing[d1] = first = cluster_pools[i][cand_idx[i]]
                final_routing[d2] = second = cluster_pools[j][cand_idx[j]]
                chosen.append(CodedPair(first.ends, second.ends, combo[0], combo[1], shared))

    routing = tuple(final_routing[d] for d in instance.demands)
    return OracleResult(CodingAssignment(tuple(chosen)), routing, explored)
