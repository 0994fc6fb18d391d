"""Pairing demands for XOR-coded protection.

Two demands towards the same destination can be encoded when one chosen path
of each shares at least one directed link: on every shared link the XOR of the
two flows replaces the smaller one, saving min(V1, V2) Gbps there.  Selection
is a max-weight matching problem per destination cluster (a demand can join at
most one coded pair), over the four working/protection kind combinations.

Both selectors share one body.  ``select_pairs_fixed`` keeps the given
routing and a single kind combo, so each demand's pool is just its own pair.
``select_pairs_osh`` searches all four combos and lets each matched demand
re-route among its equal-cost disjoint-pair candidates.  Because candidates
all have the minimum total hop count, the uncoded power term is invariant and
the per-pair benefit decomposes, so a per-cluster max-weight matching over
per-pair-maximised weights is exactly optimal on this search space.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ContractError, FeasibilityError
from .matching import exhaustive_matching, max_weight_matching
from .model import Demand, Instance, Link
from .routing import PathKind, PathPair, disjoint_pair_candidates, index_routing

_W = PathKind.WORKING
_P = PathKind.PROTECTION
# order is the deterministic tie-break among equal-benefit combos
KIND_COMBOS: tuple[tuple[PathKind, PathKind], ...] = ((_W, _W), (_W, _P), (_P, _W), (_P, _P))

COMBO_NAMES = {"ww": (_W, _W), "wp": (_W, _P), "pw": (_P, _W), "pp": (_P, _P)}

# beyond this cluster size, switch from exhaustive matching to blossom
EXHAUSTIVE_MATCHING_LIMIT = 10


@dataclass(frozen=True)
class CodedPair:
    """One encoded demand pair: which path of each is XORed, and where."""

    first: Demand
    second: Demand
    first_kind: PathKind
    second_kind: PathKind
    shared_links: frozenset[Link]
    benefit: float  # watts saved

    def __post_init__(self):
        if self.first.dest != self.second.dest:
            raise FeasibilityError(
                f"cannot encode {self.first} with {self.second}: destinations differ"
            )
        if self.first.source >= self.second.source:
            raise ContractError("coded pair must be ordered by source id")
        if not self.shared_links:
            raise ContractError("coded pair without shared links")
        if self.benefit < 0:
            raise ContractError("negative benefit")

    @property
    def shared_hops(self) -> int:
        return len(self.shared_links)


@dataclass(frozen=True)
class CodingAssignment:
    """A set of coded pairs; every demand appears in at most one."""

    pairs: tuple[CodedPair, ...]

    def __post_init__(self):
        seen: set[Demand] = set()
        for pair in self.pairs:
            for d in (pair.first, pair.second):
                if d in seen:
                    raise ContractError(f"demand {d} appears in two coded pairs")
                seen.add(d)

    @cached_property
    def _shared_by_demand(self) -> dict[Demand, int]:
        table: dict[Demand, int] = {}
        for pair in self.pairs:
            table[pair.first] = pair.shared_hops
            table[pair.second] = pair.shared_hops
        return table

    def shared_hops(self, demand: Demand) -> int:
        """Shared hop count of the demand's coded pair; 0 when unpaired."""
        return self._shared_by_demand.get(demand, 0)

    @property
    def total_benefit(self) -> float:
        return sum(p.benefit for p in self.pairs)


EMPTY_ASSIGNMENT = CodingAssignment(())


@dataclass(frozen=True)
class SelectionResult:
    """A coding assignment plus the routing it is valid against."""

    assignment: CodingAssignment
    routing: tuple[PathPair, ...]


def _clusters(demands: Sequence[Demand]) -> dict[int, tuple[Demand, ...]]:
    """Demands grouped by destination, sources ascending."""
    by_dest: dict[int, list[Demand]] = {}
    for d in demands:
        by_dest.setdefault(d.dest, []).append(d)
    return {t: tuple(sorted(ds, key=lambda d: d.source)) for t, ds in sorted(by_dest.items())}


# -- max-weight matching -----------------------------------------------------


def max_weight_pairs(n: int, weights: dict[tuple[int, int], float]) -> list[tuple[int, int]]:
    """Max-weight matching on vertices 0..n-1; exhaustive for small n.

    The exhaustive search keeps the lexicographically first of equal-weight
    matchings; the blossom breaks ties as networkx does.
    """
    weights = {key: w for key, w in weights.items() if w > 0}
    if not weights:
        return []
    if n <= EXHAUSTIVE_MATCHING_LIMIT:
        return exhaustive_matching(n, weights)[0]
    return max_weight_matching(n, weights)


# -- selectors ---------------------------------------------------------------


def _uniform_volume(demands: Sequence[Demand]) -> bool:
    return len({d.volume for d in demands}) <= 1


def _kind_link_sets(pool: Sequence[PathPair], kind: PathKind) -> list[tuple[frozenset[Link], int]]:
    """Distinct link sets of one kind across a candidate pool, first index wins."""
    seen: dict[frozenset[Link], int] = {}
    for idx, pair in enumerate(pool):
        links = pair.path(kind).link_set
        if links not in seen:
            seen[links] = idx
    return [(links, idx) for links, idx in seen.items()]


def _select(
    instance: Instance,
    routing: dict[Demand, PathPair],
    combos: Sequence[tuple[PathKind, PathKind]],
    pools: dict[Demand, list[PathPair]],
) -> SelectionResult:
    """Per-cluster max-weight matching over per-pair-maximised weights.

    A demand pair weighs its most shared links over the two demands' pools
    and ``combos``; the first maximum in combo, then pool order, wins.
    Matched demands adopt the candidates of their pair's maximum; unmatched
    demands keep ``routing``.  The result lists demands in instance order.
    """
    uniform = _uniform_volume(instance.demands)
    kinds: dict[tuple[Demand, PathKind], list[tuple[frozenset[Link], int]]] = {}
    for d, pool in pools.items():
        for kind in (_W, _P):
            kinds[(d, kind)] = _kind_link_sets(pool, kind)

    new_routing = dict(routing)
    chosen: list[CodedPair] = []
    for demands in _clusters(instance.demands).values():
        weights: dict[tuple[int, int], float] = {}
        picks: dict[tuple[int, int], tuple[int, int, tuple[PathKind, PathKind], frozenset[Link]]] = {}
        for (i, d1), (j, d2) in itertools.combinations(enumerate(demands), 2):
            best_shared = 0
            best = None
            for combo in combos:
                for links1, idx1 in kinds[(d1, combo[0])]:
                    for links2, idx2 in kinds[(d2, combo[1])]:
                        shared = links1 & links2
                        if len(shared) > best_shared:
                            best_shared = len(shared)
                            best = (idx1, idx2, combo, shared)
            if best is not None:
                picks[(i, j)] = best
                # integral weights keep the matching exact for uniform volumes
                weights[(i, j)] = (
                    best_shared if uniform else min(d1.volume, d2.volume) * best_shared
                )
        for i, j in max_weight_pairs(len(demands), weights):
            d1, d2 = demands[i], demands[j]
            idx1, idx2, combo, shared = picks[(i, j)]
            new_routing[d1] = pools[d1][idx1]
            new_routing[d2] = pools[d2][idx2]
            benefit = (
                instance.power.slope_w_per_gbps * min(d1.volume, d2.volume) * len(shared)
            )
            chosen.append(CodedPair(d1, d2, combo[0], combo[1], shared, benefit))

    final = tuple(new_routing[d] for d in instance.demands)
    return SelectionResult(CodingAssignment(tuple(chosen)), final)


def select_pairs_fixed(
    instance: Instance,
    routing: Iterable[PathPair],
    combo: tuple[PathKind, PathKind],
) -> SelectionResult:
    """Best matching for a single kind combo on the given routing (no re-routing)."""
    by_demand = index_routing(instance, routing)
    pools = {d: [pair] for d, pair in by_demand.items()}
    return _select(instance, by_demand, (combo,), pools)


def select_pairs_osh(
    instance: Instance,
    routing: Iterable[PathPair],
    candidate_budget: int = 8,
) -> SelectionResult:
    """Joint pairing/routing search over all kind combos (the strongest heuristic).

    Each demand's pool is its equal-cost disjoint-pair candidates, plus the
    caller's pair when that is also of minimum total hops.  A max-weight
    matching then fixes the pairs, and matched demands adopt their best
    candidates.  Unmatched demands keep the caller's routing untouched.
    """
    by_demand = index_routing(instance, routing)
    pools: dict[Demand, list[PathPair]] = {}
    for d in instance.demands:
        pool = disjoint_pair_candidates(instance.topology, d, candidate_budget)
        base = by_demand[d]
        if base not in pool and base.total_hops == pool[0].total_hops:
            pool.append(base)  # caller's pair competes when it is also optimal
        pools[d] = pool
    return _select(instance, by_demand, KIND_COMBOS, pools)
