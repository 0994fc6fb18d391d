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
A pair weighs min(u1, u2) times its shared links, u being each demand's volume
in exact integer units, and the blossom algorithm matches every cluster.

Shared links are counted on bit masks.  Each cluster numbers its own directed
links, so a candidate path is an ``int`` and two paths share
``(m1 & m2).bit_count()`` links; a demand scores the masks of every later
demand of its cluster as one row.  The masks live only while their cluster is
scored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

from .errors import ContractError, FeasibilityError
from .matching import max_weight_matching
from .model import Demand, Instance, Link
from .routing import PathKind, PathPair, disjoint_pair_candidates, index_routing

_W = PathKind.WORKING
_P = PathKind.PROTECTION
# order is the deterministic tie-break among equal-benefit combos
KIND_COMBOS: tuple[tuple[PathKind, PathKind], ...] = ((_W, _W), (_W, _P), (_P, _W), (_P, _P))

COMBO_NAMES = {"ww": (_W, _W), "wp": (_W, _P), "pw": (_P, _W), "pp": (_P, _P)}


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


def pair_benefit(instance: Instance, first: Demand, second: Demand, shared: frozenset[Link]) -> float:
    """Watts saved by XOR-coding two demands on their ``shared`` links."""
    return instance.power.slope_w_per_gbps * min(first.volume, second.volume) * len(shared)


def rekey_selection(selection: SelectionResult, instance: Instance) -> SelectionResult:
    """``selection`` moved onto ``instance``'s demands of the same endpoints.

    Every ``PathPair`` keeps its node tuples and every ``CodedPair`` its
    kinds and shared links; benefits are priced at the new volumes.  At
    uniform positive volumes each demand weighs one volume unit, so a
    selection made at one such volume is the one every other gets.  The
    routing must list the demands in instance order, as every selector
    returns it.
    """
    routing = tuple(
        PathPair(d, pair.working, pair.protection)
        for d, pair in zip(instance.demands, selection.routing, strict=True)
    )
    by_ends = {(d.source, d.dest): d for d in instance.demands}
    pairs = []
    for coded in selection.assignment.pairs:
        first = by_ends[coded.first.source, coded.first.dest]
        second = by_ends[coded.second.source, coded.second.dest]
        benefit = pair_benefit(instance, first, second, coded.shared_links)
        pairs.append(
            CodedPair(first, second, coded.first_kind, coded.second_kind, coded.shared_links, benefit)
        )
    return SelectionResult(CodingAssignment(tuple(pairs)), routing)


def _clusters(demands: Sequence[Demand]) -> dict[int, tuple[Demand, ...]]:
    """Demands grouped by destination, sources ascending."""
    by_dest: dict[int, list[Demand]] = {}
    for d in demands:
        by_dest.setdefault(d.dest, []).append(d)
    return {t: tuple(sorted(ds, key=lambda d: d.source)) for t, ds in sorted(by_dest.items())}


# -- max-weight matching -----------------------------------------------------


def max_weight_pairs(n: int, weights: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Max-weight matching on vertices 0..n-1 over the positive int weights.

    The blossom algorithm serves every cluster size and breaks ties as
    networkx does.
    """
    weights = {key: w for key, w in weights.items() if w > 0}
    if not weights:
        return []
    return max_weight_matching(n, weights)


# -- selectors ---------------------------------------------------------------


def _volume_units(demands: Sequence[Demand]) -> dict[Demand, int]:
    """Volumes as ints in exact proportion: equal volumes get 1, all-zero stay 0.

    Each volume p/q is scaled to the largest q, a common denominator since
    float denominators are powers of two, and divided by the gcd of all.
    """
    ratios = {d: d.volume.as_integer_ratio() for d in demands}
    denominator = max((q for _, q in ratios.values()), default=1)
    units = {d: p * (denominator // q) for d, (p, q) in ratios.items()}
    unit = math.gcd(*units.values())
    return {d: u // unit for d, u in units.items()} if unit else units


def _select(
    instance: Instance,
    routing: dict[Demand, PathPair],
    combos: Sequence[tuple[PathKind, PathKind]],
    pools: dict[Demand, list[PathPair]],
) -> SelectionResult:
    """Per-cluster max-weight matching over per-pair-maximised weights.

    A demand pair weighs its most shared links over the two demands' pools
    and ``combos``, times the smaller of their volume units; the first
    maximum in combo, then pool order, wins.
    Matched demands adopt the candidates of their pair's maximum; unmatched
    demands keep ``routing``.  The result lists demands in instance order.

    Each cluster numbers its own directed links, so every candidate path is
    an ``int`` bit mask and a shared-link count is ``(m1 & m2).bit_count()``.
    A (demand, kind) keeps its distinct masks, the first pool index winning,
    laid out per kind in source order.  Demand i then scores, for each combo
    and each of its own masks, the whole row of masks of the demands after
    it in one pass, keeping each demand's first maximum.  That visits every
    pair in combo, own-mask, other-mask order, which is the tie-break above.
    Only the non-zero scores of a row are read, since a zero never wins.
    Only matched pairs build the ``frozenset`` of their shared links.
    """
    units = _volume_units(instance.demands)
    new_routing = dict(routing)
    chosen: list[CodedPair] = []
    for demands in _clusters(instance.demands).values():
        n = len(demands)
        bit: dict[Link, int] = {}
        # per kind, flat in source order: masks, owning demand, pool index,
        # and where each demand's masks start (starts[n] is the end)
        masks: dict[PathKind, list[int]] = {_W: [], _P: []}
        owners: dict[PathKind, list[int]] = {_W: [], _P: []}
        indices: dict[PathKind, list[int]] = {_W: [], _P: []}
        starts: dict[PathKind, list[int]] = {_W: [], _P: []}
        for i, d in enumerate(demands):
            for kind in (_W, _P):
                starts[kind].append(len(masks[kind]))
                first: dict[int, int] = {}
                for idx, pair in enumerate(pools[d]):
                    mask = 0
                    for link in pair.path(kind).links:
                        mask |= 1 << bit.setdefault(link, len(bit))
                    first.setdefault(mask, idx)
                masks[kind].extend(first)
                indices[kind].extend(first.values())
                owners[kind].extend([i] * len(first))
        for kind in (_W, _P):
            starts[kind].append(len(masks[kind]))

        cluster_units = [units[d] for d in demands]
        weights: dict[tuple[int, int], int] = {}
        picks: dict[tuple[int, int], tuple[tuple[PathKind, PathKind], int, int]] = {}
        for i in range(n - 1):
            best = [0] * n
            pick: list[tuple[tuple[PathKind, PathKind], int, int] | None] = [None] * n
            for combo in combos:
                own, other = masks[combo[0]], masks[combo[1]]
                owner = owners[combo[1]]
                row_start = starts[combo[1]][i + 1]
                row = other[row_start:]
                for p1 in range(starts[combo[0]][i], starts[combo[0]][i + 1]):
                    m1 = own[p1]
                    scores = [(m1 & m2).bit_count() for m2 in row]
                    if not any(scores):
                        continue
                    for q, shared in compress(enumerate(scores, row_start), scores):
                        if shared > best[owner[q]]:
                            best[owner[q]] = shared
                            pick[owner[q]] = (combo, p1, q)
            for j in compress(range(i + 1, n), best[i + 1 :]):
                weights[(i, j)] = min(cluster_units[i], cluster_units[j]) * best[j]
                picks[(i, j)] = pick[j]
        for i, j in max_weight_pairs(n, weights):
            d1, d2 = demands[i], demands[j]
            combo, p1, q = picks[(i, j)]
            new_routing[d1] = first_pair = pools[d1][indices[combo[0]][p1]]
            new_routing[d2] = second_pair = pools[d2][indices[combo[1]][q]]
            shared = first_pair.path(combo[0]).link_set & second_pair.path(combo[1]).link_set
            benefit = pair_benefit(instance, d1, d2, shared)
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
