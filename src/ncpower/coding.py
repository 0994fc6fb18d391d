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

A selection carries no volume: coded pairs name their demands by
(source, dest), and path pairs have no demand.  At any uniform V > 0 every
demand weighs one unit, so the selection made at one such V holds at all of
them, and ``power.eval_with_coding`` prices it at each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .errors import ContractError, FeasibilityError
from .matching import max_weight_matching
from .model import Demand, Instance, Link
from .routing import CANDIDATE_BUDGET, PathKind, PathPair, disjoint_pair_candidates, index_routing

_W = PathKind.WORKING
_P = PathKind.PROTECTION
# order is the deterministic tie-break among equal-benefit combos
KIND_COMBOS: tuple[tuple[PathKind, PathKind], ...] = ((_W, _W), (_W, _P), (_P, _W), (_P, _P))

COMBO_NAMES = {"ww": (_W, _W), "wp": (_W, _P), "pw": (_P, _W), "pp": (_P, _P)}


@dataclass(frozen=True)
class CodedPair:
    """One encoded demand pair: which path of each is XORed, and where."""

    first: tuple[int, int]  # (source, dest), the lower source
    second: tuple[int, int]
    first_kind: PathKind
    second_kind: PathKind
    shared_hops: int  # directed links the two encoded paths share

    def __post_init__(self):
        if self.first[1] != self.second[1]:
            raise FeasibilityError(
                "cannot encode {}->{} with {}->{}: destinations differ".format(
                    *self.first, *self.second
                )
            )
        if self.first[0] >= self.second[0]:
            raise ContractError("coded pair must be ordered by source id")
        if self.shared_hops < 1:
            raise ContractError("coded pair without shared links")


@dataclass(frozen=True)
class CodingAssignment:
    """A set of coded pairs; every demand appears in at most one."""

    pairs: tuple[CodedPair, ...]

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        for pair in self.pairs:
            for ends in (pair.first, pair.second):
                if ends in seen:
                    raise ContractError("demand {}->{} appears in two coded pairs".format(*ends))
                seen.add(ends)


EMPTY_ASSIGNMENT = CodingAssignment(())


@dataclass(frozen=True)
class SelectionResult:
    """A coding assignment plus the routing it is valid against.

    Neither holds a volume; ``power.eval_with_coding`` prices them at any.
    """

    assignment: CodingAssignment
    routing: tuple[PathPair, ...]


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
    Each pick keeps its shared-link count, which its coded pair records.
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
        # (combo, own mask index, other mask index, shared links)
        picks: dict[tuple[int, int], tuple[tuple[PathKind, PathKind], int, int, int]] = {}
        for i in range(n - 1):
            best = [0] * n
            pick: list[tuple[tuple[PathKind, PathKind], int, int, int] | None] = [None] * n
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
                            pick[owner[q]] = (combo, p1, q, shared)
            for j in compress(range(i + 1, n), best[i + 1 :]):
                weights[(i, j)] = min(cluster_units[i], cluster_units[j]) * best[j]
                picks[(i, j)] = pick[j]
        for i, j in max_weight_pairs(n, weights):
            d1, d2 = demands[i], demands[j]
            combo, p1, q, shared = picks[(i, j)]
            new_routing[d1] = first_pair = pools[d1][indices[combo[0]][p1]]
            new_routing[d2] = second_pair = pools[d2][indices[combo[1]][q]]
            chosen.append(CodedPair(first_pair.ends, second_pair.ends, combo[0], combo[1], shared))

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
    candidate_budget: int = CANDIDATE_BUDGET,
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
