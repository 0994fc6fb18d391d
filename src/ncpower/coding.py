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
in exact integer units (``model.integer_ratios`` over the gcd), and the blossom
algorithm matches every cluster on the pairs of positive weight.

Shared links are counted on bit masks.  Each cluster numbers its own directed
links, so a candidate path is an ``int`` built from its node sequence and two
paths share ``(m1 & m2).bit_count()`` links.  The weights come first: a demand
scores the masks of every later demand of its cluster as one row and keeps
only each pair's most shared links.  Which candidates and kinds win is found
again only for the pairs the matching returns, at most n/2 per cluster.  A
cluster's pools and masks live only while it is scored.

A selection carries no volume: coded pairs name their demands by
(source, dest), and path pairs have no demand.  At any uniform V > 0 every
demand weighs one unit, so the selection made at one such V holds at all of
them, and ``power.eval_with_coding`` prices it at each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Sequence

from .errors import ContractError, FeasibilityError
from .matching import max_weight_matching
from .model import Demand, Instance, Link, integer_ratios
from .routing import CANDIDATE_BUDGET, PathKind, PathPair, disjoint_pair_candidates, index_routing

_W = PathKind.WORKING
_P = PathKind.PROTECTION
# the kinds by their index in the selectors' per-kind lists
_KINDS = (_W, _P)
# order is the deterministic tie-break among equal-benefit combos
KIND_COMBOS: tuple[tuple[PathKind, PathKind], ...] = ((_W, _W), (_W, _P), (_P, _W), (_P, _P))

COMBO_NAMES = {"ww": (_W, _W), "wp": (_W, _P), "pw": (_P, _W), "pp": (_P, _P)}


@dataclass(frozen=True, slots=True)
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


def clusters(demands: Sequence[Demand]) -> dict[int, tuple[Demand, ...]]:
    """Demands grouped by destination, sources ascending."""
    by_dest: dict[int, list[Demand]] = {}
    for d in demands:
        by_dest.setdefault(d.dest, []).append(d)
    return {t: tuple(sorted(ds, key=lambda d: d.source)) for t, ds in sorted(by_dest.items())}


# -- max-weight matching -----------------------------------------------------


def max_weight_pairs(n: int, weights: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Max-weight matching on vertices 0..n-1 over positive int weights.

    ``_select`` passes only the pairs that share links at a non-zero volume.
    The blossom algorithm serves every cluster size and breaks ties as
    networkx does.
    """
    return max_weight_matching(n, weights) if weights else []


# -- selectors ---------------------------------------------------------------


def volume_units(demands: Sequence[Demand]) -> dict[Demand, int]:
    """Volumes as ints in exact proportion: equal volumes get 1, all-zero stay 0.

    The volumes' numerators over one denominator, divided by their gcd.
    """
    nums, _ = integer_ratios(d.volume for d in demands)
    unit = math.gcd(*nums) or 1
    return {d: u // unit for d, u in zip(demands, nums)}


def _select(
    instance: Instance,
    routing: dict[Demand, PathPair],
    combos: Sequence[tuple[PathKind, PathKind]],
    pool_of: Callable[[Demand], list[PathPair]],
) -> SelectionResult:
    """Per-cluster max-weight matching over per-pair-maximised weights.

    A demand pair weighs its most shared links over the two demands' pools
    and ``combos``, times the smaller of their volume units; the first
    maximum in combo, then pool order, wins.
    Matched demands adopt the candidates of their pair's maximum; unmatched
    demands keep ``routing``.  The result lists demands in instance order.

    Each cluster reads its pools from ``pool_of`` just before it is scored
    and numbers its own directed links, so every candidate path is an
    ``int`` bit mask built from its nodes, and two paths share
    ``(m1 & m2).bit_count()`` links.  For each kind the combos use (0
    working, 1 protection), a demand keeps its distinct masks, the first pool
    index winning, laid out in source order.  Weights come first: demand i
    scores, for each combo and each of its own masks, the row of masks of
    the demands after it in one pass, reading only the non-zero scores, and
    keeps each later demand's most shared links.  Winners come second, for
    the matched pairs alone: their masks are visited again in combo,
    own-mask, other-mask order, keeping the first maximum, which is the
    tie-break above and the count its coded pair records.
    """
    units = volume_units(instance.demands)
    combos = [(_KINDS.index(a), _KINDS.index(b)) for a, b in combos]
    kinds = sorted({kind for combo in combos for kind in combo})
    new_routing = dict(routing)
    chosen: list[CodedPair] = []
    for demands in clusters(instance.demands).values():
        n = len(demands)
        pools = [pool_of(d) for d in demands]
        bit: dict[Link, int] = {}
        # per kind, flat in source order: masks, pool index, owning demand,
        # and where each demand's masks start (starts[kind][n] is the end)
        masks, indices, owners, starts = ([], []), ([], []), ([], []), ([], [])
        for kind in kinds:
            for i, pool in enumerate(pools):
                starts[kind].append(len(masks[kind]))
                first: dict[int, int] = {}
                last = None
                for idx, pair in enumerate(pool):
                    path = pair.protection if kind else pair.working
                    if path is last:
                        continue  # candidates share their working path's tuple
                    last = path
                    mask = 0
                    for link in zip(path, path[1:]):
                        mask |= 1 << bit.setdefault(link, len(bit))
                    first.setdefault(mask, idx)
                masks[kind].extend(first)
                indices[kind].extend(first.values())
                owners[kind].extend([i] * len(first))
            starts[kind].append(len(masks[kind]))

        cluster_units = [units[d] for d in demands]
        weights: dict[tuple[int, int], int] = {}
        for i in range(n - 1):
            best = [0] * n
            for a, b in combos:
                row_start = starts[b][i + 1]
                row = masks[b][row_start:]
                row_owners = owners[b][row_start:]
                for m1 in masks[a][starts[a][i] : starts[a][i + 1]]:
                    scores = [(m1 & m2).bit_count() for m2 in row]
                    if not any(scores):
                        continue
                    for j, shared in compress(zip(row_owners, scores), scores):
                        if shared > best[j]:
                            best[j] = shared
            unit = cluster_units[i]
            for j in compress(range(i + 1, n), best[i + 1 :]):
                weight = min(unit, cluster_units[j]) * best[j]
                if weight:
                    weights[(i, j)] = weight

        for i, j in max_weight_pairs(n, weights):
            shared = 0
            for a, b in combos:
                for p in range(starts[a][i], starts[a][i + 1]):
                    m1 = masks[a][p]
                    for q in range(starts[b][j], starts[b][j + 1]):
                        hits = (m1 & masks[b][q]).bit_count()
                        if hits > shared:
                            shared, win = hits, (a, b, p, q)
            a, b, p, q = win
            new_routing[demands[i]] = first_pair = pools[i][indices[a][p]]
            new_routing[demands[j]] = second_pair = pools[j][indices[b][q]]
            chosen.append(
                CodedPair(first_pair.ends, second_pair.ends, _KINDS[a], _KINDS[b], shared)
            )

    final = tuple(new_routing[d] for d in instance.demands)
    return SelectionResult(CodingAssignment(tuple(chosen)), final)


def select_pairs_fixed(
    instance: Instance,
    routing: Iterable[PathPair],
    combo: tuple[PathKind, PathKind],
) -> SelectionResult:
    """Best matching for a single kind combo on the given routing (no re-routing)."""
    by_demand = index_routing(instance, routing)
    return _select(instance, by_demand, (combo,), lambda d: [by_demand[d]])


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
    topology = instance.topology

    def pool_of(d: Demand) -> list[PathPair]:
        pool = disjoint_pair_candidates(topology, d, candidate_budget)
        base = by_demand[d]
        if base not in pool and base.total_hops == pool[0].total_hops:
            pool.append(base)  # caller's pair competes when it is also optimal
        return pool

    return _select(instance, by_demand, KIND_COMBOS, pool_of)
