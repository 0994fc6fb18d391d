"""Encodable pairs, matching machinery and the selection heuristics."""
from __future__ import annotations

import gc
import itertools
import math
import random
import re
from fractions import Fraction

import networkx as nx
import pytest
from conftest import (
    DATA_DIR,
    grid_topology,
    link_set,
    random_survivable_instance,
    reference_selection,
    routed_shared_links,
)

import ncpower.coding as coding
from ncpower.coding import (
    COMBO_NAMES,
    KIND_COMBOS,
    CodedPair,
    CodingAssignment,
    PathKind,
    max_weight_pairs,
    select_pairs_fixed,
    select_pairs_osh,
)
from ncpower.errors import ContractError, FeasibilityError
from ncpower.matching import exhaustive_matching, max_weight_matching, verify_optimum
from ncpower.model import Demand, Instance, generate_full_mesh, generate_ring, load_instance
from ncpower.oracle import optimal_joint
from ncpower.power import eval_with_coding
from ncpower.routing import disjoint_pair_candidates, route_instance

W, P = PathKind.WORKING, PathKind.PROTECTION


def test_coded_pair_validation():
    d1, d2 = (1, 3), (2, 3)
    shared = link_set((1, 2, 3)) & link_set((2, 3))
    assert shared == {(2, 3)}
    with pytest.raises(ContractError, match="ordered by source"):
        CodedPair(d2, d1, P, P, len(shared))
    with pytest.raises(ContractError, match="shared links"):
        CodedPair(d1, d2, P, P, shared_hops=0)
    with pytest.raises(FeasibilityError, match="destinations differ"):
        CodedPair((1, 3), (2, 4), P, P, len(shared))


def test_assignment_rejects_demand_reuse():
    d1, d2, d3 = (1, 4), (2, 4), (3, 4)
    links = {d1: link_set((1, 3, 4)), d2: link_set((2, 3, 4)), d3: link_set((3, 4))}
    shared_a = links[d1] & links[d2]
    shared_b = links[d1] & links[d3]
    assert shared_a == shared_b == {(3, 4)}
    pair_a = CodedPair(d1, d2, P, P, len(shared_a))
    pair_b = CodedPair(d1, d3, P, P, len(shared_b))
    with pytest.raises(ContractError, match="two coded pairs"):
        CodingAssignment((pair_a, pair_b))


def _shared_links(inst, combos=KIND_COMBOS):
    """(d1, d2, k1, k2) -> links shared by the routed paths, for each same-cluster pair.

    d1 has the lower source and uses its k1 path; pairs sharing nothing are left out.
    """
    by_demand = dict(zip(inst.demands, route_instance(inst)))
    edges = {}
    for demands in coding.clusters(inst.demands).values():
        for d1, d2 in itertools.combinations(demands, 2):
            for k1, k2 in combos:
                shared = link_set(by_demand[d1].path(k1)) & link_set(by_demand[d2].path(k2))
                if shared:
                    edges[(d1, d2, k1, k2)] = shared
    return edges


def test_mesh4_protection_graph_has_one_unit_edge_per_cluster():
    inst = generate_full_mesh(4, 20.0)
    edges = _shared_links(inst, ((P, P),))
    clusters = coding.clusters(inst.demands)
    assert set(clusters) == {1, 2, 3, 4}
    by_dest: dict[int, list] = {t: [] for t in clusters}
    for (d1, d2, k1, k2), shared in edges.items():
        assert k1 is P and k2 is P
        by_dest[d1.dest].append(shared)
    for dest, shared_sets in by_dest.items():
        assert len(shared_sets) == 1
        assert len(shared_sets[0]) == 1


def test_mesh5_working_graph_is_empty():
    inst = generate_full_mesh(5, 20.0)
    assert _shared_links(inst, ((W, W),)) == {}


def test_ring11_adjacent_protections_share_nine_hops():
    inst = generate_ring(11, 20.0)
    edges = _shared_links(inst, ((P, P),))
    d1 = Demand(1, 11, 20.0)
    d2 = Demand(2, 11, 20.0)
    assert len(edges[(d1, d2, P, P)]) == 9


def test_clusters_group_by_destination():
    inst = generate_ring(5, 20.0)
    clusters = coding.clusters(inst.demands)
    for dest, demands in clusters.items():
        assert all(d.dest == dest for d in demands)
        assert [d.source for d in demands] == sorted(d.source for d in demands)
    # every demand lands in exactly one cluster
    grouped = [d for demands in clusters.values() for d in demands]
    assert len(grouped) == len(inst.demands)
    assert set(grouped) == set(inst.demands)
    # every feasible edge stays inside one cluster
    for (d1, d2, _, _) in _shared_links(inst):
        assert d1.dest == d2.dest


# -- matching ----------------------------------------------------------------


def _random_weights(rng: random.Random, n: int) -> dict[tuple[int, int], int]:
    weights = {}
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            weights[(i, j)] = rng.randint(1, 12)
    return weights


def test_exhaustive_matching_agrees_with_blossom():
    # the oracles' search and the selectors' matcher reach the same exact
    # total, and so does networkx
    rng = random.Random(99)
    for n in range(2, 11):
        for _ in range(20):
            weights = _random_weights(rng, n)
            if not weights:
                continue
            blossom = sum(weights[e] for e in max_weight_pairs(n, weights))
            assert exhaustive_matching(n, weights)[1] == blossom
            reference = _networkx_pairs(n, weights)
            assert sum(weights[e] for e in reference) == blossom


def _brute_force_matchings(n: int, weights: dict[tuple[int, int], float]) -> list[tuple]:
    # every edge subset that is a matching, the empty one included; none has
    # more than n // 2 edges
    edges = sorted(weights)
    found = []
    for size in range(n // 2 + 1):
        for subset in itertools.combinations(edges, size):
            ends = [v for edge in subset for v in edge]
            if len(ends) == len(set(ends)):
                found.append(subset)
    return found


def _walk_order(n: int, matching) -> tuple[int, ...]:
    # the lowest unused vertex takes each partner in ascending order before
    # it stays single (n), so the search visits matchings in this key's order
    mate = {}
    for i, j in matching:
        mate[i], mate[j] = j, i
    return tuple(mate.get(v, n) for v in range(n) if mate.get(v, n) > v)


def test_exhaustive_matching_agrees_with_brute_force():
    rng = random.Random(31)
    for n in range(0, 9):
        for _ in range(6):
            weights = _random_weights(rng, n)
            pairs, total, explored = exhaustive_matching(n, weights)
            everything = _brute_force_matchings(n, weights)
            assert explored == len(everything)
            best = max(sum(weights[e] for e in m) for m in everything)
            assert total == best
            assert sum(weights[e] for e in pairs) == best
            heaviest = [m for m in everything if sum(weights[e] for e in m) == best]
            expected = [] if best == 0 else list(min(heaviest, key=lambda m: _walk_order(n, m)))
            assert pairs == expected
            # a limit below the count stops the walk one matching past it
            limit = explored // 2
            assert exhaustive_matching(n, weights, limit)[2] == limit + 1


def _networkx_pairs(n: int, weights: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for (i, j) in sorted(weights):
        graph.add_edge(i, j, weight=weights[(i, j)])
    return sorted(tuple(sorted(e)) for e in nx.max_weight_matching(graph))


def test_matching_returns_networkx_pairs(monkeypatch):
    # the same pairs, not only the same total, so tie-breaks match as well;
    # the first case is one 47-demand cluster of the uniform 48-ring as osh
    # weighs it
    ring = generate_ring(48, 20.0)
    inst = Instance(ring.topology, tuple(d for d in ring.demands if d.dest == 1), ring.power)
    cases = []
    monkeypatch.setattr(coding, "max_weight_pairs", lambda n, weights: cases.append((n, weights)) or [])
    select_pairs_osh(inst, route_instance(inst))
    assert [n for n, _ in cases] == [47]
    assert all(type(w) is int for w in cases[0][1].values())

    rng = random.Random(2024)
    for n in range(2, 41):
        for density in (0.2, 0.9):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            ties = {e: rng.randint(1, 3) for e in edges}
            hops = {e: rng.choice((10, 20, 40)) * rng.randint(1, 8) for e in edges}
            cases += [(n, ties), (n, hops)]
    for n, weights in cases:
        assert max_weight_matching(n, weights) == _networkx_pairs(n, weights)


def test_matching_returns_networkx_pairs_on_other_clusters(monkeypatch):
    # the osh clusters of a full mesh, of a grid whose every node sends to two
    # opposite corners with volumes 10, 20 and 40 (units 1, 2 and 4), and of
    # the arbitrary 11-node instance
    rng = random.Random(6)
    grid = grid_topology(6, 6)
    corners = Instance(grid, tuple(
        Demand(s, t, rng.choice((10.0, 20.0, 40.0))) for t in (1, 36) for s in range(1, 37) if s != t
    ))
    cases = []
    monkeypatch.setattr(coding, "max_weight_pairs", lambda n, weights: cases.append((n, weights)) or [])
    for inst in (generate_full_mesh(12, 20.0), corners, load_instance((DATA_DIR / "arbitrary11.net").read_text())):
        select_pairs_osh(inst, route_instance(inst))
    assert [n for n, _ in cases] == [11] * 12 + [35, 35, 2]
    assert {w for _, weights in cases[12:14] for w in weights.values()} > {1, 2, 4}
    for n, weights in cases:
        assert max_weight_matching(n, weights) == _networkx_pairs(n, weights)


def test_dense_matching_returns_networkx_pairs():
    # complete graphs, as every ring cluster is: each S-vertex scan meets
    # every other blossom, so the cached best-edge slacks and the tight-edge
    # test decide at every step
    rng = random.Random(1986)
    for n in range(20, 61):
        edges = list(itertools.combinations(range(n), 2))
        ties = {e: rng.randint(1, 3) for e in edges}
        hops = {e: rng.choice((10, 20, 40)) * rng.randint(1, 8) for e in edges}
        for weights in (ties, hops):
            assert max_weight_matching(n, weights) == _networkx_pairs(n, weights)


def test_wide_weight_matching_returns_networkx_pairs():
    # weights 1..20 on 10..20 vertices, sparse to complete: a few graphs in
    # a thousand reach a scan that must read its blossom's best slack afresh
    # after add_blossom
    rng = random.Random(1986)
    for _ in range(1000):
        n = rng.randint(10, 20)
        density = rng.choice((0.3, 0.6, 1.0))
        weights = {
            e: rng.randint(1, 20) for e in itertools.combinations(range(n), 2) if rng.random() < density
        }
        assert max_weight_matching(n, weights) == _networkx_pairs(n, weights)


def test_matching_leaves_no_garbage(monkeypatch):
    # a call's state is freed on return: no reference cycle is left for the
    # cyclic collector, on five clusters of the uniform 48-ring as osh weighs
    # them and on complete graphs with many tied weights
    ring = generate_ring(48, 20.0)
    inst = Instance(ring.topology, tuple(d for d in ring.demands if d.dest <= 5), ring.power)
    cases = []
    monkeypatch.setattr(coding, "max_weight_pairs", lambda n, weights: cases.append((n, weights)) or [])
    select_pairs_osh(inst, route_instance(inst))
    assert [n for n, _ in cases] == [47] * 5
    rng = random.Random(165)
    for n in (9, 20, 31):
        cases.append((n, {e: rng.randint(1, 3) for e in itertools.combinations(range(n), 2)}))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for n, weights in cases:
            assert max_weight_matching(n, weights)
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_exhaustive_matching_leaves_no_garbage():
    # the oracles' walk frees its state on return as well, on one small
    # cluster, on a walk stopped at its limit, and through optimal_joint
    rng = random.Random(25)
    weights = {e: rng.randint(1, 3) for e in itertools.combinations(range(6), 2)}
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert exhaustive_matching(6, weights)[2] == 76
        assert gc.collect() == 0
        assert exhaustive_matching(6, weights, 10)[2] == 11
        assert gc.collect() == 0
        assert optimal_joint(generate_ring(7)).explored == 532
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_max_weight_pairs_returns_networkx_pairs():
    # small clusters go through the blossom as well, so ties among
    # equal-weight matchings break as networkx breaks them at every size
    rng = random.Random(808)
    for n in range(2, 11):
        for _ in range(20):
            weights = {
                e: rng.randint(1, 3)
                for e in itertools.combinations(range(n), 2)
                if rng.random() < 0.6
            }
            assert max_weight_pairs(n, weights) == _networkx_pairs(n, weights)


def test_matching_receives_only_positive_weights(monkeypatch):
    # a zero-volume demand shares links with its cluster but weighs nothing,
    # so the selectors leave its pairs out of the weights they pass on
    ring = generate_ring(6, 20.0)
    demands = tuple(
        Demand(d.source, d.dest, 0.0 if d.source == 3 else d.volume)
        for d in ring.demands
        if d.dest == 1
    )
    inst = Instance(ring.topology, demands, ring.power)
    cases = []
    monkeypatch.setattr(coding, "max_weight_pairs", lambda n, weights: cases.append(weights) or [])
    routing = route_instance(inst)
    select_pairs_osh(inst, routing)
    for combo in KIND_COMBOS:
        select_pairs_fixed(inst, routing, combo)
    zero = [d.source for d in demands].index(3)
    assert any(cases)
    for weights in cases:
        assert all(w > 0 for w in weights.values())
        assert all(zero not in edge for edge in weights)


def test_matching_rejects_float_weights():
    with pytest.raises(ContractError, match="not an int"):
        max_weight_matching(3, {(0, 1): 2, (1, 2): 2.0})
    with pytest.raises(ContractError, match="not an int"):
        max_weight_pairs(2, {(0, 1): 0.5})


def test_matching_enforces_edge_keys():
    # each key must be (i, j) of ints with 0 <= i < j < n; reversed,
    # repeated, out-of-range, negative and non-int vertices are refused,
    # naming the edge
    for n, weights, edge in (
        (2, {(1, 0): 5}, "(1, 0)"),
        (2, {(0, 1): 5, (1, 0): 7}, "(1, 0)"),
        (2, {(0, 2): 5}, "(0, 2)"),
        (2, {(-1, 0): 5}, "(-1, 0)"),
        (2, {(1, 1): 5}, "(1, 1)"),
        (0, {(0, 1): 5}, "(0, 1)"),
        (3, {(0, 1.0): 5}, "(0, 1.0)"),
        (3, {(True, 2): 5}, "(True, 2)"),
    ):
        with pytest.raises(ContractError, match=re.escape(f"edge {edge} is not")):
            max_weight_matching(n, weights)


def _dual_state(weights, mate, dualvar, blossoms):
    """verify_optimum's arguments for a hand-built end state on len(mate)
    vertices; each blossom is (id, children, cycle edges, dual)."""
    n = len(mate)
    adjacency = [[] for _ in range(n)]
    weight2 = [[0] * n for _ in range(n)]
    for (i, j), w in sorted(weights.items()):
        adjacency[i].append(j)
        adjacency[j].append(i)
        weight2[i][j] = weight2[j][i] = 2 * w
    parent = [-1] * (2 * n)
    dual = [0] * (2 * n)
    cycles = [[] for _ in range(2 * n)]
    for b, children, cycle, z in blossoms:
        for child in children:
            parent[child] = b
        dual[b] = z
        cycles[b] = cycle
    return adjacency, weight2, list(mate), list(dualvar), parent, dual, [b for b, *_ in blossoms], cycles


# an optimum on 5 vertices: a zero-dual blossom 6 holds the positive-dual
# blossom 5 = {0, 1, 2} and the matched edge (3, 4); vertex 0 is single.
# Edge (0, 1) is tight only through blossom 5's dual: 0 + 0 - 2 * 2 + 2 * 2
_NESTED = {
    "weights": {(0, 1): 2, (0, 2): 2, (1, 2): 2, (2, 3): 1, (3, 4): 2, (0, 4): 1},
    "mate": [-1, 2, 1, 4, 3],
    "dualvar": [0, 0, 0, 2, 2],
    "blossoms": [
        (5, [0, 1, 2], [(0, 1), (1, 2), (2, 0)], 2),
        (6, [5, 3, 4], [(2, 3), (3, 4), (4, 0)], 0),
    ],
}


def _nested(**changes):
    return _dual_state(**{**_NESTED, **changes})


def test_dual_check_counts_only_blossoms_round_both_ends():
    verify_optimum(*_nested())
    # at slack 0 the edge passes; one unit of weight more and it fails
    with pytest.raises(ContractError, match=re.escape("edge (0, 1) has negative slack")):
        verify_optimum(*_nested(weights={**_NESTED["weights"], (0, 1): 3}))
    # blossom 5 holds 2 but not 4, so its dual does not lift edge (2, 3) or (0, 4)
    for edge in ((2, 3), (0, 4)):
        with pytest.raises(ContractError, match=re.escape(f"edge {edge} has negative slack")):
            verify_optimum(*_nested(weights={**_NESTED["weights"], edge: 2}))
    # nor do two positive-dual blossoms side by side lift an edge between them
    triangles = {(0, 1): 2, (0, 2): 2, (1, 2): 2, (3, 4): 2, (3, 5): 2, (4, 5): 2}
    siblings = {
        "mate": [-1, 2, 1, -1, 5, 4],
        "dualvar": [0] * 6,
        "blossoms": [(6, [0, 1, 2], [(0, 1), (1, 2), (2, 0)], 2), (7, [3, 4, 5], [(3, 4), (4, 5), (5, 3)], 2)],
    }
    verify_optimum(*_dual_state(triangles, **siblings))
    with pytest.raises(ContractError, match=re.escape("edge (0, 3) has negative slack")):
        verify_optimum(*_dual_state({**triangles, (0, 3): 1}, **siblings))


@pytest.mark.parametrize("changes, message", [
    ({"dualvar": [0, 0, 0, 3, -1]}, "negative dual variable"),
    ({"blossoms": [_NESTED["blossoms"][0], (6, [5, 3, 4], [(2, 3), (3, 4), (4, 0)], -1)]},
     "negative dual variable"),
    ({"weights": {**_NESTED["weights"], (3, 4): 3}}, "edge (3, 4) has negative slack"),
    ({"dualvar": [0, 0, 0, 3, 2]}, "matched edge (3, 4) is not tight"),
    ({"mate": [-1, 2, 1, 4, -1]}, "matched edge (3, 4) is not tight"),
    ({"mate": [-1, 2, 1, -1, -1]}, "single vertex 3 has nonzero dual"),
    ({"mate": [-1, -1, -1, 4, 3]}, "blossom 5 with positive dual is not full"),
])
def test_dual_check_refuses_each_broken_condition(changes, message):
    with pytest.raises(ContractError, match=re.escape(message)):
        verify_optimum(*_nested(**changes))


def test_matching_is_a_matching():
    rng = random.Random(4)
    for n in (6, 13):  # a small and a larger cluster, both through the blossom
        for _ in range(10):
            weights = _random_weights(rng, n)
            pairs = max_weight_pairs(n, weights)
            used = [v for pair in pairs for v in pair]
            assert len(used) == len(set(used))
            assert all((i, j) in weights for i, j in pairs)


# -- selectors ---------------------------------------------------------------


def test_volume_units_are_exact_proportions():
    def units(*volumes):
        demands = [Demand(source, 9, v) for source, v in enumerate(volumes, 1)]
        table = coding.volume_units(demands)
        return [table[d] for d in demands]

    assert units(20.0, 20.0, 20.0) == [1, 1, 1]
    assert units(0.5, 1.5, 2.0) == [1, 3, 4]
    assert units(0.0, 20.0) == [0, 1]
    assert units(0.0, 0.0) == [0, 0]
    volumes = (0.1, 1 / 3, 33.5, 20.0)
    got = units(*volumes)
    assert all(type(u) is int for u in got)
    assert math.gcd(*got) == 1
    for (va, ua), (vb, ub) in itertools.combinations(zip(volumes, got), 2):
        assert Fraction(va) * ub == Fraction(vb) * ua


def test_fixed_pp_on_mesh4():
    inst = generate_full_mesh(4, 20.0)
    sel = select_pairs_fixed(inst, route_instance(inst), COMBO_NAMES["pp"])
    report = eval_with_coding(inst, sel.routing, sel.assignment)
    assert len(sel.assignment.pairs) == 4  # one per destination cluster
    assert report.savings_fraction * 100 == pytest.approx(11.1111, abs=5e-4)
    assert sel.routing == route_instance(inst)  # fixed selectors never re-route


def test_fixed_ww_on_ring3_finds_nothing():
    inst = generate_ring(3, 20.0)
    sel = select_pairs_fixed(inst, route_instance(inst), COMBO_NAMES["ww"])
    assert sel.assignment.pairs == ()
    report = eval_with_coding(inst, sel.routing, sel.assignment)
    assert report.savings_fraction == 0.0


def test_fixed_first_kind_applies_to_lower_source():
    inst = generate_ring(9, 20.0)
    sel = select_pairs_fixed(inst, route_instance(inst), COMBO_NAMES["wp"])
    for pair in sel.assignment.pairs:
        assert pair.first[0] < pair.second[0]
        assert pair.first_kind is W and pair.second_kind is P


def test_osh_reaches_mesh_optimum_without_extra_budget():
    inst = generate_full_mesh(4, 20.0)
    sel = select_pairs_osh(inst, route_instance(inst), candidate_budget=1)
    report = eval_with_coding(inst, sel.routing, sel.assignment)
    assert report.savings_fraction * 100 == pytest.approx(11.1111, abs=5e-4)


def test_osh_reroutes_to_align_protections():
    inst = load_instance((DATA_DIR / "arbitrary11.net").read_text())
    routing = route_instance(inst)
    # on the default routing the protections share nothing with each other,
    # and the best mixed-kind overlap is 3 links
    edges = _shared_links(inst)
    assert not any(k1 is P and k2 is P for (_, _, k1, k2) in edges)
    assert max(len(shared) for shared in edges.values()) == 3
    # re-routing both protections onto the spare branch shares 4 links instead
    sel = select_pairs_osh(inst, routing)
    report = eval_with_coding(inst, sel.routing, sel.assignment)
    assert len(sel.assignment.pairs) == 1
    pair = sel.assignment.pairs[0]
    assert pair.first_kind is P and pair.second_kind is P
    assert pair.shared_hops == 4
    assert report.savings_fraction == pytest.approx(0.25, abs=1e-12)


def test_osh_dominates_every_fixed_combo():
    rng = random.Random(12)
    instances = [random_survivable_instance(rng) for _ in range(8)]
    instances += [generate_ring(n, 20.0) for n in (5, 7, 8)]
    instances += [generate_full_mesh(n, 20.0) for n in (4, 6)]
    for inst in instances:
        routing = route_instance(inst)
        osh = select_pairs_osh(inst, routing)
        osh_benefit = eval_with_coding(inst, osh.routing, osh.assignment).p_reduction
        for combo in KIND_COMBOS:
            fixed = select_pairs_fixed(inst, routing, combo)
            fixed_benefit = eval_with_coding(inst, fixed.routing, fixed.assignment).p_reduction
            assert osh_benefit >= fixed_benefit - 1e-9


def test_osh_keeps_unmatched_demands_on_caller_routing():
    inst = generate_ring(4, 20.0)
    routing = route_instance(inst)
    sel = select_pairs_osh(inst, routing)
    matched = {d for pair in sel.assignment.pairs for d in (pair.first, pair.second)}
    by_ends = {p.ends: p for p in routing}
    for pair in sel.routing:
        if pair.ends not in matched:
            assert pair == by_ends[pair.ends]


def test_selectors_are_deterministic():
    inst = generate_ring(12, 20.0)
    routing = route_instance(inst)
    first = select_pairs_osh(inst, routing)
    second = select_pairs_osh(inst, routing)
    assert first.assignment == second.assignment
    assert first.routing == second.routing


def _scorer_instances():
    """Random bridgeless graphs with all-pairs demands, and grids whose every
    node sends to two opposite corners, volumes drawn from {10, 20, 40}."""
    rng = random.Random(20261019)
    volumes = (10.0, 20.0, 40.0)
    for _ in range(24):
        topo = random_survivable_instance(rng, n_lo=4, n_hi=9, volume=1.0).topology
        n = topo.node_count
        yield Instance(topo, tuple(
            Demand(s, t, rng.choice(volumes))
            for s, t in itertools.permutations(range(1, n + 1), 2)
        ))
    for rows in range(3, 6):
        for cols in range(3, 6):
            last = rows * cols
            yield Instance(grid_topology(rows, cols), tuple(
                Demand(s, t, rng.choice(volumes))
                for t in (1, last)
                for s in range(1, last + 1)
                if s != t
            ))


def _assert_equals_reference(inst, sel, pools, combos):
    pairs, routing = reference_selection(inst, pools, combos)
    coded = sel.assignment.pairs
    got = [
        (p.first, p.second, p.first_kind, p.second_kind, shared)
        for p, shared in zip(coded, routed_shared_links(sel.routing, coded))
    ]
    assert got == pairs
    assert list(sel.routing) == routing


def test_selectors_equal_nested_loop_reference():
    # multi-candidate pools reach every tie-break level: combo, own
    # candidate, other candidate, and a repeated link set's first index
    rerouted = 0
    for inst in _scorer_instances():
        routing = route_instance(inst)
        for budget in (1, 2, 8):
            pools = {d: disjoint_pair_candidates(inst.topology, d, budget) for d in inst.demands}
            sel = select_pairs_osh(inst, routing, budget)
            _assert_equals_reference(inst, sel, pools, KIND_COMBOS)
            rerouted += sel.routing != routing
        own = {d: [pair] for d, pair in zip(inst.demands, routing)}
        for combo in KIND_COMBOS:
            _assert_equals_reference(inst, select_pairs_fixed(inst, routing, combo), own, (combo,))
    assert rerouted > 0


def _selections(inst):
    routing = route_instance(inst)
    yield select_pairs_osh(inst, routing)
    for combo in KIND_COMBOS:
        yield select_pairs_fixed(inst, routing, combo)
    if inst.topology.node_count <= 7:
        yield optimal_joint(inst)


@pytest.mark.parametrize("make,n", [(generate_ring, 7), (generate_full_mesh, 6), (generate_ring, 11)])
def test_selection_made_at_one_volume_equals_a_fresh_one_at_every_positive_volume(make, n):
    # one volume unit per demand at any uniform V > 0, and a selection holds
    # no volume: the one made at 20 is the one made at every other V
    made = list(_selections(make(n, 20.0)))
    for volume in (0.1, 33.5, 20.0, 1e308):
        fresh = list(_selections(make(n, volume)))
        assert made == fresh, volume
        assert any(sel.assignment.pairs for sel in fresh)
