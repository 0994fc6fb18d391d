"""Shortest paths, disjoint pairs, candidates — cross-checked against brute force."""
from __future__ import annotations

import itertools
import random
import tracemalloc

import networkx as nx
import pytest
from conftest import (
    DATA_DIR,
    all_simple_paths,
    brute_min_disjoint_total,
    brute_min_pairs,
    connected_graphs,
    grid_topology,
    random_survivable_instance,
)

from ncpower import bounds, cli, model, routing
from ncpower.bounds import bound_nc
from ncpower.coding import select_pairs_osh
from ncpower.errors import ContractError, RoutingError, SurvivabilityError
from ncpower.model import (
    Demand,
    Topology,
    generate_full_mesh,
    generate_ring,
    load_instance,
    undirected,
)
from ncpower.routing import (
    Path,
    PathPair,
    disjoint_pair_candidates,
    route_instance,
    shortest_path,
    suurballe_pair,
)

TRIANGLE = Topology.from_undirected_edges(3, [(1, 2), (2, 3), (1, 3)])


def test_path_validation():
    with pytest.raises(ContractError):
        Path((1,))
    with pytest.raises(ContractError):
        Path((1, 2, 1))
    assert Path((1, 2, 3)).hop_count == 2
    assert Path((1, 2, 3)).link_set == {(1, 2), (2, 3)}
    assert {undirected(l) for l in Path((1, 2, 3)).links} == {(1, 2), (2, 3)}
    assert str(Path((1, 2, 3))) == "1-2-3"


def test_pathpair_validation():
    with pytest.raises(ContractError, match="share a fibre"):
        PathPair(Path((1, 3)), Path((1, 3)))
    with pytest.raises(ContractError, match="share their endpoints"):
        PathPair(Path((1, 2)), Path((1, 3)))
    with pytest.raises(ContractError, match="not be longer"):
        PathPair(Path((1, 2, 3)), Path((1, 3)))
    assert PathPair(Path((1, 3)), Path((1, 2, 3))).ends == (1, 3)


def test_shortest_path_prefers_lexicographic():
    # both 1-3-2 and 1-4-2 have two hops; the smaller intermediate wins
    topo = Topology.from_undirected_edges(4, [(1, 3), (3, 2), (1, 4), (4, 2)])
    assert shortest_path(topo, 1, 2).nodes == (1, 3, 2)


def test_shortest_path_unreachable():
    topo = Topology.from_undirected_edges(4, [(1, 2), (3, 4)])
    with pytest.raises(RoutingError, match="unreachable"):
        shortest_path(topo, 1, 3)


def test_mesh_pair_is_direct_plus_smallest_relay():
    inst = generate_full_mesh(5, 20.0)
    pair = suurballe_pair(inst.topology, Demand(1, 2, 20.0))
    assert pair.working.nodes == (1, 2)
    assert pair.protection.nodes == (1, 3, 2)
    pair = suurballe_pair(inst.topology, Demand(4, 5, 20.0))
    assert pair.protection.nodes == (4, 1, 5)


def test_ring_pair_wraps_both_arcs():
    inst = generate_ring(5, 20.0)
    pair = suurballe_pair(inst.topology, Demand(2, 5, 20.0))
    assert pair.working.nodes == (2, 1, 5)
    assert pair.protection.nodes == (2, 3, 4, 5)
    assert pair.total_hops == 5


def test_even_ring_antipodal_tie_breaks_lexicographically():
    inst = generate_ring(4, 20.0)
    pair = suurballe_pair(inst.topology, Demand(2, 4, 20.0))
    assert pair.working.nodes == (2, 1, 4)
    assert pair.protection.nodes == (2, 3, 4)


def test_ring_totals_equal_ring_size():
    for n in (3, 4, 7, 10):
        inst = generate_ring(n, 1.0)
        for pair in route_instance(inst):
            assert pair.total_hops == n


def test_pair_on_huge_ring_does_not_overflow():
    # the protection arc is over a thousand hops long; path enumeration must
    # not lean on Python's recursion limit
    n = 1200
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    topo = Topology.from_undirected_edges(n, edges)
    pair = suurballe_pair(topo, Demand(1, 2, 20.0))
    assert pair.working.nodes == (1, 2)
    assert pair.protection.hop_count == n - 1
    assert pair.total_hops == n


def test_mesh_candidates_enumerate_all_relays():
    inst = generate_full_mesh(5, 20.0)
    cands = disjoint_pair_candidates(inst.topology, Demand(1, 2, 20.0), k=3)
    assert [c.protection.nodes for c in cands] == [(1, 3, 2), (1, 4, 2), (1, 5, 2)]
    assert all(c.working.nodes == (1, 2) for c in cands)
    assert all(c.total_hops == 3 for c in cands)
    # a bigger budget finds nothing beyond the n-2 relays
    assert len(disjoint_pair_candidates(inst.topology, Demand(1, 2, 20.0), k=8)) == 3


def test_candidates_budget_and_order_are_stable():
    inst = generate_full_mesh(6, 20.0)
    full = disjoint_pair_candidates(inst.topology, Demand(2, 6, 20.0), k=8)
    head = disjoint_pair_candidates(inst.topology, Demand(2, 6, 20.0), k=2)
    assert full[:2] == head
    assert suurballe_pair(inst.topology, Demand(2, 6, 20.0)) == full[0]


def test_arbitrary11_candidates():
    inst = load_instance((DATA_DIR / "arbitrary11.net").read_text())
    cands = disjoint_pair_candidates(inst.topology, inst.demands[0])
    assert [(c.working.nodes, c.protection.nodes) for c in cands] == [
        ((2, 4, 5, 11), (2, 1, 3, 6, 7, 11)),
        ((2, 4, 5, 11), (2, 1, 8, 9, 10, 11)),
    ]


def test_bridge_raises_survivability_error_naming_cut_edge():
    topo = Topology.from_undirected_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(SurvivabilityError) as err:
        suurballe_pair(topo, Demand(1, 3, 5.0))
    assert err.value.cut_edge == (1, 2)  # the bridge nearest the source
    assert "cut edge" in str(err.value)


def test_cut_edge_is_first_separating_bridge():
    # connected G(n, 0.4) graphs: every demand without a disjoint pair names
    # the first bridge on an s-t path, since every s-t path crosses the
    # separating bridges in one order
    rng = random.Random(5)
    cut = 0
    for _ in range(40):
        n = rng.randint(4, 9)
        while True:
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
            graph = nx.Graph(edges)
            graph.add_nodes_from(range(1, n + 1))
            if nx.is_connected(graph):
                break
        topo = Topology.from_undirected_edges(n, edges)
        bridges = {tuple(sorted(e)) for e in nx.bridges(graph)}
        for s, t in itertools.permutations(range(1, n + 1), 2):
            path = nx.shortest_path(graph, s, t)
            on_path = [tuple(sorted(l)) for l in zip(path, path[1:])]
            separating = [e for e in on_path if e in bridges]
            if not separating:
                assert suurballe_pair(topo, Demand(s, t, 1.0))
                continue
            cut += 1
            with pytest.raises(SurvivabilityError) as err:
                suurballe_pair(topo, Demand(s, t, 1.0))
            assert err.value.cut_edge == separating[0]
            assert f"edge {separating[0]} is a cut edge" in str(err.value)
    assert cut > 0


def test_bridge_between_biconnected_blobs():
    # two triangles joined by the bridge (3, 4)
    topo = Topology.from_undirected_edges(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)]
    )
    with pytest.raises(SurvivabilityError) as err:
        suurballe_pair(topo, Demand(1, 6, 5.0))
    assert err.value.cut_edge == (3, 4)
    # within one blob the pair exists
    assert suurballe_pair(topo, Demand(1, 3, 5.0)).total_hops == 3


@pytest.mark.parametrize("n", [4])
def test_pair_total_matches_brute_force_exhaustively(n):
    # every labelled connected graph on 4 nodes, every ordered endpoint pair
    for edges in connected_graphs(n):
        topo = Topology.from_undirected_edges(n, edges)
        for s, t in itertools.permutations(range(1, n + 1), 2):
            expected = brute_min_disjoint_total(topo, s, t)
            if expected is None:
                with pytest.raises(SurvivabilityError):
                    disjoint_pair_candidates(topo, Demand(s, t, 1.0))
            else:
                pair = suurballe_pair(topo, Demand(s, t, 1.0))
                assert pair.total_hops == expected


def test_pair_total_matches_brute_force_sampled():
    rng = random.Random(7)
    for _ in range(40):
        inst = random_survivable_instance(rng, n_lo=5, n_hi=8, volume=1.0)
        topo = inst.topology
        for d in inst.demands:
            pair = suurballe_pair(topo, d)
            assert pair.total_hops == brute_min_disjoint_total(topo, d.source, d.dest)


def test_candidates_are_exactly_the_minimum_cost_pairs():
    rng = random.Random(11)
    for _ in range(10):
        inst = random_survivable_instance(rng, n_lo=5, n_hi=6, volume=1.0)
        topo = inst.topology
        for d in inst.demands:
            cands = disjoint_pair_candidates(topo, d, k=64)
            best = cands[0].total_hops
            assert all(c.total_hops == best for c in cands)
            # brute force: count distinct unordered disjoint pairs at optimum
            paths = all_simple_paths(topo, d.source, d.dest)
            count = 0
            for a, b in itertools.combinations(paths, 2):
                ea = frozenset(tuple(sorted(e)) for e in zip(a, a[1:]))
                eb = frozenset(tuple(sorted(e)) for e in zip(b, b[1:]))
                if not ea & eb and len(a) + len(b) - 2 == best:
                    count += 1
            assert len(cands) == count


def _assert_candidates_match_brute_force(topo, s, t):
    """Check every budget against the sorted brute-force pairs; return those."""
    expected = brute_min_pairs(topo, s, t)
    for k in (1, 2, 8, 64):
        if not expected:
            with pytest.raises(SurvivabilityError):
                disjoint_pair_candidates(topo, Demand(s, t, 1.0), k)
            continue
        cands = disjoint_pair_candidates(topo, Demand(s, t, 1.0), k)
        assert [(c.working.nodes, c.protection.nodes) for c in cands] == expected[:k]
    return expected


def test_candidates_equal_sorted_brute_force_pairs():
    # connected G(n, 0.5) graphs, bridges allowed, so some demands have no pair
    rng = random.Random(20261018)
    bridged = 0
    for _ in range(30):
        n = rng.randint(5, 8)
        while True:
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
            topo = Topology.from_undirected_edges(n, edges)
            if topo.is_connected():
                break
        for s, t in itertools.permutations(range(1, n + 1), 2):
            bridged += not _assert_candidates_match_brute_force(topo, s, t)
    assert bridged > 0
    for rows in (3, 4):
        for cols in range(3, 6):
            topo = grid_topology(rows, cols)
            _assert_candidates_match_brute_force(topo, 1, rows * cols)
            _assert_candidates_match_brute_force(topo, cols, (rows - 1) * cols + 1)


@pytest.mark.parametrize("side", [8, 20])
def test_large_grid_corner_candidates(side):
    # a corner demand has C(2(side-1), side-1) shortest paths (3,432 at 8x8),
    # so the first k pairs must come without pairing every path
    topo = grid_topology(side, side)
    last = side * side
    cands = disjoint_pair_candidates(topo, Demand(1, last, 1.0), k=8)
    assert len(cands) == 8
    assert all(c.total_hops == 4 * (side - 1) for c in cands)
    top_row = tuple(range(1, side + 1))
    right_column = tuple(range(2 * side, last + 1, side))
    assert cands[0].working.nodes == top_row + right_column
    second_row = tuple(range(side + 1, 2 * side))
    down_to_last = tuple(range(3 * side - 1, last, side)) + (last,)
    assert cands[0].protection.nodes == (1,) + second_row + down_to_last
    assert disjoint_pair_candidates(topo, Demand(1, last, 1.0), k=1) == cands[:1]


def test_min_hop_floor_holds_per_demand():
    rng = random.Random(3)
    for _ in range(20):
        inst = random_survivable_instance(rng, volume=1.0)
        for d in inst.demands:
            h_min = shortest_path(inst.topology, d.source, d.dest).hop_count
            pair = suurballe_pair(inst.topology, d)
            assert pair.working.hop_count >= h_min
            assert pair.total_hops >= 2 * h_min
            fibres = {undirected(l) for l in pair.working.links}
            assert fibres.isdisjoint(undirected(l) for l in pair.protection.links)


def test_one_full_graph_bfs_per_node(monkeypatch):
    # routing, selection and bounds read the topology's one distance table per
    # node; only the walk's BFS of the graph without a working path's fibres
    # runs per call, and that is not a BFS over the topology's adjacency
    inst = generate_ring(12)
    topo = inst.topology
    starts = []
    for module in (model, routing, bounds):
        real = getattr(module, "_bfs_dist", None)
        if real is None:
            continue

        def counting(adjacency, start, real=real):
            if adjacency is topo.adjacency:
                starts.append(start)
            return real(adjacency, start)

        monkeypatch.setattr(module, "_bfs_dist", counting)
    select_pairs_osh(inst, route_instance(inst))
    bound_nc(inst)
    for s, t in itertools.permutations(range(1, 13), 2):
        shortest_path(topo, s, t)
    assert len(starts) <= 12


def test_pair_total_searched_once_per_ordered_pair(monkeypatch):
    # the routing call at k=1 and the selector's pool at k=8 share one
    # Suurballe search per ordered (s, t) of the topology
    inst = generate_ring(12)
    searches = []
    real = routing._suurballe_total

    def counting(topology, source, dest):
        searches.append((source, dest))
        return real(topology, source, dest)

    monkeypatch.setattr(routing, "_suurballe_total", counting)
    select_pairs_osh(inst, route_instance(inst))
    assert len(searches) <= 12 * 11
    # a pair that does not exist is searched again, and raises the same way
    topo = Topology.from_undirected_edges(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)]
    )
    errors = []
    for _ in range(2):
        with pytest.raises(SurvivabilityError) as err:
            disjoint_pair_candidates(topo, Demand(1, 6, 5.0))
        errors.append((str(err.value), err.value.cut_edge))
    assert errors[0] == errors[1]
    assert errors[0][1] == (3, 4)


def test_resumed_walk_equals_fresh_walk():
    # one topology asked with budgets 1, 2, 5, 3, 8 resumes or reads its walk;
    # each answer is a prefix of a fresh k=8 walk on a new topology
    rng = random.Random(20261018)
    graphs = [random_survivable_instance(rng, n_lo=5, n_hi=8).topology for _ in range(12)]
    graphs += [grid_topology(3, 4), grid_topology(4, 4), grid_topology(4, 5)]
    resumed = 0
    for topo in graphs:
        n = topo.node_count
        for s, t in itertools.permutations(range(1, n + 1), 2):
            d = Demand(s, t, 1.0)
            fresh = disjoint_pair_candidates(Topology(n, topo.links), d, 8)
            for k in (1, 2, 5, 3, 8):
                cands = disjoint_pair_candidates(topo, d, k)
                assert cands == fresh[:k]
            resumed += len(fresh) > 5
            pairs = [(c.working.nodes, c.protection.nodes) for c in cands]
            assert pairs == brute_min_pairs(topo, s, t)[:8]
    assert resumed > 0


def test_extending_a_returned_pool_leaves_the_walk():
    topo = grid_topology(4, 4)
    d = Demand(1, 16, 1.0)
    pool = disjoint_pair_candidates(topo, d, 3)
    pool.append(pool[0])
    assert disjoint_pair_candidates(topo, d, 3) == pool[:3]
    assert len(topo._pair_walks[(1, 16)].pairs) == 3
    # the selector appends the caller's pair when it is optimal but not pooled
    inst = model.Instance(topo, (d,))
    second = disjoint_pair_candidates(topo, d, 2)[1]
    select_pairs_osh(inst, [second], candidate_budget=1)
    assert len(topo._pair_walks[(1, 16)].pairs) == 3
    fresh = disjoint_pair_candidates(grid_topology(4, 4), d, 8)
    assert disjoint_pair_candidates(topo, d, 8) == fresh


def _recording_without_fibres(monkeypatch) -> list[tuple[int, ...]]:
    working_paths = []
    real = routing._without_fibres

    def recording(adjacency, nodes):
        working_paths.append(nodes)
        return real(adjacency, nodes)

    monkeypatch.setattr(routing, "_without_fibres", recording)
    return working_paths


def test_ring_walk_builds_one_reduced_graph_per_ordered_pair(monkeypatch):
    # a ring demand has one optimal pair; the look-ahead at k=1 finds no
    # second protection, so the k=8 pool goes straight to the outer walk
    working_paths = _recording_without_fibres(monkeypatch)
    inst = generate_ring(9)
    select_pairs_osh(inst, route_instance(inst))
    assert len(working_paths) == 9 * 8


def test_look_ahead_resumes_the_inner_walk_when_it_found_more(monkeypatch):
    # on the 3x3 grid, 1 -> 9, working path 1-2-3-6-9 has two protections
    topo = grid_topology(3, 3)
    d = Demand(1, 9, 1.0)
    disjoint_pair_candidates(topo, d, 1)
    assert topo._pair_walks[(1, 9)].more
    working_paths = _recording_without_fibres(monkeypatch)
    pool = disjoint_pair_candidates(topo, d, 2)
    assert working_paths == [(1, 2, 3, 6, 9)]
    assert [p.working.nodes for p in pool] == [(1, 2, 3, 6, 9)] * 2
    assert not topo._pair_walks[(1, 9)].more
    assert pool == disjoint_pair_candidates(grid_topology(3, 3), d, 8)[:2]


def test_volume_sweep_keeps_one_walk_per_ordered_pair(monkeypatch, capsys):
    topologies = []
    real = cli.route_instance

    def recording(instance):
        topologies.append(instance.topology)
        return real(instance)

    monkeypatch.setattr(cli, "route_instance", recording)
    assert cli.main(["analyze", "--gen", "ring:7", "--sweep", "10:50:10"]) == 0
    assert capsys.readouterr().out.count("\n") == 6
    # the sweep routes and selects once, at one volume, and prices the rest
    assert len(topologies) == 1
    # keyed by (s, t), not by the demand, whose volume changes per point
    assert set(topologies[0]._pair_walks) == set(itertools.permutations(range(1, 8), 2))


# twice the 5.79 MB traced peak of routing and selecting ring:40 with lean
# paths and one walk per ordered pair (it was 33.5 MB with cached link sets)
PEAK_BOUND_RING_40 = 11_600_000


def test_route_and_select_peak_memory_on_ring_40():
    inst = generate_ring(40)
    tracemalloc.start()
    try:
        select_pairs_osh(inst, route_instance(inst))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND_RING_40
