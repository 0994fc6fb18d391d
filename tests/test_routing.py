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
    link_set,
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
    serialize_instance,
    undirected,
)
from ncpower.routing import (
    PathPair,
    disjoint_pair_candidates,
    route_instance,
    shortest_path,
)

TRIANGLE = Topology.from_undirected_edges(3, [(1, 2), (2, 3), (1, 3)])


def test_pathpair_validation():
    # each bad path is refused in either role, beside a good partner
    for bad, reason in (
        ((1,), "at least two nodes"),
        ((1, 2, 1, 3), "revisits a node"),
        ([1, 3], r"path \[1, 3\] is not a tuple"),
    ):
        for pair in ((bad, (1, 3)), ((1, 3), bad)):
            with pytest.raises(ContractError, match=reason):
                PathPair(*pair)
    with pytest.raises(ContractError, match="share a fibre"):
        PathPair((1, 3), (1, 3))
    with pytest.raises(ContractError, match="share a fibre"):
        PathPair((1, 2, 3, 4), (1, 5, 3, 2, 6, 4))  # 3->2 runs on fibre 2-3
    with pytest.raises(ContractError, match="share their endpoints"):
        PathPair((1, 2), (1, 3))
    with pytest.raises(ContractError, match="not be longer"):
        PathPair((1, 2, 3), (1, 3))
    pair = PathPair((1, 3), (1, 2, 3))
    assert (pair.ends, pair.total_hops) == ((1, 3), 3)


def test_shortest_path_prefers_lexicographic():
    # both 1-3-2 and 1-4-2 have two hops; the smaller intermediate wins
    topo = Topology.from_undirected_edges(4, [(1, 3), (3, 2), (1, 4), (4, 2)])
    assert shortest_path(topo, 1, 2) == (1, 3, 2)


def test_shortest_path_is_lex_smallest_of_all_shortest_paths():
    graphs = [Topology.from_undirected_edges(5, edges) for edges in connected_graphs(5)]
    graphs += [grid_topology(rows, cols) for rows in (3, 4) for cols in (3, 4, 5)]
    for topo in graphs:
        graph = nx.Graph(topo.undirected_edges)
        for s, t in itertools.permutations(range(1, topo.node_count + 1), 2):
            expected = min(nx.all_shortest_paths(graph, s, t))
            assert shortest_path(topo, s, t) == tuple(expected), (sorted(graph.edges), s, t)


def test_shortest_path_unreachable():
    topo = Topology.from_undirected_edges(4, [(1, 2), (3, 4)])
    with pytest.raises(RoutingError, match="unreachable"):
        shortest_path(topo, 1, 3)


def test_mesh_pair_is_direct_plus_smallest_relay():
    inst = generate_full_mesh(5, 20.0)
    pair = disjoint_pair_candidates(inst.topology, Demand(1, 2, 20.0), 1)[0]
    assert pair.working == (1, 2)
    assert pair.protection == (1, 3, 2)
    pair = disjoint_pair_candidates(inst.topology, Demand(4, 5, 20.0), 1)[0]
    assert pair.protection == (4, 1, 5)


def test_ring_pair_wraps_both_arcs():
    inst = generate_ring(5, 20.0)
    pair = disjoint_pair_candidates(inst.topology, Demand(2, 5, 20.0), 1)[0]
    assert pair.working == (2, 1, 5)
    assert pair.protection == (2, 3, 4, 5)
    assert pair.total_hops == 5


def test_even_ring_antipodal_tie_breaks_lexicographically():
    inst = generate_ring(4, 20.0)
    pair = disjoint_pair_candidates(inst.topology, Demand(2, 4, 20.0), 1)[0]
    assert pair.working == (2, 1, 4)
    assert pair.protection == (2, 3, 4)


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
    pair = disjoint_pair_candidates(topo, Demand(1, 2, 20.0), 1)[0]
    assert pair.working == (1, 2)
    assert len(pair.protection) == n
    assert pair.total_hops == n


def test_mesh_candidates_enumerate_all_relays():
    inst = generate_full_mesh(5, 20.0)
    cands = disjoint_pair_candidates(inst.topology, Demand(1, 2, 20.0), k=3)
    assert [c.protection for c in cands] == [(1, 3, 2), (1, 4, 2), (1, 5, 2)]
    assert all(c.working == (1, 2) for c in cands)
    assert all(c.total_hops == 3 for c in cands)
    # a bigger budget finds nothing beyond the n-2 relays
    assert len(disjoint_pair_candidates(inst.topology, Demand(1, 2, 20.0), k=8)) == 3


def test_pairs_of_one_working_path_share_its_path():
    # a mesh pool of 8 holds one working tuple, not 8 equal ones
    pool = disjoint_pair_candidates(generate_full_mesh(10).topology, Demand(1, 2, 20.0))
    assert len(pool) == 8
    assert len({id(pair.working) for pair in pool}) == 1


def test_candidates_budget_and_order_are_stable():
    inst = generate_full_mesh(6, 20.0)
    full = disjoint_pair_candidates(inst.topology, Demand(2, 6, 20.0), k=8)
    head = disjoint_pair_candidates(inst.topology, Demand(2, 6, 20.0), k=2)
    assert full[:2] == head
    assert disjoint_pair_candidates(inst.topology, Demand(2, 6, 20.0), 1)[0] == full[0]


def test_arbitrary11_candidates():
    inst = load_instance((DATA_DIR / "arbitrary11.net").read_text())
    cands = disjoint_pair_candidates(inst.topology, inst.demands[0])
    assert [(c.working, c.protection) for c in cands] == [
        ((2, 4, 5, 11), (2, 1, 3, 6, 7, 11)),
        ((2, 4, 5, 11), (2, 1, 8, 9, 10, 11)),
    ]


def test_bridge_raises_survivability_error_naming_cut_edge():
    topo = Topology.from_undirected_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(SurvivabilityError) as err:
        disjoint_pair_candidates(topo, Demand(1, 3, 5.0), 1)[0]
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
                assert disjoint_pair_candidates(topo, Demand(s, t, 1.0), 1)[0]
                continue
            cut += 1
            with pytest.raises(SurvivabilityError) as err:
                disjoint_pair_candidates(topo, Demand(s, t, 1.0), 1)[0]
            assert err.value.cut_edge == separating[0]
            assert f"edge {separating[0]} is a cut edge" in str(err.value)
    assert cut > 0


def test_bridge_between_biconnected_blobs():
    # two triangles joined by the bridge (3, 4)
    topo = Topology.from_undirected_edges(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)]
    )
    with pytest.raises(SurvivabilityError) as err:
        disjoint_pair_candidates(topo, Demand(1, 6, 5.0), 1)[0]
    assert err.value.cut_edge == (3, 4)
    # within one blob the pair exists
    assert disjoint_pair_candidates(topo, Demand(1, 3, 5.0), 1)[0].total_hops == 3


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
                pair = disjoint_pair_candidates(topo, Demand(s, t, 1.0), 1)[0]
                assert pair.total_hops == expected


def test_pair_total_matches_brute_force_sampled():
    rng = random.Random(7)
    for _ in range(40):
        inst = random_survivable_instance(rng, n_lo=5, n_hi=8, volume=1.0)
        topo = inst.topology
        for d in inst.demands:
            pair = disjoint_pair_candidates(topo, d, 1)[0]
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
        assert [(c.working, c.protection) for c in cands] == expected[:k]
    return expected


def _random_connected_graphs(count: int) -> list[Topology]:
    """Connected G(n, 0.5) graphs on 5 to 8 nodes, bridges allowed."""
    rng = random.Random(20261018)
    graphs = []
    for _ in range(count):
        n = rng.randint(5, 8)
        while True:
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
            topo = Topology.from_undirected_edges(n, edges)
            if topo.is_connected():
                break
        graphs.append(topo)
    return graphs


def test_candidates_equal_sorted_brute_force_pairs():
    # connected G(n, 0.5) graphs, bridges allowed, so some demands have no pair
    bridged = 0
    for topo in _random_connected_graphs(30):
        n = topo.node_count
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
    assert cands[0].working == top_row + right_column
    second_row = tuple(range(side + 1, 2 * side))
    down_to_last = tuple(range(3 * side - 1, last, side)) + (last,)
    assert cands[0].protection == (1,) + second_row + down_to_last
    assert disjoint_pair_candidates(topo, Demand(1, last, 1.0), k=1) == cands[:1]


def test_min_hop_floor_holds_per_demand():
    rng = random.Random(3)
    for _ in range(20):
        inst = random_survivable_instance(rng, volume=1.0)
        for d in inst.demands:
            h_min = len(shortest_path(inst.topology, d.source, d.dest)) - 1
            pair = disjoint_pair_candidates(inst.topology, d, 1)[0]
            assert len(pair.working) - 1 >= h_min
            assert pair.total_hops >= 2 * h_min
            fibres = {undirected(l) for l in link_set(pair.working)}
            assert fibres.isdisjoint(undirected(l) for l in link_set(pair.protection))


def test_one_full_graph_bfs_per_node(monkeypatch):
    # routing, selection and bounds read the topology's one distance table per
    # node; only the walk's BFS of the graph without a working path's fibres
    # runs per call, and that is not a BFS over the topology's adjacency
    inst = generate_ring(12)
    topo = inst.topology
    starts = []
    for module in (model, routing, bounds):
        real = getattr(module, "bfs_dist", None)
        if real is None:
            continue

        def counting(adjacency, start, real=real):
            if adjacency is topo.adjacency:
                starts.append(start)
            return real(adjacency, start)

        monkeypatch.setattr(module, "bfs_dist", counting)
    route_instance(inst)
    select_pairs_osh(inst)
    bound_nc(inst)
    for s, t in itertools.permutations(range(1, 13), 2):
        shortest_path(topo, s, t)
    assert len(starts) <= 12


def _search_error(topo: Topology, s: int, t: int) -> tuple[str, tuple[int, int]]:
    with pytest.raises(SurvivabilityError) as err:
        disjoint_pair_candidates(topo, Demand(s, t, 5.0))
    return str(err.value), err.value.cut_edge


@pytest.mark.parametrize("generate,n", [(generate_ring, 20), (generate_full_mesh, 12)])
def test_pair_total_searched_once_per_unordered_pair(generate, n, monkeypatch):
    # routing at the pool's budget and the selector's read share one Suurballe
    # search per unordered {s, t}: (t, s) takes the total of (s, t)
    inst = generate(n)
    searches = []
    real = routing._suurballe_total

    def counting(topology, source, dest):
        searches.append((source, dest))
        return real(topology, source, dest)

    monkeypatch.setattr(routing, "_suurballe_total", counting)
    route_instance(inst)
    select_pairs_osh(inst)
    assert len(searches) == n * (n - 1) // 2
    assert {frozenset(ends) for ends in searches} == {
        frozenset(ends) for ends in itertools.combinations(range(1, n + 1), 2)
    }
    # a pair that does not exist is searched again, in each direction, and
    # each direction raises as it does on a fresh topology
    edges = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)]
    topo = Topology.from_undirected_edges(6, edges)
    searches.clear()
    errors = [_search_error(topo, 1, 6) for _ in range(2)]
    assert errors[0] == errors[1]
    assert errors[0][1] == (3, 4)
    reverse = _search_error(topo, 6, 1)
    assert reverse == _search_error(Topology.from_undirected_edges(6, edges), 6, 1)
    assert reverse[1] == (3, 4)
    assert searches == [(1, 6), (1, 6), (6, 1), (6, 1)]
    assert not topo._pair_walks


def _pair_nodes(cands):
    return [(c.working, c.protection) for c in cands]


def test_reverse_of_a_finished_walk_equals_fresh_walk():
    # on one topology, (s, t) then (t, s) at each budget, interleaved or one
    # direction after the other; every answer equals a fresh topology's walk
    # and the sorted brute-force pairs, and every error a fresh search's
    graphs = [(topo, itertools.combinations(range(1, topo.node_count + 1), 2))
              for topo in _random_connected_graphs(30)]
    for rows in (3, 4):
        for cols in range(3, 6):
            corners = [(1, rows * cols), (cols, (rows - 1) * cols + 1)]
            graphs.append((grid_topology(rows, cols), corners))
    for n in (8, 10):
        topo = generate_ring(n).topology
        graphs.append((topo, itertools.combinations(range(1, n + 1), 2)))
    budgets = (1, 2, 8, 64)
    mirrored = swapped = bridged = 0
    for topo, ends in graphs:
        n, edges = topo.node_count, topo.undirected_edges
        interleaved, sequential = Topology(n, edges), Topology(n, edges)
        for s, t in ends:
            expected = {(a, b): brute_min_pairs(topo, a, b) for a, b in ((s, t), (t, s))}
            if not expected[(s, t)]:
                bridged += 1
                for a, b in ((s, t), (t, s)) * 2:
                    fresh = _search_error(Topology(n, edges), a, b)
                    assert _search_error(interleaved, a, b) == fresh
                    assert _search_error(sequential, a, b) == fresh
                continue
            asked = [(interleaved, a, b, k) for k in budgets for a, b in ((s, t), (t, s))]
            asked += [(sequential, a, b, k) for a, b in ((s, t), (t, s)) for k in budgets]
            for shared, a, b, k in asked:
                walks = shared._pair_walks
                reverse = walks.get((b, a))
                mirror = (a, b) not in walks and reverse is not None and reverse.done
                cands = disjoint_pair_candidates(shared, Demand(a, b, 1.0), k)
                assert cands == disjoint_pair_candidates(Topology(n, edges), Demand(a, b, 1.0), k)
                assert _pair_nodes(cands) == expected[(a, b)][:k]
                if not mirror:
                    continue
                mirrored += 1
                walk = walks[(a, b)]
                assert walk.done
                assert _pair_nodes(walk.pairs) == expected[(a, b)]
                by_working = {}
                for pair in walk.pairs:
                    assert by_working.setdefault(pair.working, pair.working) is pair.working
                # a pair whose working path was the reverse's protection
                back = set(_pair_nodes(reverse.pairs))
                swapped += any(
                    (pair.protection[::-1], pair.working[::-1]) in back
                    for pair in walk.pairs
                )
    assert mirrored > 0 and swapped > 0 and bridged > 0


def test_resumed_walk_equals_fresh_walk():
    # one topology asked with budgets 1, 2, 5, 3, 8 walks again or reads its
    # walk; each answer is a prefix of a fresh k=8 walk on a new topology, and
    # routing at any budget gives the head of that walk
    rng = random.Random(20261018)
    graphs = [random_survivable_instance(rng, n_lo=5, n_hi=8).topology for _ in range(12)]
    graphs += [grid_topology(3, 4), grid_topology(4, 4), grid_topology(4, 5)]
    resumed = 0
    for topo in graphs:
        n = topo.node_count
        demands = tuple(Demand(s, t, 1.0) for s, t in itertools.permutations(range(1, n + 1), 2))
        heads = []
        for d in demands:
            s, t = d.source, d.dest
            fresh = disjoint_pair_candidates(Topology(n, topo.undirected_edges), d, 8)
            heads.append(fresh[0])
            for k in (1, 2, 5, 3, 8):
                cands = disjoint_pair_candidates(topo, d, k)
                assert cands == fresh[:k]
            resumed += len(fresh) > 5
            pairs = [(c.working, c.protection) for c in cands]
            assert pairs == brute_min_pairs(topo, s, t)[:8]
        for k in (1, 3, 8):
            routed = route_instance(model.Instance(Topology(n, topo.undirected_edges), demands), k)
            assert routed == tuple(heads)
    assert resumed > 0


def test_extending_a_returned_pool_leaves_the_walk():
    topo = grid_topology(4, 4)
    d = Demand(1, 16, 1.0)
    pool = disjoint_pair_candidates(topo, d, 3)
    pool.append(pool[0])
    assert disjoint_pair_candidates(topo, d, 3) == pool[:3]
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


def test_ring_walk_builds_one_reduced_graph_per_unordered_pair(monkeypatch):
    # a ring demand has one optimal pair, whose working path is the only
    # one short enough, so routing and the k=8 pool share one reduced graph;
    # the walk runs out below the budget, so its reverse walks nothing
    working_paths = _recording_without_fibres(monkeypatch)
    inst = generate_ring(9)
    route_instance(inst)
    select_pairs_osh(inst)
    assert len(working_paths) == 9 * 8 // 2


@pytest.mark.parametrize("argv,budget,served", [
    (["--heuristic", "osh"], 8, {(1, 9)}),
    (["--heuristic", "osh", "--budget", "3"], 3, set()),
    (["--heuristic", "conventional"], 1, set()),
])
def test_cli_walks_each_ordered_pair_once(argv, budget, served, monkeypatch, capsys, tmp_path):
    # every node of the 3x3 grid sends to the corners 1 and 9; working path
    # 1-2-3-6-9 of 1 -> 9 has two protections, so a k=1 walk extended to the
    # pool would build its reduced graph twice.  9 -> 1, routed first, has
    # four optimal pairs: at k=8 its walk runs out and serves 1 -> 9 reversed
    # (``served``), at k=3 and k=1 it does not, and 1 -> 9 walks
    demands = tuple(Demand(s, t, 20.0) for t in (1, 9) for s in range(1, 10) if s != t)
    path = tmp_path / "grid3.net"
    path.write_text(serialize_instance(model.Instance(grid_topology(3, 3), demands)))
    working_paths = _recording_without_fibres(monkeypatch)
    for d in demands:
        if (d.source, d.dest) not in served:
            disjoint_pair_candidates(grid_topology(3, 3), d, budget)
    fresh = list(working_paths)
    working_paths.clear()
    assert cli.main(["analyze", "--instance", str(path), *argv]) == 0
    assert capsys.readouterr().out
    assert sorted(working_paths) == sorted(fresh)


def test_volume_sweep_keeps_one_walk_per_ordered_pair(monkeypatch, capsys):
    topologies = []
    real = cli.route_instance

    def recording(instance, *args):
        topologies.append(instance.topology)
        return real(instance, *args)

    monkeypatch.setattr(cli, "route_instance", recording)
    assert cli.main(["analyze", "--gen", "ring:7", "--sweep", "10:50:10"]) == 0
    assert capsys.readouterr().out.count("\n") == 6
    # the sweep routes and selects once, at one volume, and prices the rest
    assert len(topologies) == 1
    # keyed by (s, t), not by the demand, whose volume changes per point
    assert set(topologies[0]._pair_walks) == set(itertools.permutations(range(1, 8), 2))


# twice the 2.00 MB traced peak of routing and selecting ring:40 when the
# scoring keeps no per-pair picks and builds masks from node sequences
# (2.61 MB with both, 5.56 MB while each coded pair kept its shared link set,
# 33.5 MB while paths cached their link sets)
PEAK_BOUND_RING_40 = 4_010_000


def test_route_and_select_peak_memory_on_ring_40():
    inst = generate_ring(40)
    tracemalloc.start()
    try:
        route_instance(inst)
        select_pairs_osh(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND_RING_40
