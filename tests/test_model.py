"""Topology/demand model and the instance file format."""
from __future__ import annotations

import tracemalloc

import pytest
from conftest import DATA_DIR

from ncpower.errors import DomainError, InstanceError
from ncpower.model import (
    Demand,
    Instance,
    PowerParams,
    Topology,
    generate_full_mesh,
    generate_ring,
    load_instance,
    serialize_instance,
)


def test_mesh_generator_counts():
    inst = generate_full_mesh(5, 20.0)
    assert inst.topology.node_count == 5
    assert len(inst.topology.undirected_edges) == 10
    assert all(u < v for u, v in inst.topology.undirected_edges)
    assert len(inst.demands) == 20
    assert all(d.volume == 20.0 for d in inst.demands)


def test_ring_generator_counts():
    inst = generate_ring(6, 10.0)
    assert len(inst.topology.undirected_edges) == 6
    assert len(inst.demands) == 30
    assert (1, 6) in inst.topology.undirected_edges


@pytest.mark.parametrize("gen", [generate_full_mesh, generate_ring])
def test_generators_reject_tiny_sizes(gen):
    with pytest.raises(DomainError, match="1\\+1 protection is undefined"):
        gen(2, 20.0)


def test_topology_rejects_self_loop_and_bad_range():
    with pytest.raises(DomainError):
        Topology.from_undirected_edges(3, [(1, 1)])
    with pytest.raises(DomainError):
        Topology.from_undirected_edges(3, [(1, 4)])


def test_topology_stores_each_fibre_once():
    # a fibre is kept as its canonical (u, v), u < v, whichever way it is given
    topo = Topology.from_undirected_edges(3, [(1, 2), (2, 1), (2, 3)])
    assert topo.undirected_edges == {(1, 2), (2, 3)}
    assert topo == Topology.from_undirected_edges(3, [(2, 1), (3, 2)])
    for edge, message in [
        ((2, 2), "self-loop at node 2"),
        ((1, 4), r"link \(1,4\) outside node range 1\.\.3"),
        ((3, 1), r"fibre \(3,1\) must be written \(1,3\); Topology\.from_undirected_edges"),
    ]:
        with pytest.raises(DomainError, match=message):
            Topology(3, frozenset({edge}))


def test_demand_validation():
    with pytest.raises(DomainError):
        Demand(2, 2, 5.0)
    with pytest.raises(DomainError):
        Demand(1, 2, -1.0)
    assert Demand(1, 2, 0.0).volume == 0.0  # zero traffic is allowed


def test_instance_rejects_duplicate_demands():
    topo = Topology.from_undirected_edges(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(DomainError, match="duplicate demand"):
        Instance(topo, (Demand(1, 2, 5.0), Demand(1, 2, 7.0)))


SAMPLE = """\
# toy triangle
nodes 3
edge 1 2
edge 2 3   # trailing comment
edge 1 3
demand 1 3 12.5
power 1000 73 40
"""


def test_load_instance_happy_path():
    inst = load_instance(SAMPLE)
    assert inst.topology.node_count == 3
    assert len(inst.topology.undirected_edges) == 3
    assert inst.demands == (Demand(1, 3, 12.5),)
    assert inst.power == PowerParams()


def test_load_instance_arbitrary11():
    inst = load_instance((DATA_DIR / "arbitrary11.net").read_text())
    assert inst.topology.node_count == 11
    assert len(inst.topology.undirected_edges) == 12
    assert inst.demands == (Demand(2, 11, 20.0), Demand(3, 11, 20.0))


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("edge 1 2\n", 1, "first directive"),
        ("nodes 3\nnodes 3\n", 2, "duplicate 'nodes'"),
        ("nodes 3\nedge 1 2\nedge 2 1\n", 3, "duplicate edge"),
        ("nodes 3\nedge 1 5\n", 2, "outside 1..3"),
        ("nodes 3\nedge 1 1\n", 2, "self-loop"),
        ("nodes 3\nedge 1 2\nedge 2 3\nedge 1 3\ndemand 1 1 5\n", 5, "coincide"),
        ("nodes 3\nedge 1 2\nedge 2 3\nedge 1 3\ndemand 1 2 -5\n", 5, "non-negative"),
        ("nodes 3\nedge 1 2\nedge 2 3\nedge 1 3\ndemand 1 2 nan\n", 5, "non-negative"),
        ("nodes 3\nedge 1 2\nedge 2 3\nedge 1 3\ndemand 1 2 5\ndemand 1 2 6\n", 6, "duplicate demand"),
        ("nodes 3\nroute 1 2\n", 2, "unknown directive"),
        ("nodes 3\nedge 1 2\n", 1, "disconnected"),
        ("nodes 3\nedge one 2\n", 2, "must be a int"),
        ("nodes 3\nedge 1 2\nedge 2 3\nedge 1 3\npower 1000 73 0\n", 5, "positive"),
        ("", 1, "no 'nodes'"),
    ],
)
def test_load_instance_errors_name_lines(text, line, fragment):
    with pytest.raises(InstanceError) as err:
        load_instance(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_too_few_fibres_refuse_a_huge_node_count_in_little_memory():
    # three fibres cannot connect a million nodes: the loader says so before
    # it builds an adjacency entry per node
    text = "nodes 1000000\nedge 1 2\nedge 2 3\nedge 1 3\ndemand 1 2 20\n"
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError, match="disconnected") as err:
            load_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.line == 1
    assert peak < 1_000_000


def test_serialize_round_trip():
    inst = load_instance(SAMPLE)
    assert load_instance(serialize_instance(inst)) == inst


def test_serialize_round_trip_generated():
    inst = generate_ring(7, 13.25, PowerParams(900.0, 50.0, 10.0))
    again = load_instance(serialize_instance(inst))
    # demand order differs only if serialization reorders; it must not
    assert again.demands == inst.demands
    assert again.topology == inst.topology
    assert again.power == inst.power


def test_serialize_preserves_fractional_volumes():
    topo = Topology.from_undirected_edges(3, [(1, 2), (2, 3), (1, 3)])
    inst = Instance(topo, (Demand(1, 2, 0.1),))
    assert load_instance(serialize_instance(inst)).demands[0].volume == 0.1
