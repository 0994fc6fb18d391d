"""Brute-force oracles and their agreement with the heuristics."""
from __future__ import annotations

import pytest
from conftest import routed_shared_links

import ncpower.oracle as oracle_mod
from ncpower.coding import (
    COMBO_NAMES,
    EMPTY_ASSIGNMENT,
    KIND_COMBOS,
    SelectionResult,
    select_pairs_fixed,
    select_pairs_osh,
)
from ncpower.errors import OracleGuardError
from ncpower.model import generate_full_mesh, generate_ring
from ncpower.oracle import MATCHING_GUARD, optimal_joint, optimal_matching
from ncpower.power import eval_with_coding
from ncpower.routing import route_instance


@pytest.mark.parametrize("combo", KIND_COMBOS, ids=lambda c: f"{c[0].value}-{c[1].value}")
@pytest.mark.parametrize("build", [generate_full_mesh, generate_ring], ids=["mesh", "ring"])
@pytest.mark.parametrize("n", range(3, 9))
def test_fixed_selection_matches_matching_oracle(build, n, combo):
    # the exhaustive matching enumerator and the per-cluster matcher take
    # different routes to the same optimum on a fixed routing
    inst = build(n, 20.0)
    routing = route_instance(inst)
    sel = select_pairs_fixed(inst, routing, combo)
    result = optimal_matching(inst, routing, combos=(combo,))
    heuristic = eval_with_coding(inst, routing, sel.assignment)
    optimum = eval_with_coding(inst, result.routing, result.assignment)
    assert heuristic.p_total == pytest.approx(optimum.p_total, abs=1e-9)
    assert heuristic.p_reduction == pytest.approx(optimum.p_reduction, abs=1e-9)


@pytest.mark.parametrize("n", range(3, 9))
def test_osh_matches_matching_oracle_on_rings(n):
    # rings admit a single disjoint pair per demand, so the matching oracle
    # over all kind combinations is the true optimum there
    inst = generate_ring(n, 20.0)
    routing = route_instance(inst)
    sel = select_pairs_osh(inst)
    result = optimal_matching(inst, routing)
    achieved = eval_with_coding(inst, sel.routing, sel.assignment)
    optimum = eval_with_coding(inst, result.routing, result.assignment).p_total
    assert achieved.p_total == pytest.approx(optimum, abs=1e-9)
    # one candidate pair per demand leaves the joint oracle the same search
    if n <= 7:
        for volume in (20.0, 1 / 3, 0.0):
            inst = generate_ring(n, volume)
            assert optimal_joint(inst) == optimal_matching(inst, route_instance(inst))


def test_matching_oracle_pairs_do_not_depend_on_volume_scale():
    # weights are exact volume units, so a uniform volume of 1/3 weighs every
    # pair as 20 does and the same optimum is kept among equal ones
    def picked(volume):
        inst = generate_ring(8, volume)
        result = optimal_matching(inst, route_instance(inst), (COMBO_NAMES["pw"],))
        coded = result.assignment.pairs
        return [
            (*p.first, p.second[0], p.first_kind, p.second_kind, shared)
            for p, shared in zip(coded, routed_shared_links(result.routing, coded))
        ]

    assert picked(20.0) == picked(1 / 3)
    assert picked(20.0)


def test_oracle_with_no_feasible_pairs_returns_conventional():
    inst = generate_ring(3, 20.0)
    routing = route_instance(inst)
    from ncpower.coding import PathKind

    result = optimal_matching(
        inst, routing, combos=((PathKind.PROTECTION, PathKind.PROTECTION),)
    )
    conventional = eval_with_coding(inst, routing, EMPTY_ASSIGNMENT).p_conventional
    assert eval_with_coding(inst, result.routing, result.assignment).p_total == conventional
    assert not result.assignment.pairs


def test_matching_guard_constant():
    assert MATCHING_GUARD == 1 << 20


def test_matching_guard_trips(monkeypatch):
    inst = generate_full_mesh(6, 20.0)
    routing = route_instance(inst)
    monkeypatch.setattr(oracle_mod, "MATCHING_GUARD", 20)
    with pytest.raises(OracleGuardError, match="matchings"):
        optimal_matching(inst, routing)


def test_joint_oracle_node_guard():
    with pytest.raises(OracleGuardError, match="8-node"):
        optimal_joint(generate_full_mesh(8, 20.0))


def test_joint_oracle_small_rings():
    inst3 = generate_ring(3, 20.0)
    result3 = optimal_joint(inst3)
    assert isinstance(result3, SelectionResult)
    power3 = eval_with_coding(inst3, result3.routing, result3.assignment).p_total
    conv3 = eval_with_coding(inst3, route_instance(inst3), EMPTY_ASSIGNMENT).p_conventional
    assert 1 - power3 / conv3 == pytest.approx(1 / 6, abs=1e-12)

    inst7 = generate_ring(7, 20.0)
    result7 = optimal_joint(inst7)
    power7 = eval_with_coding(inst7, result7.routing, result7.assignment).p_total
    conv7 = eval_with_coding(inst7, route_instance(inst7), EMPTY_ASSIGNMENT).p_conventional
    assert (1 - power7 / conv7) * 100 == pytest.approx(30.9524, abs=5e-5)


def test_joint_oracle_reports_exploration():
    result = optimal_joint(generate_full_mesh(4, 20.0))
    assert result.explored > 0
    # every demand still routed after the oracle's candidate swaps
    routed = {pair.ends for pair in result.routing}
    assert routed == {(d.source, d.dest) for d in generate_full_mesh(4, 20.0).demands}


@pytest.mark.parametrize("n, joint, matching", [(4, 128, 16), (5, 3030, 50)])
def test_oracle_explored_counts(n, joint, matching):
    # every matching of every cluster is visited once, the empty one included;
    # the joint oracle does so for every tuple of candidate pairs
    inst = generate_full_mesh(n, 20.0)
    assert optimal_joint(inst).explored == joint
    assert optimal_matching(inst, route_instance(inst)).explored == matching


def test_joint_oracle_never_below_osh():
    for build, n in [(generate_full_mesh, 4), (generate_full_mesh, 5),
                     (generate_ring, 6), (generate_ring, 7)]:
        inst = build(n, 20.0)
        sel = select_pairs_osh(inst)
        achieved = eval_with_coding(inst, sel.routing, sel.assignment)
        result = optimal_joint(inst)
        optimum = eval_with_coding(inst, result.routing, result.assignment).p_total
        assert optimum <= achieved.p_total + 1e-9


def test_osh_equals_joint_oracle_on_random_instances(random_instances):
    # survivable 4-6-node graphs with non-uniform volumes: osh picks from the
    # same candidate pools the joint oracle searches exhaustively
    mismatches = []
    for idx, inst in enumerate(random_instances):
        sel = select_pairs_osh(inst)
        achieved = eval_with_coding(inst, sel.routing, sel.assignment).p_total
        result = optimal_joint(inst)
        optimum = eval_with_coding(inst, result.routing, result.assignment).p_total
        if achieved != optimum:
            mismatches.append((idx, achieved, optimum))
    assert not mismatches
