"""Linear power model evaluation."""
from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from conftest import random_survivable_instance, routed_shared_links
from hypothesis import given
from hypothesis import strategies as st

from ncpower.bounds import ring_savings_fraction
from ncpower.coding import (
    EMPTY_ASSIGNMENT,
    KIND_COMBOS,
    CodingAssignment,
    PathKind,
    select_pairs_fixed,
    select_pairs_osh,
)
from ncpower.errors import ContractError, DomainError
from ncpower.model import Demand, Instance, PowerParams, generate_full_mesh, generate_ring
from ncpower.power import eval_with_coding
from ncpower.routing import route_instance

W, P = PathKind.WORKING, PathKind.PROTECTION


def test_default_slope():
    assert PowerParams().slope_w_per_gbps == pytest.approx(26.825, abs=0)


def test_params_validation():
    with pytest.raises(DomainError):
        PowerParams(-1.0, 73.0, 40.0)
    with pytest.raises(DomainError):
        PowerParams(1000.0, 73.0, 0.0)


def test_mesh5_conventional_power():
    inst = generate_full_mesh(5, 20.0)
    report = eval_with_coding(inst, route_instance(inst), EMPTY_ASSIGNMENT)
    assert report.p_conventional == pytest.approx(32190.0, abs=1e-9)


def test_ring5_conventional_power():
    inst = generate_ring(5, 20.0)
    report = eval_with_coding(inst, route_instance(inst), EMPTY_ASSIGNMENT)
    assert report.p_conventional == pytest.approx(53650.0, abs=1e-9)


def test_mesh5_coded_power_at_optimum():
    inst = generate_full_mesh(5, 20.0)
    sel = select_pairs_osh(inst, route_instance(inst))
    report = eval_with_coding(inst, sel.routing, sel.assignment)
    assert report.p_total == pytest.approx(26825.0, abs=1e-9)
    assert report.savings_fraction == pytest.approx(1 / 6, abs=1e-12)
    # the routing is read once, so a one-shot iterable gives the same report
    assert eval_with_coding(inst, iter(sel.routing), sel.assignment) == report


def test_ring5_protection_matching_power():
    inst = generate_ring(5, 20.0)
    routing = route_instance(inst)
    sel = select_pairs_fixed(inst, routing, KIND_COMBOS[3])
    report = eval_with_coding(inst, sel.routing, sel.assignment)
    assert report.p_total == pytest.approx(37555.0, abs=1e-9)
    assert report.savings_fraction == pytest.approx(0.30, abs=1e-12)


def test_empty_assignment_means_conventional():
    inst = generate_ring(6, 20.0)
    routing = route_instance(inst)
    report = eval_with_coding(inst, routing, EMPTY_ASSIGNMENT)
    k = inst.power.slope_w_per_gbps
    assert report.p_total == report.p_conventional == k * sum(
        d.volume * pair.total_hops for d, pair in zip(inst.demands, routing)
    )
    assert report.p_reduction == 0.0
    assert report.savings_fraction == 0.0


def test_zero_traffic_costs_nothing():
    inst = generate_full_mesh(4, 0.0)
    routing = route_instance(inst)
    report = eval_with_coding(inst, routing, EMPTY_ASSIGNMENT)
    assert report.p_total == 0.0
    assert report.savings_fraction == 0.0  # no division blow-up


@given(scale=st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
def test_power_is_linear_in_volume(scale):
    base = generate_ring(5, 20.0)
    scaled = generate_ring(5, 20.0 * scale)
    routing_b = route_instance(base)
    routing_s = route_instance(scaled)
    assert eval_with_coding(scaled, routing_s, EMPTY_ASSIGNMENT).p_conventional == pytest.approx(
        scale * eval_with_coding(base, routing_b, EMPTY_ASSIGNMENT).p_conventional, rel=1e-12
    )


def test_savings_fraction_is_volume_invariant():
    rng = random.Random(5)
    inst = random_survivable_instance(rng, volume=20.0)
    routing = route_instance(inst)
    sel = select_pairs_osh(inst, routing)
    base = eval_with_coding(inst, sel.routing, sel.assignment).savings_fraction

    bigger = Instance(
        inst.topology, tuple(Demand(d.source, d.dest, d.volume * 3) for d in inst.demands)
    )
    routing_b = route_instance(bigger)
    sel_b = select_pairs_osh(bigger, routing_b)
    assert eval_with_coding(bigger, sel_b.routing, sel_b.assignment).savings_fraction == pytest.approx(
        base, rel=1e-12
    )


def test_eval_rejects_incomplete_routing():
    inst = generate_ring(4, 20.0)
    routing = list(route_instance(inst))
    with pytest.raises(ContractError, match="no routing"):
        eval_with_coding(inst, routing[:-1], EMPTY_ASSIGNMENT)
    with pytest.raises(ContractError, match="routed twice"):
        eval_with_coding(inst, routing + [routing[0]], EMPTY_ASSIGNMENT)


def test_eval_rejects_assignment_off_routing():
    from conftest import DATA_DIR
    from ncpower.model import load_instance

    inst = load_instance((DATA_DIR / "arbitrary11.net").read_text())
    routing = route_instance(inst)
    sel = select_pairs_osh(inst, routing)
    assert sel.routing != routing  # pairing here forces a protection re-route
    # so validating the assignment against the *original* routing must fail
    with pytest.raises(ContractError):
        eval_with_coding(inst, routing, sel.assignment)


CONTRACT_ERRORS = {
    "gap": "demand 5->4 has no routing",
    "duplicate": "demand 1->2 routed twice",
    "serves-no-demand": "routing covers unknown demand",
    "shifted-demands": "demand 1->2 has no routing",
    "coded-unrouted": "coded pair references unrouted demand",
    "shared-off-path": "not on the",
    "shared-overclaimed": "not on the",
}


@pytest.mark.parametrize("case", CONTRACT_ERRORS)
def test_routing_and_assignment_contract(case):
    # routings and coded pairs name demands by endpoints only, so every
    # mismatch with the instance's demands must surface as a ContractError
    inst = generate_ring(5, 20.0)
    sel = select_pairs_osh(inst, route_instance(inst))
    routing, pairs = sel.routing, sel.assignment.pairs
    paired = pairs[0].second
    unpaired = Instance(
        inst.topology, tuple(d for d in inst.demands if (d.source, d.dest) != paired)
    )
    flipped = replace(pairs[0], first_kind=P if pairs[0].first_kind is W else W)
    (shared,) = routed_shared_links(routing, pairs[:1])
    overclaimed = replace(pairs[0], shared_hops=len(shared) + 1)
    args = {
        "gap": (inst, routing[:-1], sel.assignment),
        "duplicate": (inst, routing + routing[:1], sel.assignment),
        "serves-no-demand": (unpaired, routing, EMPTY_ASSIGNMENT),
        "shifted-demands": (
            Instance(inst.topology, inst.demands[:-1]), routing[1:], EMPTY_ASSIGNMENT
        ),
        "coded-unrouted": (unpaired, tuple(p for p in routing if p.ends != paired), sel.assignment),
        "shared-off-path": (inst, routing, CodingAssignment((flipped,) + pairs[1:])),
        "shared-overclaimed": (inst, routing, CodingAssignment((overclaimed,) + pairs[1:])),
    }[case]
    with pytest.raises(ContractError, match=CONTRACT_ERRORS[case]):
        eval_with_coding(*args)


def test_power_past_the_float_range_is_not_nan():
    # conventional power overflows; the total and savings come from exact sums
    for volume, total in ((1e308, math.inf), (4.1e304, 1.45177e308)):
        inst = generate_ring(6, volume)
        sel = select_pairs_osh(inst, route_instance(inst))
        report = eval_with_coding(inst, sel.routing, sel.assignment)
        assert report.p_conventional == math.inf
        assert report.p_total == pytest.approx(total, rel=1e-5)
        assert report.savings_fraction == ring_savings_fraction(6)


def test_saving_past_the_float_range_is_inf():
    inst = generate_ring(6, 1e308)
    sel = select_pairs_osh(inst, route_instance(inst))
    assert eval_with_coding(inst, sel.routing, sel.assignment).p_reduction == math.inf
