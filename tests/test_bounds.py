"""Lower bounds and the closed-form mesh/ring results."""
from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction

import pytest
from conftest import exact_bounds, random_survivable_instance, shared_hops_by_demand

from ncpower.bounds import (
    RingClass,
    bound_nc,
    mesh_fluctuation,
    mesh_power,
    mesh_savings_fraction,
    min_hop_table,
    ring_classify,
    ring_conventional_hops,
    ring_power,
    ring_savings_fraction,
    ring_shared_hops,
    uniform_bound,
)
from ncpower.coding import EMPTY_ASSIGNMENT, CodedPair, CodingAssignment, PathKind, select_pairs_osh
from ncpower.errors import ContractError, DomainError
from ncpower.model import Demand, Instance, PowerParams, generate_full_mesh, generate_ring
from ncpower.power import eval_with_coding
from ncpower.routing import route_instance

EXPECTED_RING_CLASS = {
    3: RingClass.ODD1, 4: RingClass.EVEN1, 5: RingClass.ODD2, 6: RingClass.EVEN2,
    7: RingClass.ODD1, 8: RingClass.EVEN1, 9: RingClass.ODD2, 10: RingClass.EVEN2,
    11: RingClass.ODD1, 12: RingClass.EVEN1, 13: RingClass.ODD2, 14: RingClass.EVEN2,
    15: RingClass.ODD1,
}

EXPECTED_RING_SHARED = {
    3: 0, 4: 8, 5: 30, 6: 48, 7: 70, 8: 128, 9: 216, 10: 280,
    11: 352, 12: 504, 13: 702, 14: 840, 15: 990,
}


def test_mesh5_conventional_bound():
    assert bound_nc(generate_full_mesh(5, 20.0)).conventional_lower == pytest.approx(21460.0, abs=1e-9)


def test_ring5_conventional_bound():
    assert bound_nc(generate_ring(5, 20.0)).conventional_lower == pytest.approx(32190.0, abs=1e-9)


def test_mesh5_bounds_under_optimal_assignment():
    inst = generate_full_mesh(5, 20.0)
    sel = select_pairs_osh(inst, route_instance(inst))
    report = bound_nc(inst, sel.assignment)
    assert report.nc_lower_per_demand == pytest.approx(16095.0, abs=1e-9)
    assert report.nc_lower_mean_form == pytest.approx(16095.0, abs=1e-9)
    min_hops = min_hop_table(inst)
    assert all(min_hops[d] == 1 for d in inst.demands)
    ends = [(d.source, d.dest) for d in inst.demands]
    shared = shared_hops_by_demand(sel.assignment)
    assert all(shared.get(e, 0) == 1 for e in ends)
    assert all(min_hops[d] - shared.get(e, 0) / 4 == 0.75 for d, e in zip(inst.demands, ends))
    assert report.volume_avg == 20.0
    assert report.characteristic_avg == 0.75


def test_bounds_with_empty_assignment_collapse_to_conventional():
    inst = generate_ring(7, 20.0)
    report = bound_nc(inst, EMPTY_ASSIGNMENT)
    assert report.nc_lower_per_demand == report.conventional_lower
    assert report.nc_lower_mean_form == pytest.approx(report.conventional_lower, rel=1e-12)
    shared = shared_hops_by_demand(EMPTY_ASSIGNMENT)
    assert all(shared.get((d.source, d.dest), 0) == 0 for d in inst.demands)


def test_bounds_refuse_a_pair_of_a_demand_the_instance_lacks():
    inst = generate_ring(5, 20.0)
    stranger = CodingAssignment(
        (CodedPair((1, 3), (2, 3), PathKind.PROTECTION, PathKind.PROTECTION, 1),)
    )
    lacking = Instance(inst.topology, (Demand(1, 3, 20.0),))
    with pytest.raises(ContractError, match="unknown demand 2->3"):
        bound_nc(lacking, stranger)


def test_mesh_closed_forms():
    conv, coded, savings = mesh_power(5, 20.0)
    assert (conv, coded) == (32190.0, 26825.0)
    assert savings == pytest.approx(1 / 6, abs=0)
    assert mesh_savings_fraction(14) * 100 == pytest.approx(15.3846, abs=5e-5)
    assert mesh_fluctuation(14) == pytest.approx(1 / 78, abs=0)


def test_mesh_fluctuation_identity_exact():
    for n in range(4, 40, 2):
        odd_plateau = Fraction(1, 6)
        even_value = Fraction(n - 2, 6 * (n - 1))
        assert odd_plateau - even_value == Fraction(1, 6 * (n - 1))
        assert mesh_fluctuation(n) == pytest.approx(float(odd_plateau - even_value), rel=1e-15)


def test_ring_classification():
    for n, expected in EXPECTED_RING_CLASS.items():
        assert ring_classify(n) is expected
    assert ring_classify(100) is RingClass.EVEN1
    assert ring_classify(1001) is RingClass.ODD2


def test_ring_shared_hop_table():
    for n, expected in EXPECTED_RING_SHARED.items():
        assert ring_shared_hops(n) == expected


def test_ring_conventional_hops():
    for n in range(3, 16):
        assert ring_conventional_hops(n) == n ** 3 - n ** 2


def test_ring_closed_forms():
    conv, coded, savings = ring_power(5, 20.0)
    assert (conv, coded) == (53650.0, 37555.0)
    assert savings == pytest.approx(0.30, abs=0)


def test_ring100_case():
    assert ring_classify(100) is RingClass.EVEN1
    assert ring_shared_hops(100) == 365000
    assert ring_savings_fraction(100) * 100 == pytest.approx(36.8687, abs=5e-5)


def test_closed_forms_reject_tiny_sizes():
    for fn in (mesh_power, ring_power):
        with pytest.raises(DomainError):
            fn(2, 20.0)
    with pytest.raises(DomainError):
        ring_classify(2)
    with pytest.raises(DomainError):
        mesh_fluctuation(1)


def test_large_size_limits():
    t0 = time.perf_counter()
    ring_pct = ring_savings_fraction(1001) * 100
    mesh_pct = mesh_savings_fraction(1000) * 100
    elapsed = time.perf_counter() - t0
    assert abs(ring_pct - 37.5) <= 0.1
    assert abs(mesh_pct - 16.6667) <= 0.02
    assert elapsed < 0.01


def test_bounds_never_exceed_achieved_power():
    rng = random.Random(21)
    for _ in range(10):
        inst = random_survivable_instance(rng, volume=20.0)
        routing = route_instance(inst)
        sel = select_pairs_osh(inst, routing)
        achieved = eval_with_coding(inst, sel.routing, sel.assignment)
        report = bound_nc(inst, sel.assignment)
        conventional = eval_with_coding(inst, routing, EMPTY_ASSIGNMENT).p_conventional
        tol = 1e-9 * max(1.0, achieved.p_total)
        assert conventional >= report.conventional_lower - tol
        assert achieved.p_total >= report.nc_lower_per_demand - tol
        assert achieved.p_total >= report.nc_lower_mean_form - tol


def test_min_hop_pair_floor():
    # each demand's pair costs at least twice its min-hop distance
    rng = random.Random(22)
    inst = random_survivable_instance(rng, volume=20.0)
    min_hops = min_hop_table(inst)
    for d, pair in zip(inst.demands, route_instance(inst)):
        assert pair.total_hops >= 2 * min_hops[d]


UNIFORM_VOLUMES = (0.0, 0.001, 0.1, 1 / 3, 20.0, 33.5, 1e6)
POWER_MODELS = (PowerParams(), PowerParams(900.0, 50.0, 100.0))


def test_bounds_equal_exact_reference_under_osh(random_instances):
    for inst in random_instances:
        sel = select_pairs_osh(inst, route_instance(inst))
        assert sel.assignment.pairs
        report = bound_nc(inst, sel.assignment)
        assert dataclasses.asdict(report) == exact_bounds(inst, sel.assignment)


@pytest.mark.parametrize("kind", ["mesh", "ring"])
def test_uniform_bounds_equal_exact_reference(kind):
    generate = generate_full_mesh if kind == "mesh" else generate_ring
    for n in range(3, 41):
        for volume in UNIFORM_VOLUMES:
            for params in POWER_MODELS:
                inst = generate(n, volume, params)
                report = bound_nc(inst)
                assert dataclasses.asdict(report) == exact_bounds(inst, EMPTY_ASSIGNMENT), (n, volume, params)
                assert uniform_bound(kind, n, volume, params) == report, (n, volume, params)


def test_mean_form_equals_conventional_without_pairing():
    # summing 22,350 rounded floats in sequence put the two forms one unit
    # apart in the sixth printed digit (16031.2 vs 16031.3 W)
    params = PowerParams(900.0, 50.0, 100.0)
    report = bound_nc(generate_ring(150, 0.001, params))
    assert report.nc_lower_mean_form == report.conventional_lower
    assert uniform_bound("ring", 150, 0.001, params) == report
    assert f"{report.conventional_lower:.6g}" == "16031.2"


def test_uniform_bound_rejects_bad_inputs():
    with pytest.raises(DomainError):
        uniform_bound("ring", 2, 20.0)
    for volume in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            uniform_bound("mesh", 5, volume)


def test_bounds_past_the_float_range_are_infinite():
    # the exact quotient is too large for a float, as the float sums were
    report = uniform_bound("ring", 1001, 1e306)
    assert report.conventional_lower == report.nc_lower_mean_form == float("inf")
    assert report.volume_avg == 1e306
