"""Lower bounds and the closed-form mesh/ring results."""
from __future__ import annotations

import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest
from conftest import exact_bounds, random_survivable_instance, shared_hops_by_demand

from ncpower.bounds import BoundReport, bound_nc, closed_form, uniform_bound
from ncpower.coding import EMPTY_ASSIGNMENT, CodedPair, CodingAssignment, PathKind, select_pairs_osh
from ncpower.errors import ContractError, DomainError
from ncpower.model import Demand, Instance, PowerParams, generate_full_mesh, generate_ring
from ncpower.power import eval_with_coding
from ncpower.routing import route_instance

EXPECTED_RING_CLASS = {
    3: "odd-1", 4: "even-1", 5: "odd-2", 6: "even-2",
    7: "odd-1", 8: "even-1", 9: "odd-2", 10: "even-2",
    11: "odd-1", 12: "even-1", 13: "odd-2", 14: "even-2",
    15: "odd-1",
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
    min_hops = [inst.topology.distances_to(d.dest)[d.source] for d in inst.demands]
    assert all(h == 1 for h in min_hops)
    ends = [(d.source, d.dest) for d in inst.demands]
    shared = shared_hops_by_demand(sel.assignment)
    assert all(shared.get(e, 0) == 1 for e in ends)
    assert all(h - shared.get(e, 0) / 4 == 0.75 for h, e in zip(min_hops, ends))
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
    conv, coded, savings, _ = closed_form("mesh", 5, 20.0)
    assert (conv, coded) == (32190.0, 26825.0)
    assert savings == pytest.approx(1 / 6, abs=0)
    assert closed_form("mesh", 14, 20.0)[2] * 100 == pytest.approx(15.3846, abs=5e-5)


def test_mesh_fluctuation_identity_exact():
    for n in range(4, 40, 2):
        odd_plateau = Fraction(1, 6)
        even_value = Fraction(n - 2, 6 * (n - 1))
        assert odd_plateau - even_value == Fraction(1, 6 * (n - 1))
        assert closed_form("mesh", n, 20.0)[2:] == (float(even_value), "even")
        assert closed_form("mesh", n + 1, 20.0)[2:] == (float(odd_plateau), "odd")


def test_ring_closed_forms():
    conv, coded, savings, _ = closed_form("ring", 5, 20.0)
    assert (conv, coded) == (53650.0, 37555.0)
    assert savings == pytest.approx(0.30, abs=0)


def test_ring100_case():
    _, _, savings, label = closed_form("ring", 100, 20.0)
    assert label == "even-1"
    assert savings == 365000 / (100 ** 3 - 100 ** 2)
    assert savings * 100 == pytest.approx(36.8687, abs=5e-5)


def test_closed_forms_reject_tiny_sizes():
    for kind in ("mesh", "ring"):
        for n in (2, 1):
            with pytest.raises(DomainError, match="below 3 nodes"):
                closed_form(kind, n, 20.0)


def test_large_size_limits():
    t0 = time.perf_counter()
    _, _, ring_savings, ring_label = closed_form("ring", 1001, 20.0)
    mesh_savings = closed_form("mesh", 1000, 20.0)[2]
    elapsed = time.perf_counter() - t0
    assert ring_label == "odd-2"
    assert abs(ring_savings * 100 - 37.5) <= 0.1
    assert abs(mesh_savings * 100 - 16.6667) <= 0.02
    assert elapsed < 0.01


CORPUS_SIZES = (*range(3, 600), 1001, 1002, 1003, 1004,
                10 ** 6 + 1, 10 ** 20 + 2, 10 ** 200 + 3, 10 ** 400 + 4, 10 ** 400 + 5)
CORPUS_VOLUMES = (0.0, 5e-324, 1e-300, 0.1, 20.0, *map(float, range(10, 401, 10)), 1e300, 1.7e308)
CORPUS_MODELS = (PowerParams(), PowerParams(500.0, 37.0, 10.0), PowerParams(1234.5, 0.1, 100.0),
                 PowerParams(1e300, 1e300, 1e-5), PowerParams(0.0, 0.0, 1.0))


def written_out_closed_form(kind, n, volume, k):
    """(conventional W, coded W, savings, class) from the closed forms, in floats.

    The hop totals are exact integers; each power is k * V * hops evaluated
    left to right, and a hop total too large for a float gives inf W, or 0 W
    when k * V is 0.
    """
    if kind == "mesh":
        label = "odd" if n % 2 else "even"
        savings = 1 / 6 if n % 2 else (n - 2) / (6 * (n - 1))
        try:
            conventional = 3 * k * volume * n * (n - 1)
        except OverflowError:
            conventional = math.inf if volume * k else 0.0
        return conventional, conventional * (1 - savings), savings, label
    hops = n ** 3 - n ** 2
    if n % 2:
        odd1 = (n - 1) // 2 % 2 == 1
        shared = n * (n - 3) * (3 * n - 1) if odd1 else 3 * n * (n - 1) ** 2
        label = "odd-1" if odd1 else "odd-2"
    else:
        even1 = (n - 2) // 2 % 2 == 1
        shared = n * n * (3 * n - 8) if even1 else n * (n - 2) * (3 * n - 2)
        label = "even-1" if even1 else "even-2"
    shared //= 8
    try:
        return k * volume * hops, k * volume * (hops - shared), shared / hops, label
    except OverflowError:
        watts = math.inf if volume * k else 0.0
        return watts, watts, shared / hops, label


def rounded(q: Fraction) -> float:
    """q rounded once to a float; past the float range, inf."""
    try:
        return float(q)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("kind", ["mesh", "ring"])
def test_closed_forms_equal_written_out_formulas(kind):
    # bit for bit on every size, volume and device model of the corpus; the
    # bound is 2kV times the min-hop sum, rounded once, and needs no pairing
    for n in CORPUS_SIZES:
        count = n * (n - 1)
        min_hops = n * (n * n // 4) if kind == "ring" else count
        for params in CORPUS_MODELS:
            k = params.slope_w_per_gbps
            for volume in CORPUS_VOLUMES:
                case = (n, volume, params)
                assert closed_form(kind, n, volume, params) == written_out_closed_form(kind, n, volume, k), case
                conventional = rounded(2 * Fraction(k) * Fraction(volume) * min_hops)
                characteristic = rounded(Fraction(min_hops, count))
                expected = BoundReport(conventional, conventional, conventional, volume, characteristic)
                assert uniform_bound(kind, n, volume, params) == expected, case
    if kind == "ring":
        for n, label in EXPECTED_RING_CLASS.items():
            assert closed_form(kind, n, 20.0)[3] == label
        for n, shared in EXPECTED_RING_SHARED.items():
            assert closed_form(kind, n, 20.0)[2] == shared / (n ** 3 - n ** 2)


# osh's shared hops over the demands to node 1 of a uniform ring or mesh; on
# odd-1 rings (N = 3 mod 4) osh finds more than the paper's protection-side
# matching, elsewhere exactly the closed form's shared total / N
SLICE_SHARED = {
    ("ring", 127): 5953, ("ring", 129): 6144, ("ring", 130): 6208, ("ring", 132): 6402,
    ("ring", 139): 7141, ("ring", 141): 7350, ("mesh", 140): 69, ("mesh", 141): 70,
}


@pytest.mark.parametrize(("kind", "n"), SLICE_SHARED)
def test_one_destination_slice_meets_closed_form(kind, n):
    # a ring demand has at most two optimal pairs, so every cluster has the
    # same optimum and N slices make the full total; on a mesh the equality
    # is measured.  Ring slices 127 to 130 put the longest path on both sides
    # of 128 hops.
    full = (generate_ring if kind == "ring" else generate_full_mesh)(n)
    inst = Instance(full.topology, tuple(d for d in full.demands if d.dest == 1))
    selection = select_pairs_osh(inst, route_instance(inst))
    shared = sum(pair.shared_hops for pair in selection.assignment.pairs)
    _, _, savings, label = closed_form(kind, n, 20.0)
    hops = n * n * (n - 1) if kind == "ring" else 3 * n * (n - 1)
    closed, rest = divmod(round(savings * hops), n)
    assert rest == 0
    assert shared == SLICE_SHARED[(kind, n)]
    if label == "odd-1":
        assert shared > closed
    else:
        assert shared == closed


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
    for d, pair in zip(inst.demands, route_instance(inst)):
        assert pair.total_hops >= 2 * inst.topology.distances_to(d.dest)[d.source]


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


def test_closed_forms_reject_an_unknown_kind():
    # neither a torus nor a miscased ring may answer as a mesh or a ring
    for kind in ("torus", "Ring", "MESH", ""):
        with pytest.raises(DomainError, match=repr(kind)):
            closed_form(kind, 6, 20.0)
        with pytest.raises(DomainError, match=repr(kind)):
            uniform_bound(kind, 6, 20.0)


def test_bounds_past_the_float_range_are_infinite():
    # the exact quotient is too large for a float, as the float sums were
    report = uniform_bound("ring", 1001, 1e306)
    assert report.conventional_lower == report.nc_lower_mean_form == float("inf")
    assert report.volume_avg == 1e306
