"""Acceptance checks for the package.

Each test prints one PASS/FAIL line (visible even under pytest capture) and
asserts the criterion at its stated tolerance:

1. mesh volume scaling  - 5-node mesh powers scale linearly, 6 significant digits
2. ring volume scaling  - 5-node ring powers scale linearly, 6 significant digits
3. mesh size sweep      - savings vs. size match the closed forms and references
4. ring size sweep      - ring class formulas exact, heuristic near references
5. oracle agreement     - heuristic matches the exhaustive oracles
6. bound validity       - no achieved power ever undercuts a lower bound
7. structural identities- hop-count sums and the odd/even fluctuation identity
8. large size limits    - asymptotic savings from the closed forms, instantly
"""
from __future__ import annotations

import time
from fractions import Fraction

from ncpower.bounds import bound_nc, closed_form
from ncpower.coding import (
    EMPTY_ASSIGNMENT,
    KIND_COMBOS,
    PathKind,
    select_pairs_fixed,
    select_pairs_osh,
)
from ncpower.model import generate_full_mesh, generate_ring
from ncpower.oracle import optimal_joint, optimal_matching
from ncpower.power import eval_with_coding
from ncpower.routing import route_instance

WW = (PathKind.WORKING, PathKind.WORKING)
PP = (PathKind.PROTECTION, PathKind.PROTECTION)

# reference savings percentages (protection-with-protection coding on meshes,
# best single heuristic on rings) recorded at four significant figures
REFERENCE_MESH_PP_PCT = {
    3: 0.0, 4: 11.1111, 5: 8.3333, 6: 13.3333, 7: 11.1111, 8: 14.2857,
    9: 12.5, 10: 14.8148, 11: 13.3333, 12: 15.1515, 13: 13.8889,
    14: 15.3846, 15: 14.2857,
}
REFERENCE_RING_OSH_PCT = {
    3: 16.6667, 4: 16.6667, 5: 30.0, 6: 26.6667, 7: 30.9524,
    8: 28.5714, 9: 33.3333,
}


def sig6(value: float) -> str:
    return f"{value:.6g}"


def verdict(capsys, index: int, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        line = f"ACCEPTANCE {index} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        print(line)


def heuristic_savings_pct(instance, routing, combo=None) -> float:
    if combo is None:
        sel = select_pairs_osh(instance)
    else:
        sel = select_pairs_fixed(instance, routing, combo)
    return eval_with_coding(instance, sel.routing, sel.assignment).savings_fraction * 100


def test_acceptance_1_mesh_volume_scaling(capsys):
    t0 = time.perf_counter()
    problems = []
    for volume in range(20, 201, 20):
        inst = generate_full_mesh(5, float(volume))
        routing = route_instance(inst)
        conventional = eval_with_coding(inst, routing, EMPTY_ASSIGNMENT).p_conventional
        sel = select_pairs_osh(inst)
        coded = eval_with_coding(inst, sel.routing, sel.assignment).p_total
        joint = optimal_joint(inst)
        oracle = eval_with_coding(inst, joint.routing, joint.assignment).p_total
        if sig6(conventional) != sig6(1609.5 * volume):
            problems.append(f"conventional({volume})={conventional}")
        if sig6(coded) != sig6(1341.25 * volume):
            problems.append(f"coded({volume})={coded}")
        if sig6(oracle) != sig6(1341.25 * volume):
            problems.append(f"oracle({volume})={oracle}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    verdict(capsys, 1, "mesh volume scaling", not problems, f"{elapsed:.2f}s")
    assert not problems, problems


def test_acceptance_2_ring_volume_scaling(capsys):
    t0 = time.perf_counter()
    problems = []
    for volume in range(20, 201, 20):
        inst = generate_ring(5, float(volume))
        routing = route_instance(inst)
        conventional = eval_with_coding(inst, routing, EMPTY_ASSIGNMENT).p_conventional
        sel = select_pairs_osh(inst)
        coded = eval_with_coding(inst, sel.routing, sel.assignment).p_total
        joint = optimal_joint(inst)
        oracle = eval_with_coding(inst, joint.routing, joint.assignment).p_total
        if sig6(conventional) != sig6(2682.5 * volume):
            problems.append(f"conventional({volume})={conventional}")
        if sig6(coded) != sig6(1877.75 * volume):
            problems.append(f"coded({volume})={coded}")
        if sig6(oracle) != sig6(1877.75 * volume):
            problems.append(f"oracle({volume})={oracle}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    verdict(capsys, 2, "ring volume scaling", not problems, f"{elapsed:.2f}s")
    assert not problems, problems


def test_acceptance_3_mesh_size_sweep(capsys):
    t0 = time.perf_counter()
    problems = []
    recorded = []
    for n in range(3, 16):
        inst = generate_full_mesh(n, 20.0)
        routing = route_instance(inst)
        osh = heuristic_savings_pct(inst, routing)
        ww = heuristic_savings_pct(inst, routing, WW)
        pp = heuristic_savings_pct(inst, routing, PP)
        analytic = 100 / 6 if n % 2 else 100 * (n - 2) / (6 * (n - 1))
        if abs(osh - analytic) > 1e-3:
            problems.append(f"osh({n})={osh} vs {analytic}")
        if ww != 0.0:
            problems.append(f"ww({n})={ww}")
        deviation = abs(pp - REFERENCE_MESH_PP_PCT[n])
        if n <= 9 and deviation > 1e-3:
            problems.append(f"pp({n})={pp} vs {REFERENCE_MESH_PP_PCT[n]}")
        if n > 9:
            recorded.append(f"pp({n})={pp:.4f} ref={REFERENCE_MESH_PP_PCT[n]} dev={deviation:.1e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s")
    verdict(capsys, 3, "mesh size sweep", not problems, f"{elapsed:.1f}s")
    with capsys.disabled():
        for line in recorded:
            print(f"  {line}")
    assert not problems, problems


def test_acceptance_4_ring_size_sweep(capsys):
    t0 = time.perf_counter()
    problems = []
    for n in range(3, 16):
        inst = generate_ring(n, 20.0)
        routing = route_instance(inst)
        sel = select_pairs_fixed(inst, routing, PP)
        pp_fraction = eval_with_coding(inst, sel.routing, sel.assignment).savings_fraction
        analytic = closed_form("ring", n, 20.0)[2]
        if pp_fraction != analytic:
            problems.append(f"pp({n})={pp_fraction} vs {analytic}")
        osh = heuristic_savings_pct(inst, routing)
        if n <= 9 and abs(osh - REFERENCE_RING_OSH_PCT[n]) > 0.5:
            problems.append(f"osh({n})={osh} vs {REFERENCE_RING_OSH_PCT[n]}")
        if osh < pp_fraction * 100 - 1e-9:
            problems.append(f"osh({n})={osh} below pp={pp_fraction * 100}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s")
    verdict(capsys, 4, "ring size sweep", not problems, f"{elapsed:.1f}s")
    assert not problems, problems


def test_acceptance_5_oracle_agreement(capsys, random_instances):
    problems = []
    for build in (generate_full_mesh, generate_ring):
        for n in range(3, 7):
            inst = build(n, 20.0)
            sel = select_pairs_osh(inst)
            achieved = eval_with_coding(inst, sel.routing, sel.assignment).p_total
            joint = optimal_joint(inst)
            optimum = eval_with_coding(inst, joint.routing, joint.assignment).p_total
            if achieved != optimum:
                problems.append(f"{build.__name__}({n}): {achieved} vs {optimum}")

    gaps = []
    for idx, inst in enumerate(random_instances):
        routing = route_instance(inst)
        sel = select_pairs_osh(inst)
        oracle = optimal_matching(inst, routing, combos=KIND_COMBOS)
        best = eval_with_coding(inst, oracle.routing, oracle.assignment).p_reduction
        ours = eval_with_coding(inst, sel.routing, sel.assignment).p_reduction
        gap = 0.0 if best == 0 else max(0.0, 1 - ours / best)
        gaps.append(gap)
        if ours < 0.95 * best - 1e-9:
            problems.append(f"instance {idx}: benefit {ours} < 95% of {best}")
    nonzero = [f"#{i}:{g:.3%}" for i, g in enumerate(gaps) if g > 0]
    detail = f"max gap {max(gaps):.3%} over {len(gaps)} instances"
    verdict(capsys, 5, "oracle agreement", not problems, detail)
    with capsys.disabled():
        print(f"  gaps: {' '.join(nonzero) if nonzero else 'all zero'}")
    assert not problems, problems


def test_acceptance_6_bound_validity(capsys, random_instances_uniform):
    violations = []
    for idx, inst in enumerate(random_instances_uniform):
        routing = route_instance(inst)
        sel = select_pairs_osh(inst)
        achieved = eval_with_coding(inst, sel.routing, sel.assignment).p_total
        conventional = eval_with_coding(inst, routing, EMPTY_ASSIGNMENT).p_conventional
        report = bound_nc(inst, sel.assignment)
        tol = 1e-9 * max(1.0, conventional)
        if achieved < report.nc_lower_per_demand - tol:
            violations.append(f"#{idx} per-demand bound")
        if achieved < report.nc_lower_mean_form - tol:
            violations.append(f"#{idx} mean-form bound")
        if conventional < bound_nc(inst).conventional_lower - tol:
            violations.append(f"#{idx} conventional bound")
        for d, pair in zip(inst.demands, sel.routing):
            if pair.total_hops < 2 * inst.topology.distances_to(d.dest)[d.source]:
                violations.append(f"#{idx} hop floor {d}")
    verdict(capsys, 6, "bound validity",
            not violations, f"{len(violations)} violations")
    assert not violations, violations


def test_acceptance_7_structural_identities(capsys):
    problems = []
    for n in range(3, 16):
        mesh_hops = sum(p.total_hops for p in route_instance(generate_full_mesh(n, 20.0)))
        if mesh_hops != 3 * n * (n - 1):
            problems.append(f"mesh({n}) hops {mesh_hops} != {3 * n * (n - 1)}")
        ring_hops = sum(p.total_hops for p in route_instance(generate_ring(n, 20.0)))
        if ring_hops != n ** 3 - n ** 2:
            problems.append(f"ring({n}) hops {ring_hops} != {n ** 3 - n ** 2}")
    for n in range(4, 16, 2):
        drop = Fraction(1, 6) - Fraction(n - 2, 6 * (n - 1))
        if drop != Fraction(1, 6 * (n - 1)):
            problems.append(f"fluctuation identity fails at {n}")
        if closed_form("mesh", n, 20.0)[2] != float(Fraction(n - 2, 6 * (n - 1))):
            problems.append(f"even savings at {n}")
    for n in range(3, 16, 2):
        if closed_form("mesh", n, 20.0)[2] != 1 / 6:
            problems.append(f"odd plateau at {n}")
    verdict(capsys, 7, "structural identities", not problems)
    assert not problems, problems


def test_acceptance_8_large_size_limits(capsys):
    t0 = time.perf_counter()
    ring_pct = closed_form("ring", 1001, 20.0)[2] * 100
    mesh_pct = closed_form("mesh", 1000, 20.0)[2] * 100
    elapsed = time.perf_counter() - t0
    problems = []
    if abs(ring_pct - 37.5) > 0.1:
        problems.append(f"ring(1001)={ring_pct}")
    if abs(mesh_pct - 16.6667) > 0.02:
        problems.append(f"mesh(1000)={mesh_pct}")
    if elapsed >= 0.01:
        problems.append(f"runtime {elapsed * 1000:.2f}ms")
    detail = f"ring(1001)={ring_pct:.4f}% mesh(1000)={mesh_pct:.4f}% in {elapsed * 1000:.2f}ms"
    verdict(capsys, 8, "large size limits", not problems, detail)
    assert not problems, problems
