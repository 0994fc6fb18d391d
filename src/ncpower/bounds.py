"""Analytic lower bounds and closed-form results for mesh and ring topologies.

The conventional bound prices every demand at twice its min-hop distance.
Coded protection tightens it two ways: subtracting the matched pairs' shared
traffic directly (per-demand form), or through the characteristic hop count
h~ = h_min - h_shared/4 averaged over the demand set (mean form).

Every bound is exact: the inputs are integer hop counts and floats (the power
slope k and the volumes), each float is taken as the integer ratio it equals,
the sums are formed in integer arithmetic, and each reported number is rounded
to a float once.  So a bound does not depend on demand order, and the mean
form equals the conventional bound whenever no demand is paired.  A generated
uniform mesh or ring gets the same sums from its structure instead of from
its demands (``uniform_bound``), so it answers at any size in microseconds
and agrees with ``bound_nc`` on the generated instance bit for bit.

Closed forms for uniform all-pairs traffic:

* full mesh: conventional power 3kVN(N-1); savings 1/6 for odd N and
  (N-2)/(6(N-1)) for even N, so the odd/even fluctuation is 1/(6(N-1)).
* ring: conventional total hop count N^3 - N^2; the coded matching removes a
  shared-hop total that depends on N mod 4 (four size classes), approaching
  37.5% savings as N grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .coding import CodingAssignment, EMPTY_ASSIGNMENT
from .errors import ContractError, DomainError, RoutingError
from .model import Demand, Instance, PowerParams


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds for one instance under a given coding assignment."""

    conventional_lower: float  # no coding: 2k sum V h_min
    nc_lower_per_demand: float  # conventional minus the pairs' shared traffic
    nc_lower_mean_form: float  # 2k |D| V_avg htilde_avg
    volume_avg: float
    characteristic_avg: float


def min_hop_table(instance: Instance) -> dict[Demand, int]:
    """Min-hop distance per demand, read from the topology's table for its dest."""
    table: dict[Demand, int] = {}
    for d in instance.demands:
        try:
            table[d] = instance.topology.distances_to(d.dest)[d.source]
        except KeyError:
            raise RoutingError(
                f"node {d.dest} is unreachable from node {d.source}"
            ) from None
    return table


def _weighted_sum(terms: Iterable[tuple[float, int]]) -> tuple[int, int]:
    """sum(x * c) over (float x, int c) as (numerator, denominator), exactly.

    A float's ratio has a power-of-two denominator, so the largest one is a
    common denominator of them all.
    """
    ratios = [(x.as_integer_ratio(), c) for x, c in terms]
    den = max((d for (_, d), _ in ratios), default=1)
    return sum(n * (den // d) * c for (n, d), c in ratios), den


def _round(num: int, den: int) -> float:
    """num/den rounded once to the nearest float (int/int true division).

    Past the float range the result is infinite, as a float sum would be.
    """
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _bound_report(
    slope: float,
    volumes: dict[float, tuple[int, int]],
    shared_total: int,
    cuts: dict[float, int],
) -> BoundReport:
    """The five bound numbers from integer sums, each rounded once.

    ``volumes`` maps each distinct volume V to (demand count, sum of h_min) of
    its demands; ``shared_total`` sums the shared hops of every demand's coded
    pair, and ``cuts`` maps min(V1, V2) to the summed shared hops of the pairs
    with that smaller volume.
    """
    count = sum(c for c, _ in volumes.values())
    if not count:
        return BoundReport(0.0, 0.0, 0.0, 0.0, 0.0)
    hops = sum(h for _, h in volumes.values())
    k_num, k_den = slope.as_integer_ratio()
    vh_num, vh_den = _weighted_sum((v, h) for v, (_, h) in volumes.items())
    v_num, v_den = _weighted_sum((v, c) for v, (c, _) in volumes.items())
    cut_num, cut_den = _weighted_sum(cuts.items())
    # characteristic sum: sum(h - s/4) = (4 sum h - sum s) / 4
    quarter_hops = 4 * hops - shared_total
    return BoundReport(
        conventional_lower=_round(2 * k_num * vh_num, k_den * vh_den),
        nc_lower_per_demand=_round(
            k_num * (2 * vh_num * cut_den - cut_num * vh_den), k_den * vh_den * cut_den
        ),
        nc_lower_mean_form=_round(k_num * v_num * quarter_hops, 2 * k_den * v_den * count),
        volume_avg=_round(v_num, v_den * count),
        characteristic_avg=_round(quarter_hops, 4 * count),
    )


def bound_nc(instance: Instance, assignment: CodingAssignment = EMPTY_ASSIGNMENT) -> BoundReport:
    """Lower bounds with coded protection under ``assignment``'s pairing."""
    min_hops = min_hop_table(instance)
    volumes: dict[float, tuple[int, int]] = {}
    for d in instance.demands:
        count, hops = volumes.get(d.volume, (0, 0))
        volumes[d.volume] = (count + 1, hops + min_hops[d])
    volume = {(d.source, d.dest): d.volume for d in instance.demands}
    cuts: dict[float, int] = {}
    for p in assignment.pairs:
        for ends in (p.first, p.second):
            if ends not in volume:
                raise ContractError("coded pair references unknown demand {}->{}".format(*ends))
        v = min(volume[p.first], volume[p.second])
        cuts[v] = cuts.get(v, 0) + p.shared_hops
    # each pair's shared hops count once for each of its two demands
    shared_total = 2 * sum(cuts.values())
    return _bound_report(instance.power.slope_w_per_gbps, volumes, shared_total, cuts)


def uniform_bound(
    kind: str, n: int, volume: float, params: PowerParams = PowerParams()
) -> BoundReport:
    """``bound_nc`` of the generated uniform mesh or ring, with no pairing.

    Built from structure, not demands: |D| = N(N-1), and the min-hop sum is
    N floor(N^2/4) on a ring and N(N-1) on a full mesh.
    """
    if n < 3:
        raise DomainError(f"n={n}: 1+1 protection is undefined below 3 nodes")
    if not 0 <= volume < math.inf:
        raise DomainError(f"volume {volume} must be finite and non-negative")
    count = n * (n - 1)
    hops = n * (n * n // 4) if kind == "ring" else count
    return _bound_report(params.slope_w_per_gbps, {volume: (count, hops)}, 0, {})


# -- full mesh ---------------------------------------------------------------


def _require_size(n: int):
    if n < 3:
        raise DomainError(f"n={n}: closed forms need at least 3 nodes")


def mesh_savings_fraction(n: int) -> float:
    _require_size(n)
    return 1 / 6 if n % 2 else (n - 2) / (6 * (n - 1))


def mesh_power(n: int, volume: float, params: PowerParams = PowerParams()) -> tuple[float, float, float]:
    """(conventional, coded, savings_fraction) for a uniform full mesh.

    Every demand routes over 1 + 2 hops; coding pairs off the two-hop
    protections (plus one mixed pair when N is even), which removes exactly
    one shared hop per pair.
    """
    _require_size(n)
    conventional = 3 * params.slope_w_per_gbps * volume * n * (n - 1)
    savings = mesh_savings_fraction(n)
    return conventional, conventional * (1 - savings), savings


def mesh_fluctuation(n: int) -> float:
    """Savings dip of the even mesh size n relative to the odd plateau 1/6."""
    _require_size(n)
    return 1 / (6 * (n - 1))


# -- ring --------------------------------------------------------------------


class RingClass(Enum):
    """Ring sizes split by N mod 4, which fixes the coded matching structure."""

    ODD1 = "odd-1"  # (N-1)/2 odd:  3, 7, 11, 15, ...
    ODD2 = "odd-2"  # (N-1)/2 even: 5, 9, 13, ...
    EVEN1 = "even-1"  # (N-2)/2 odd:  4, 8, 12, ...
    EVEN2 = "even-2"  # (N-2)/2 even: 6, 10, 14, ...


def ring_classify(n: int) -> RingClass:
    _require_size(n)
    if n % 2:
        return RingClass.ODD1 if (n - 1) // 2 % 2 else RingClass.ODD2
    return RingClass.EVEN1 if (n - 2) // 2 % 2 else RingClass.EVEN2


def ring_conventional_hops(n: int) -> int:
    """Total working+protection hops of uniform all-pairs ring traffic: N^3 - N^2."""
    _require_size(n)
    return n ** 3 - n ** 2


def ring_shared_hops(n: int) -> int:
    """Total shared hops removed by the optimal protection-side matching."""
    cls = ring_classify(n)
    if cls is RingClass.ODD1:
        numerator = n * (n - 3) * (3 * n - 1)
    elif cls is RingClass.ODD2:
        numerator = 3 * n * (n - 1) ** 2
    elif cls is RingClass.EVEN1:
        numerator = n * n * (3 * n - 8)
    else:
        numerator = n * (n - 2) * (3 * n - 2)
    if numerator % 8:
        raise DomainError(f"ring size {n}: shared-hop formula is not integral")
    return numerator // 8


def ring_savings_fraction(n: int) -> float:
    return ring_shared_hops(n) / ring_conventional_hops(n)


def ring_power(n: int, volume: float, params: PowerParams = PowerParams()) -> tuple[float, float, float]:
    """(conventional, coded, savings_fraction) for a uniform ring."""
    k = params.slope_w_per_gbps
    hops = ring_conventional_hops(n)
    shared = ring_shared_hops(n)
    conventional = k * volume * hops
    return conventional, k * volume * (hops - shared), shared / hops


def closed_form(
    kind: str, n: int, volume: float, params: PowerParams = PowerParams()
) -> tuple[float, float, float, str]:
    """(conventional, coded, savings_fraction, size class) of a uniform mesh or ring.

    ``kind`` is "mesh" or "ring".  The size class is the mesh parity ("odd" or
    "even") or the ring's RingClass value.  Past the float range both powers
    are infinite, as ``_round`` gives the bounds, and 0 at volume 0.
    """
    if not 0 <= volume < math.inf:
        raise DomainError(f"volume {volume}: closed forms need a finite non-negative volume")
    if kind == "mesh":
        power, savings, label = mesh_power, mesh_savings_fraction, "odd" if n % 2 else "even"
    else:
        power, savings, label = ring_power, ring_savings_fraction, ring_classify(n).value
    try:
        return (*power(n, volume, params), label)
    except OverflowError:
        # a hop count too large to convert to a float
        watts = math.inf if volume * params.slope_w_per_gbps else 0.0
        return watts, watts, savings(n), label
