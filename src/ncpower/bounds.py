"""Analytic lower bounds and closed-form results for mesh and ring topologies.

The conventional bound prices every demand at twice its min-hop distance.
Coded protection tightens it two ways: subtracting the matched pairs' shared
traffic directly (per-demand form), or through the characteristic hop count
h~ = h_min - h_shared/4 averaged over the demand set (mean form).

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

from .coding import CodingAssignment, EMPTY_ASSIGNMENT
from .errors import DomainError, RoutingError
from .model import Demand, Instance
from .power import PowerParams
from .routing import _bfs_dist


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds for one instance under a given coding assignment."""

    conventional_lower: float  # no coding: 2k sum V h_min
    nc_lower_per_demand: float  # conventional minus the pairs' shared traffic
    nc_lower_mean_form: float  # 2k |D| V_avg htilde_avg
    min_hops: dict[Demand, int]
    shared_hops: dict[Demand, int]
    characteristic_hops: dict[Demand, float]
    volume_avg: float
    characteristic_avg: float


def _min_hop_table(instance: Instance) -> dict[Demand, int]:
    """Min-hop distance per demand; one BFS per distinct destination."""
    dist_cache: dict[int, dict[int, int]] = {}
    table: dict[Demand, int] = {}
    for d in instance.demands:
        if d.dest not in dist_cache:
            dist_cache[d.dest] = _bfs_dist(instance.topology.adjacency, d.dest)
        try:
            table[d] = dist_cache[d.dest][d.source]
        except KeyError:
            raise RoutingError(
                f"node {d.dest} is unreachable from node {d.source}"
            ) from None
    return table


def bound_conventional(instance: Instance) -> float:
    """Power floor of plain 1+1 protection: both paths need at least h_min hops."""
    return bound_nc(instance).conventional_lower


def bound_nc(instance: Instance, assignment: CodingAssignment = EMPTY_ASSIGNMENT) -> BoundReport:
    """Lower bounds with coded protection under ``assignment``'s pairing."""
    k = instance.power.slope_w_per_gbps
    demands = instance.demands
    min_hops = _min_hop_table(instance)
    shared = {d: assignment.shared_hops(d) for d in demands}
    characteristic = {d: min_hops[d] - shared[d] / 4 for d in demands}

    conventional = 2 * k * sum(d.volume * min_hops[d] for d in demands)
    pair_cut = sum(
        min(p.first.volume, p.second.volume) * p.shared_hops for p in assignment.pairs
    )
    per_demand = k * (2 * sum(d.volume * min_hops[d] for d in demands) - pair_cut)

    count = len(demands)
    v_avg = sum(d.volume for d in demands) / count if count else 0.0
    h_avg = sum(characteristic.values()) / count if count else 0.0
    mean_form = 2 * k * count * v_avg * h_avg

    return BoundReport(
        conventional_lower=conventional,
        nc_lower_per_demand=per_demand,
        nc_lower_mean_form=mean_form,
        min_hops=min_hops,
        shared_hops=shared,
        characteristic_hops=characteristic,
        volume_avg=v_avg,
        characteristic_avg=h_avg,
    )


# -- full mesh ---------------------------------------------------------------


def _require_size(n: int):
    if n < 3:
        raise DomainError(f"n={n}: closed forms need at least 3 nodes")


def mesh_savings_fraction(n: int) -> float:
    _require_size(n)
    return 1 / 6 if n % 2 else (n - 2) / (6 * (n - 1))


def mesh_power(n: int, volume: float, params: PowerParams | None = None) -> tuple[float, float, float]:
    """(conventional, coded, savings_fraction) for a uniform full mesh.

    Every demand routes over 1 + 2 hops; coding pairs off the two-hop
    protections (plus one mixed pair when N is even), which removes exactly
    one shared hop per pair.
    """
    _require_size(n)
    params = params or PowerParams()
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


def ring_power(n: int, volume: float, params: PowerParams | None = None) -> tuple[float, float, float]:
    """(conventional, coded, savings_fraction) for a uniform ring."""
    params = params or PowerParams()
    k = params.slope_w_per_gbps
    hops = ring_conventional_hops(n)
    shared = ring_shared_hops(n)
    conventional = k * volume * hops
    return conventional, k * volume * (hops - shared), shared / hops


def closed_form(
    kind: str, n: int, volume: float, params: PowerParams | None = None
) -> tuple[float, float, float, str]:
    """(conventional, coded, savings_fraction, size class) of a uniform mesh or ring.

    ``kind`` is "mesh" or "ring".  The size class is the mesh parity ("odd" or
    "even") or the ring's RingClass value.
    """
    if not 0 <= volume < math.inf:
        raise DomainError(f"volume {volume}: closed forms need a finite non-negative volume")
    if kind == "mesh":
        return (*mesh_power(n, volume, params), "odd" if n % 2 else "even")
    return (*ring_power(n, volume, params), ring_classify(n).value)
