"""Analytic lower bounds and closed-form results for mesh and ring topologies.

The conventional bound prices every demand at twice its min-hop distance.
Coded protection tightens it two ways: subtracting the matched pairs' shared
traffic directly (per-demand form), or through the characteristic hop count
h~ = h_min - h_shared/4 averaged over the demand set (mean form).

Every bound is exact: the inputs are integer hop counts and floats (the power
slope k and the volumes), ``model.integer_ratios`` puts the volumes over one
denominator, the sums are formed in integer arithmetic, and
``model.round_ratio`` rounds each reported number to a float once.  So a
bound does not depend on demand order, and the mean form equals the
conventional bound whenever no demand is paired.  A generated
uniform mesh or ring gets the same sums from its structure instead of from
its demands (``uniform_bound``), so it answers at any size in microseconds
and agrees with ``bound_nc`` on the generated instance bit for bit.

Closed forms for uniform all-pairs traffic of volume V at power slope k
(``closed_form``):

* full mesh: every demand routes over 1 + 2 hops, so the conventional power
  is 3kVN(N-1).  Coding pairs off the two-hop protections (plus one mixed
  pair when N is even), one shared hop per pair, which saves 1/6 for odd N
  and (N-2)/(6(N-1)) for even N: the odd/even fluctuation is 1/(6(N-1)).
  The coded power is the conventional power times (1 - savings).
* ring: the conventional hop total is H = N^3 - N^2 and the power kVH.  The
  optimal protection-side matching removes S shared hops, with 8S by size
  class: N(N-3)(3N-1) for odd-1 (N = 3 mod 4), 3N(N-1)^2 for odd-2
  (N = 1 mod 4), N^2(3N-8) for even-1 (N = 0 mod 4) and N(N-2)(3N-2) for
  even-2 (N = 2 mod 4).  The coded power is kV(H - S) and the savings S/H,
  approaching 37.5% as N grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .coding import CodingAssignment, EMPTY_ASSIGNMENT
from .errors import ContractError, DomainError, RoutingError
from .model import Instance, PowerParams, integer_ratios, round_ratio


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds for one instance under a given coding assignment."""

    conventional_lower: float  # no coding: 2k sum V h_min
    nc_lower_per_demand: float  # conventional minus the pairs' shared traffic
    nc_lower_mean_form: float  # 2k |D| V_avg htilde_avg
    volume_avg: float
    characteristic_avg: float


def _bound_report(
    slope: float,
    volumes: dict[float, tuple[int, int]],
    cuts: dict[float, int],
) -> BoundReport:
    """The five bound numbers from integer sums, each rounded once.

    ``volumes`` maps each distinct volume V to (demand count, sum of h_min) of
    its demands, and ``cuts`` maps min(V1, V2), a key of ``volumes``, to the
    summed shared hops of the coded pairs with that smaller volume.
    """
    count = sum(c for c, _ in volumes.values())
    if not count:
        return BoundReport(0.0, 0.0, 0.0, 0.0, 0.0)
    hops = sum(h for _, h in volumes.values())
    k_num, k_den = slope.as_integer_ratio()
    nums, den = integer_ratios(volumes)
    num_of = dict(zip(volumes, nums))
    vh_num = sum(num_of[v] * h for v, (_, h) in volumes.items())
    v_num = sum(num_of[v] * c for v, (c, _) in volumes.items())
    cut_num = sum(num_of[v] * s for v, s in cuts.items())
    # characteristic sum: sum(h - s/4) = (4 sum h - sum s) / 4, where each
    # pair's shared hops count once for each of its two demands
    quarter_hops = 4 * hops - 2 * sum(cuts.values())
    return BoundReport(
        conventional_lower=round_ratio(2 * k_num * vh_num, k_den * den),
        nc_lower_per_demand=round_ratio(k_num * (2 * vh_num - cut_num), k_den * den),
        nc_lower_mean_form=round_ratio(k_num * v_num * quarter_hops, 2 * k_den * den * count),
        volume_avg=round_ratio(v_num, den * count),
        characteristic_avg=round_ratio(quarter_hops, 4 * count),
    )


def bound_nc(instance: Instance, assignment: CodingAssignment = EMPTY_ASSIGNMENT) -> BoundReport:
    """Lower bounds with coded protection under ``assignment``'s pairing."""
    volumes: dict[float, tuple[int, int]] = {}
    for d in instance.demands:
        try:
            hops = instance.topology.distances_to(d.dest)[d.source]
        except KeyError:
            raise RoutingError(f"node {d.dest} is unreachable from node {d.source}") from None
        count, total = volumes.get(d.volume, (0, 0))
        volumes[d.volume] = (count + 1, total + hops)
    volume = {(d.source, d.dest): d.volume for d in instance.demands}
    cuts: dict[float, int] = {}
    for p in assignment.pairs:
        for ends in (p.first, p.second):
            if ends not in volume:
                raise ContractError("coded pair references unknown demand {}->{}".format(*ends))
        v = min(volume[p.first], volume[p.second])
        cuts[v] = cuts.get(v, 0) + p.shared_hops
    return _bound_report(instance.power.slope_w_per_gbps, volumes, cuts)


def _require_uniform(kind: str, n: int, volume: float):
    if kind not in ("mesh", "ring"):
        raise DomainError(f"kind {kind!r} is neither 'mesh' nor 'ring'")
    if n < 3:
        raise DomainError(f"n={n}: 1+1 protection is undefined below 3 nodes")
    if not 0 <= volume < math.inf:
        raise DomainError(f"volume {volume} must be finite and non-negative")


def uniform_bound(
    kind: str, n: int, volume: float, params: PowerParams = PowerParams()
) -> BoundReport:
    """``bound_nc`` of the generated uniform mesh or ring, with no pairing.

    Built from structure, not demands: |D| = N(N-1), and the min-hop sum is
    N floor(N^2/4) on a ring and N(N-1) on a full mesh.
    """
    _require_uniform(kind, n, volume)
    count = n * (n - 1)
    hops = n * (n * n // 4) if kind == "ring" else count
    return _bound_report(params.slope_w_per_gbps, {volume: (count, hops)}, {})


def closed_form(
    kind: str, n: int, volume: float, params: PowerParams = PowerParams()
) -> tuple[float, float, float, str]:
    """(conventional, coded, savings_fraction, size class) of a uniform mesh or ring.

    ``kind`` is "mesh" or "ring".  The size class is the mesh parity ("odd" or
    "even") or the ring's N mod 4 class ("odd-1", "odd-2", "even-1" or
    "even-2").  Past the float range both powers are infinite, as
    ``model.round_ratio`` gives the bounds, and 0 at volume 0.
    """
    _require_uniform(kind, n, volume)
    k = params.slope_w_per_gbps
    if kind == "mesh":
        label = "odd" if n % 2 else "even"
        savings = 1 / 6 if n % 2 else (n - 2) / (6 * (n - 1))
    else:
        label, numerator = {
            3: ("odd-1", n * (n - 3) * (3 * n - 1)),
            1: ("odd-2", 3 * n * (n - 1) ** 2),
            0: ("even-1", n * n * (3 * n - 8)),
            2: ("even-2", n * (n - 2) * (3 * n - 2)),
        }[n % 4]
        hops = n ** 3 - n ** 2
        # exact: in its class (N-3)(3N-1), (N-1)^2, N^2 or (N-2)(3N-2) carries 2^3
        shared = numerator // 8
        savings = shared / hops
    try:
        if kind == "mesh":
            conventional = 3 * k * volume * n * (n - 1)
            return conventional, conventional * (1 - savings), savings, label
        return k * volume * hops, k * volume * (hops - shared), savings, label
    except OverflowError:
        # a hop count too large to convert to a float
        watts = math.inf if volume * k else 0.0
        return watts, watts, savings, label
