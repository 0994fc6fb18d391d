"""Pricing of a routing and coding choice under the linear power model.

The device model (``model.PowerParams``) is instance data; this module turns
it and a selection into watts.  Every wavelength channel of capacity B Gbps
costs one transponder and one router port at each end of a lightpath hop, so
carrying V Gbps over one hop draws (p_port + p_transponder) * V / B watts.
Total network power is the sum over demands of volume x (working hops +
protection hops), minus the traffic that XOR-coded protection removes from
shared links.  Both are float sums, the reproduced numbers; past the float
range the total and the savings come from exact integer sums instead
(``model.integer_ratios``), each rounded once (``model.round_ratio``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .coding import CodingAssignment
from .errors import ContractError
from .model import Instance, integer_ratios, round_ratio
from .routing import PathPair, index_routing


@dataclass(frozen=True)
class PowerReport:
    """Evaluated power of one routed, optionally coded, configuration."""

    p_total: float
    p_conventional: float  # power with plain 1+1 duplication
    p_reduction: float  # power removed by coded sharing
    savings_fraction: float  # p_reduction / p_conventional (0 when idle)


def pair_saving(slope: float, volume1: float, volume2: float, shared_hops: int) -> float:
    """Watts one coded pair saves: min(V1, V2) Gbps less on each shared link."""
    return slope * min(volume1, volume2) * shared_hops


def eval_with_coding(
    instance: Instance,
    routing: Iterable[PathPair],
    assignment: CodingAssignment,
) -> PowerReport:
    """Power after XOR-coding the assigned pairs on their shared links.

    Each coded pair removes min(V1, V2) Gbps from every link its two encoded
    paths share, because the XOR stream replaces the smaller flow there.
    Routing and assignment carry no volume: both name demands by endpoints,
    and the volumes are those of ``instance``'s demands, so one selection is
    priced here at any volume.  The assignment must be consistent with
    ``routing``: a pair's two recorded paths share its ``shared_hops`` links.
    """
    by_demand = index_routing(instance, routing)
    k = instance.power.slope_w_per_gbps
    p1 = k * sum(d.volume * by_demand[d].total_hops for d in instance.demands)
    by_ends = {(d.source, d.dest): d for d in instance.demands}

    reduction = 0.0
    for coded in assignment.pairs:
        for ends in (coded.first, coded.second):
            if ends not in by_ends:
                raise ContractError("coded pair references unrouted demand {}->{}".format(*ends))
        first, second = by_ends[coded.first], by_ends[coded.second]
        nodes = by_demand[first].path(coded.first_kind).nodes
        on_first = set(zip(nodes, nodes[1:]))
        nodes = by_demand[second].path(coded.second_kind).nodes
        shared = sum(map(on_first.__contains__, zip(nodes, nodes[1:])))
        if shared < coded.shared_hops:
            raise ContractError(
                f"{coded.shared_hops} shared links not on the {coded.first_kind.value} path of "
                f"{first} and the {coded.second_kind.value} path of {second}, which share {shared}"
            )
        reduction += pair_saving(k, first.volume, second.volume, coded.shared_hops)

    total = p1 - reduction
    savings = reduction / p1 if p1 > 0 else 0.0
    if math.isinf(p1):
        # past the float range p1 - reduction and reduction / p1 would be nan,
        # so both come from exact sums of volume x hops, each rounded once
        nums, den = integer_ratios(d.volume for d in instance.demands)
        hops = sum(num * by_demand[d].total_hops for d, num in zip(instance.demands, nums))
        num_of = dict(zip(by_ends, nums))
        cut = sum(min(num_of[c.first], num_of[c.second]) * c.shared_hops for c in assignment.pairs)
        k_num, k_den = k.as_integer_ratio()
        total = round_ratio(k_num * (hops - cut), k_den * den)
        savings = round_ratio(cut, hops)
    return PowerReport(
        p_total=total,
        p_conventional=p1,
        p_reduction=reduction,
        savings_fraction=savings,
    )
