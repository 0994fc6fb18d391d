"""Linear power model for transponders and IP/WDM ports.

Every wavelength channel of capacity B Gbps costs one transponder and one
router port at each end of a lightpath hop, so carrying V Gbps over one hop
draws (p_port + p_transponder) * V / B watts.  Total network power is the sum
over demands of volume x (working hops + protection hops), minus the traffic
that XOR-coded protection removes from shared links.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import ContractError, DomainError

if TYPE_CHECKING:  # imported only for annotations; model imports us at runtime
    from .coding import CodingAssignment
    from .model import Demand, Instance
    from .routing import PathPair


@dataclass(frozen=True)
class PowerParams:
    """Device power draw and channel capacity.

    Defaults model a 1000 W IP router port plus a 73 W WDM transponder on
    40 Gbps channels, i.e. a slope of 26.825 W per Gbps per hop.
    """

    port_w: float = 1000.0
    transponder_w: float = 73.0
    channel_gbps: float = 40.0

    def __post_init__(self):
        if not (0 <= self.port_w < math.inf and 0 <= self.transponder_w < math.inf):
            raise DomainError("device powers must be finite and non-negative")
        if not 0 < self.channel_gbps < math.inf:
            raise DomainError("channel capacity must be finite and positive")

    @property
    def slope_w_per_gbps(self) -> float:
        """Watts drawn per Gbps carried over one link."""
        return (self.port_w + self.transponder_w) / self.channel_gbps


@dataclass(frozen=True)
class PowerReport:
    """Evaluated power of one routed, optionally coded, configuration."""

    p_total: float
    p_conventional: float  # power with plain 1+1 duplication
    p_reduction: float  # power removed by coded sharing
    savings_fraction: float  # p_reduction / p_conventional (0 when idle)


def eval_conventional(instance: Instance, routing: Iterable[PathPair]) -> float:
    """Power of plain 1+1 protection: k * sum_d V_d * (working + protection hops)."""
    from .routing import index_routing  # deferred: model->power->routing would cycle

    return _conventional(instance, index_routing(instance, routing))


def _conventional(instance: Instance, by_demand: dict[Demand, PathPair]) -> float:
    k = instance.power.slope_w_per_gbps
    return k * sum(d.volume * by_demand[d].total_hops for d in instance.demands)


def eval_with_coding(
    instance: Instance,
    routing: Iterable[PathPair],
    assignment: CodingAssignment,
) -> PowerReport:
    """Power after XOR-coding the assigned pairs on their shared links.

    Each coded pair removes min(V1, V2) Gbps from every link its two encoded
    paths share, because the XOR stream replaces the smaller flow there.  The
    assignment must be consistent with ``routing``: shared links must actually
    lie on the recorded paths and benefits must match the power parameters.
    """
    from .routing import index_routing

    by_demand = index_routing(instance, routing)
    k = instance.power.slope_w_per_gbps
    p1 = _conventional(instance, by_demand)

    reduction = 0.0
    for coded in assignment.pairs:
        for demand, kind in ((coded.first, coded.first_kind), (coded.second, coded.second_kind)):
            if demand not in by_demand:
                raise ContractError(f"coded pair references unrouted demand {demand}")
            path = by_demand[demand].path(kind)
            if not coded.shared_links <= path.link_set:
                raise ContractError(
                    f"shared links {sorted(coded.shared_links)} not on the "
                    f"{kind.value} path of {demand}"
                )
        expected = k * min(coded.first.volume, coded.second.volume) * len(coded.shared_links)
        # isclose, unlike a difference, tells an infinite benefit from a finite one
        if not math.isclose(coded.benefit, expected, rel_tol=1e-9, abs_tol=1e-9):
            raise ContractError(
                f"pair benefit {coded.benefit} inconsistent with power model ({expected})"
            )
        reduction += coded.benefit

    total = p1 - reduction
    savings = reduction / p1 if p1 > 0 else 0.0
    if math.isinf(p1):
        # past the float range p1 - reduction and reduction / p1 would be nan,
        # so both come from exact sums of volume x hops, each rounded once
        from fractions import Fraction  # deferred: it adds to every CLI start-up

        hops = sum(Fraction(d.volume) * by_demand[d].total_hops for d in instance.demands)
        cut = sum(
            Fraction(min(c.first.volume, c.second.volume)) * len(c.shared_links)
            for c in assignment.pairs
        )
        try:
            total = float(Fraction(k) * (hops - cut))
        except OverflowError:
            total = math.inf
        savings = float(cut / hops)
    return PowerReport(
        p_total=total,
        p_conventional=p1,
        p_reduction=reduction,
        savings_fraction=savings,
    )
