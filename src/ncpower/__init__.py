"""Power-aware design of 1+1-protected optical networks with XOR-coded protection."""

from .bounds import BoundReport, bound_nc, closed_form, uniform_bound
from .coding import (
    EMPTY_ASSIGNMENT,
    KIND_COMBOS,
    CodedPair,
    CodingAssignment,
    SelectionResult,
    select_pairs_fixed,
    select_pairs_osh,
)
from .errors import (
    ContractError,
    DomainError,
    FeasibilityError,
    InstanceError,
    NcPowerError,
    OracleGuardError,
    RoutingError,
    SurvivabilityError,
)
from .model import (
    Demand,
    Instance,
    PowerParams,
    Topology,
    generate_full_mesh,
    generate_ring,
    load_instance,
    serialize_instance,
)
from .oracle import OracleResult, optimal_joint, optimal_matching
from .power import PowerReport, eval_with_coding
from .routing import (
    PathKind,
    PathPair,
    disjoint_pair_candidates,
    route_instance,
    shortest_path,
)

__version__ = "0.1.0"
