"""szq: exact Suzuki groups Sz(q), their element-order statistics, a
brute-force verification oracle, and an (order, nse) profile gate."""

from .field import Field, FieldElement, FieldMismatchError, find_modulus, is_irreducible
from .gate import CandidateProfile, GateReport, ProfileError, run_gate
from .group import (
    CertificationError,
    PartitionClassCounts,
    SuzukiParams,
    closed_form_subgroup_counts,
    make_params,
    make_w,
    params_for_q,
)
from .mat4 import Mat4
from .oracle import (
    ElementTable,
    OrderNotFoundError,
    StabilizerChain,
    SubgroupHandle,
    empirical_order_stats,
    enumerate_group,
    verify_partition,
)
from .orderstats import (
    Check,
    OrderStats,
    PrimeGraph,
    Spectrum,
    euler_phi,
    divisors,
    nse_closed_form,
    prime_graph,
    spectrum_closed_form,
    type_function,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateProfile", "CertificationError", "Check", "ElementTable", "Field",
    "FieldElement", "FieldMismatchError", "GateReport", "Mat4",
    "OrderNotFoundError", "OrderStats", "PartitionClassCounts", "PrimeGraph",
    "ProfileError", "Spectrum", "StabilizerChain", "SubgroupHandle",
    "SuzukiParams", "closed_form_subgroup_counts", "divisors",
    "empirical_order_stats", "enumerate_group", "euler_phi", "find_modulus",
    "is_irreducible", "make_params", "make_w", "nse_closed_form",
    "params_for_q", "prime_graph", "run_gate", "spectrum_closed_form",
    "type_function", "verify_partition",
]
