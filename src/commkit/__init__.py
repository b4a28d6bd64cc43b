"""commkit: constructions and certified checks for commutators of
entrywise-positive matrices and operators on the sequence space l2."""

from .matrices import (
    DynamicRangeError,
    NormCertificate,
    UnconvergedError,
    as_matrix,
    commutator,
    entrywise_leq,
    identity,
    matrix_from_json_dict,
    max_abs,
    operator_norm,
    read_matrix,
    write_json,
)
from .scalars import CoefficientOverflow, EpsScalar
from .lazyops import (
    LazyOp,
    block4,
    compress,
    even_isometry,
    identity_op,
    odd_isometry,
    pair_swap,
    zero_op,
)
from .constructions import (
    FactorPair,
    HalmosPair,
    halmos_nilpotent_majorant,
    halmos_pair,
    halmos_pair_scaled,
    nilpotent_commutator_factors,
    trace_zero_commutator_factors,
)
from .verdict import Verdict
from .verifiers import (
    certified_halmos_popa_check,
    delta_threshold,
    exact_commutator_identity_check,
    factorization_checks,
    finite_dim_obstructions,
    nil_index_three_check,
    popa_bound,
    power_inequality_report,
    wielandt_violation_witness,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientOverflow",
    "DynamicRangeError",
    "EpsScalar",
    "FactorPair",
    "HalmosPair",
    "LazyOp",
    "NormCertificate",
    "UnconvergedError",
    "Verdict",
    "as_matrix",
    "block4",
    "certified_halmos_popa_check",
    "commutator",
    "compress",
    "delta_threshold",
    "entrywise_leq",
    "even_isometry",
    "exact_commutator_identity_check",
    "factorization_checks",
    "finite_dim_obstructions",
    "halmos_nilpotent_majorant",
    "halmos_pair",
    "halmos_pair_scaled",
    "identity",
    "identity_op",
    "matrix_from_json_dict",
    "max_abs",
    "nil_index_three_check",
    "nilpotent_commutator_factors",
    "odd_isometry",
    "operator_norm",
    "pair_swap",
    "popa_bound",
    "power_inequality_report",
    "read_matrix",
    "trace_zero_commutator_factors",
    "wielandt_violation_witness",
    "write_json",
    "zero_op",
]
