"""The package's public names are its modules' ``__all__`` lists, stated once."""

from collections import Counter

import commkit
from commkit import constructions, lazyops, matrices, scalars, verdict, verifiers

MODULES = (constructions, lazyops, matrices, scalars, verdict, verifiers)

# The public surface, sorted: a name added to or removed from a module's
# __all__ must be added to or removed from this list too.
PUBLIC_NAMES = [
    "CoefficientOverflow",
    "Column",
    "DynamicRangeError",
    "EpsScalar",
    "FactorPair",
    "HalmosPair",
    "LazyOp",
    "MAX_PAYLOAD_WINDOW",
    "MAX_POWER",
    "MAX_WINDOW",
    "NormCertificate",
    "SECTION_REL_TOL",
    "UnconvergedError",
    "Verdict",
    "block4",
    "commutator",
    "compress",
    "construct_halmos_checks",
    "entrywise_leq",
    "even_isometry",
    "exact_commutator_identity_check",
    "factorization_checks",
    "finite_dim_obstructions",
    "halmos_nilpotent_majorant",
    "halmos_pair_scaled",
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
    "sweep_checks",
    "trace_zero_commutator_factors",
    "wielandt_violation_witness",
    "write_json",
    "zero_op",
]


def test_package_exports_exactly_the_modules_names():
    names = [name for module in MODULES for name in module.__all__]
    assert [name for name, count in Counter(names).items() if count > 1] == []
    assert commkit.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(commkit, name) is getattr(module, name), (module.__name__, name)


def test_public_surface_is_the_committed_list():
    assert commkit.__all__ == PUBLIC_NAMES
