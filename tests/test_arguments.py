"""One argument rule per parameter: every numeric parameter of a public function
refuses a bad value with a ValueError that names it, and takes numpy scalars."""

import dataclasses
import math

import numpy as np
import pytest

import commkit
from commkit import (
    EpsScalar,
    compress,
    construct_halmos_checks,
    entrywise_leq,
    factorization_checks,
    finite_dim_obstructions,
    halmos_nilpotent_majorant,
    halmos_pair_scaled,
    nilpotent_commutator_factors,
    operator_norm,
    popa_bound,
    power_inequality_report,
    sweep_checks,
)
from oracles import float_bits

OP = halmos_pair_scaled().a
C = np.triu(np.ones((3, 3)), 1)
PAIR = nilpotent_commutator_factors(C, 0.5)
EYE = np.identity(2)


@dataclasses.dataclass(frozen=True)
class Rule:
    """call(value) runs the function with this parameter set to value and every other valid.

    good is a value inside the range, exact in float32; inside lists the
    probe values that the range admits.
    """

    call: object
    integer: bool
    good: float
    inside: tuple = ()


# Every public function, by its name in commkit.__all__, with a row of its
# numeric parameters; EpsScalar.evaluate is the one method with such a row.
ROWS = {
    "compress": {
        "m": Rule(lambda v: compress(OP, v, 0.5), True, 16),
        "eps": Rule(lambda v: compress(OP, 16, v), False, 0.5),
    },
    "construct_halmos_checks": {
        "eps": Rule(lambda v: construct_halmos_checks(v, 16), False, 0.5),
        "window": Rule(lambda v: construct_halmos_checks(0.5, v), True, 16),
    },
    "sweep_checks": {
        "eps": Rule(lambda v: sweep_checks([0.25, v], 16), False, 0.5),
        "window": Rule(lambda v: sweep_checks([0.5], v), True, 16),
    },
    "halmos_nilpotent_majorant": {
        "eps": Rule(halmos_nilpotent_majorant, False, 0.5),
    },
    "popa_bound": {
        "norm_a": Rule(lambda v: popa_bound(v, 1.0, 0.5), False, 2.0, (0,)),
        "norm_b": Rule(lambda v: popa_bound(1.0, v, 0.5), False, 2.0, (0,)),
        "eps": Rule(lambda v: popa_bound(1.0, 1.0, v), False, 0.5),
        "alpha": Rule(lambda v: popa_bound(1.0, 1.0, 0.5, v), False, 2.0),
    },
    "nilpotent_commutator_factors": {
        "eps": Rule(lambda v: nilpotent_commutator_factors(C, v), False, 0.5),
    },
    "factorization_checks": {
        "tol": Rule(lambda v: factorization_checks(C, PAIR, v, 0.5), False, 0.25, (0,)),
        "eps": Rule(lambda v: factorization_checks(C, PAIR, 1e-9, v), False, 0.5, (None,)),
    },
    "power_inequality_report": {
        "n_max": Rule(lambda v: power_inequality_report(EYE, EYE, EYE, n_max=v), True, 2),
        "tol": Rule(lambda v: power_inequality_report(EYE, EYE, EYE, tol=v), False, 0.25, (0,)),
        "interior": Rule(lambda v: power_inequality_report(EYE, EYE, EYE, interior=v), True, 2,
                         (None,)),
    },
    "entrywise_leq": {
        "tol": Rule(lambda v: entrywise_leq(EYE, EYE, v), False, 0.25, (0,)),
    },
    "finite_dim_obstructions": {
        "tol": Rule(lambda v: finite_dim_obstructions(EYE, EYE, EYE, tol=v), False, 0.25, (0,)),
    },
    "operator_norm": {
        "rel_tol": Rule(lambda v: operator_norm(EYE, v), False, 0.25),
    },
    "EpsScalar.evaluate": {
        "eps": Rule(lambda v: EpsScalar({-1: 2, 1: 3}).evaluate(v), False, 0.5),
    },
    **{name: {} for name in [
        "block4", "commutator", "even_isometry", "exact_commutator_identity_check",
        "halmos_pair_scaled", "identity_op", "matrix_from_json_dict", "max_abs",
        "nil_index_three_check", "odd_isometry", "pair_swap", "read_matrix",
        "trace_zero_commutator_factors", "wielandt_violation_witness", "write_json", "zero_op",
    ]},
}

# Public names that are classes or constants, not functions.
EXEMPT = {
    "CoefficientOverflow", "Column", "DynamicRangeError", "EpsScalar", "FactorPair",
    "HalmosPair", "LazyOp", "NormCertificate", "UnconvergedError", "Verdict",
    "MAX_PAYLOAD_WINDOW", "MAX_POWER", "MAX_WINDOW", "SECTION_REL_TOL",
}

PROBES = {"True": True, "str": "x", "None": None, "nan": math.nan, "inf": math.inf,
          "-inf": -math.inf, "-1.0": -1.0, "0": 0}
INTEGER_PROBES = {"2.5": 2.5}
REAL_PROBES = {"10**400": 10**400}  # a Python int past the double range

RULES = [(function, parameter, rule)
         for function, row in ROWS.items() for parameter, rule in row.items()]


def _bad_values():
    for function, parameter, rule in RULES:
        probes = {**PROBES, **(INTEGER_PROBES if rule.integer else REAL_PROBES)}
        for name, value in probes.items():
            if not any(value is x or value == x for x in rule.inside):
                yield pytest.param(function, parameter, rule, value,
                                   id=f"{function}-{parameter}-{name}")


def test_every_public_function_has_a_row():
    functions = set(commkit.__all__) - EXEMPT
    assert set(ROWS) - {"EpsScalar.evaluate"} == functions
    assert all(callable(getattr(commkit, name)) for name in functions)
    assert len(RULES) == 21  # 20 parameters of public functions, and EpsScalar.evaluate's eps


@pytest.mark.parametrize("function, parameter, rule, value", _bad_values())
def test_bad_value_is_a_value_error_naming_the_parameter(function, parameter, rule, value):
    with pytest.raises(ValueError, match=rf"^{parameter} must (be an? [a-z ]+|lie in .*), got "):
        rule.call(value)


def _plain(result):
    """result with each array as its bytes and each scalar tagged by its type, for ==."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.asdict(result)
    if isinstance(result, np.ndarray):
        return ("ndarray", result.dtype.str, result.shape, result.tobytes())
    if isinstance(result, dict):
        return {key: _plain(value) for key, value in result.items()}
    if isinstance(result, (list, tuple)):
        return [_plain(value) for value in result]
    return type(result).__name__, float_bits(result)


@pytest.mark.parametrize("function, parameter, rule", RULES,
                         ids=[f"{f}-{p}" for f, p, _ in RULES])
def test_numpy_scalar_gives_the_python_numbers_result(function, parameter, rule):
    numpy_value = np.int64(rule.good) if rule.integer else np.float32(rule.good)
    assert _plain(rule.call(numpy_value)) == _plain(rule.call(rule.good))
