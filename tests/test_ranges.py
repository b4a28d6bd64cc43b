"""One range rule for computed results: a public function whose result, formed from
finite input, leaves the double range raises DynamicRangeError naming that result.

pyproject's filterwarnings = ["error"] makes a RuntimeWarning that leaks on the
way fail its row.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import commkit
from commkit import (
    DynamicRangeError,
    EpsScalar,
    FactorPair,
    commutator,
    compress,
    construct_halmos_checks,
    entrywise_leq,
    factorization_checks,
    finite_dim_obstructions,
    halmos_pair_scaled,
    nilpotent_commutator_factors,
    operator_norm,
    popa_bound,
    power_inequality_report,
    sweep_checks,
    trace_zero_commutator_factors,
    wielandt_violation_witness,
)
from test_arguments import EXEMPT

MAX = np.finfo(float).max
BIG = np.full((2, 2), 1e200)
EYE, ZERO = np.identity(2), np.zeros((2, 2))
# [A,B]_12 = -1e308 and A >= 0, so a difference with [A,B] overflows against +1e308.
NEG_A, NEG_B = np.diag([1.0, 0.0]), np.array([[0.0, -1e308], [0.0, 0.0]])
UPPER = np.array([[0.0, 1.0], [0.0, 0.0]])
C = np.array([[0.0, 10.0], [0.0, 0.0]])
EPS_C = np.diag([1.0, 1.0, 1.0], 1)
EPS_C[0, 3] = 5e298  # the products stay in range, eps * c_14 = 5e308 does not
# AB = diag(1e300, 1) [[0, 1e10], [0, 0]] overflows, BA does not.
WIDE = FactorPair(np.diag([1e300, 1.0]), 1e10 * UPPER)


@dataclasses.dataclass(frozen=True)
class Case:
    """call() must raise error, whose message starts with what.

    A DynamicRangeError's message says the result "overflows double precision".
    """

    call: object
    what: str
    error: type = DynamicRangeError


# Every public function, by its name in commkit.__all__, with a row of inputs
# whose result leaves the double range; EpsScalar.evaluate is the one method.
ROWS = {
    "commutator": {"product": Case(lambda: commutator(BIG, BIG), "the commutator AB - BA")},
    "entrywise_leq": {"margin": Case(lambda: entrywise_leq([[1e308]], [[-1e308]]), "b - a")},
    "popa_bound": {"product": Case(lambda: popa_bound(1e200, 1e200, 0.5),
                                   "norm_a * norm_b = 1e+200 * 1e+200")},
    "operator_norm": {"norm": Case(lambda: operator_norm(np.full((2, 2), 1e308)),
                                   "the operator norm")},
    "sweep_checks": {"product": Case(lambda: sweep_checks([1e-60], 16), "norm_a * norm_b = ")},
    "construct_halmos_checks": {
        "product": Case(lambda: construct_halmos_checks(1e-60, 16), "norm_a * norm_b = "),
    },
    "wielandt_violation_witness": {
        "commutator": Case(lambda: wielandt_violation_witness(BIG, BIG), "the commutator AB - BA"),
    },
    "power_inequality_report": {
        "commutator": Case(lambda: power_inequality_report(BIG, BIG, EYE),
                           "the commutator AB - BA"),
        "precondition": Case(lambda: power_inequality_report(NEG_A, NEG_B, -NEG_B),
                             "[A,B] - (I + X)"),
        "power": Case(lambda: power_inequality_report(np.diag([1e160, 1.0]), ZERO, ZERO, 3),
                      "the power A^2"),
        "sum": Case(lambda: power_inequality_report(np.diag([1e160, 1.0]), ZERO,
                                                    np.diag([1e160, 0.0]), 3), "the sum R_2"),
        "rhs": Case(lambda: power_inequality_report(np.diag([1e308, 1.0]), ZERO, ZERO, 2),
                    "2 A^1 + R_2"),
        "power-commutator": Case(lambda: power_inequality_report(
            np.diag([1e150, 1.0]), 1e10 * UPPER, ZERO, 3), "the commutator [A^2, B]"),
        # A^2 = A and [A^2, B]_12 = -1e308 against (2 A)_12 = 1e308.
        "margin": Case(lambda: power_inequality_report(
            np.array([[1.0, 5e307], [0.0, 0.0]]), np.diag([0.0, -2.0]), ZERO, 2),
            "[A^2, B] - 2 A^1 - R_2"),
    },
    "finite_dim_obstructions": {
        "commutator": Case(lambda: finite_dim_obstructions(BIG, BIG, EYE),
                           "the commutator AB - BA"),
        "hypothesis": Case(lambda: finite_dim_obstructions(NEG_A, NEG_B, NEG_B),
                           "[A,B] - (I - X)"),
        "trace-sum": Case(lambda: finite_dim_obstructions(ZERO, ZERO, np.diag([-1.7e308] * 2)),
                          "the trace of X"),
        "trace-lower": Case(lambda: finite_dim_obstructions(ZERO, ZERO, np.diag([-MAX, 0.0])),
                            "the trace of X"),
        "square": Case(lambda: finite_dim_obstructions(ZERO, ZERO, BIG), "X X - X"),
    },
    "factorization_checks": {
        "eps-c": Case(lambda: factorization_checks(C, nilpotent_commutator_factors(C, 1.0),
                                                   1e-9, 1e308), "eps * C"),
        "residual-nilpotent": Case(lambda: factorization_checks(C, WIDE, 1e-9, 1.0),
                                   "the residual AB - BA - C"),
        "residual-tracezero": Case(lambda: factorization_checks(C, WIDE),
                                   "the residual AB - BA - C"),
        # The residual is -0.5e308, and eps C - BA = -1e308 - 1e308.
        "eps-c-minus-ba": Case(lambda: factorization_checks(
            -1e308 * UPPER, FactorPair(np.diag([0.5, 1.0]), 1e308 * UPPER), 1e-9, 1.0),
            "eps C - BA"),
        # A caller's non-finite B is bad input, not a result out of range.
        "nan-b": Case(lambda: factorization_checks(C, FactorPair(np.diag([2.0, 1.0]),
                                                                 np.nan * UPPER), 1e-9, 1.0),
                      "matrix entries must be finite", ValueError),
    },
    "nilpotent_commutator_factors": {
        # Refused before the diagonal is formed, from its logarithm.
        "diagonal": Case(lambda: nilpotent_commutator_factors(UPPER, 1e-320),
                         "diagonal range ((1+eps)/eps)**1"),
        "products": Case(lambda: nilpotent_commutator_factors(1e308 * UPPER.T, 1.0),
                         "B, AB or BA"),
        "eps-c": Case(lambda: nilpotent_commutator_factors(EPS_C, 1e10), "eps * C"),
    },
    "trace_zero_commutator_factors": {
        "products": Case(lambda: trace_zero_commutator_factors(1.7e308 * (UPPER + UPPER.T)),
                         "B, AB or BA"),
    },
    # EpsScalar.evaluate raises OverflowError, which callers catch by that class.
    "compress": {
        "entries": Case(lambda: compress(halmos_pair_scaled().a, 16, 1e-110),
                        "EpsScalar(1*eps**-3) at eps=1e-110 is outside the double range",
                        OverflowError),
    },
    "EpsScalar.evaluate": {
        "value": Case(lambda: EpsScalar({-3: 1}).evaluate(1e-110),
                      "EpsScalar(1*eps**-3) at eps=1e-110 is outside the double range",
                      OverflowError),
    },
    **{name: {} for name in [
        "block4", "even_isometry", "exact_commutator_identity_check", "halmos_nilpotent_majorant",
        "halmos_pair_scaled", "identity_op", "matrix_from_json_dict", "max_abs",
        "nil_index_three_check", "odd_isometry", "pair_swap", "read_matrix", "write_json",
        "zero_op",
    ]},
}

CASES = [(function, name, case) for function, row in ROWS.items() for name, case in row.items()]


def test_every_public_function_has_a_row():
    functions = set(commkit.__all__) - EXEMPT
    assert set(ROWS) - {"EpsScalar.evaluate"} == functions


@pytest.mark.parametrize("function, name, case", CASES, ids=[f"{f}-{n}" for f, n, _ in CASES])
def test_result_out_of_range_is_refused_naming_it(function, name, case):
    with pytest.raises(case.error) as raised:
        case.call()
    assert type(raised.value) is case.error
    message = str(raised.value)
    assert message.startswith(case.what)
    if case.error is DynamicRangeError:
        assert " overflows double precision" in message


def test_only_the_helper_raises_for_a_computed_result():
    """_in_range raises DynamicRangeError; so do two checks that refuse before a result
    is formed: the diagonal's logarithm, and the trace's fsum, which raises OverflowError."""
    source = Path(commkit.__file__).parent
    raises = {path.stem: len(re.findall(r"raise DynamicRangeError", path.read_text()))
              for path in source.glob("*.py")}
    assert {stem: count for stem, count in raises.items() if count} == {
        "matrices": 1, "constructions": 1, "verifiers": 1}
