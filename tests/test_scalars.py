"""EpsScalar ring behavior and evaluation."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commkit.scalars import CoefficientOverflow, EpsScalar

scalars = st.dictionaries(st.integers(-4, 4), st.integers(-60, 60), max_size=4).map(EpsScalar)


def test_zero_coefficients_dropped():
    s = EpsScalar({2: 0, 1: 3})
    assert s.terms == {1: 3}
    assert EpsScalar({0: 0}).is_zero
    assert not EpsScalar({0: 0}) and EpsScalar.one()


def test_constructors():
    assert EpsScalar.integer(7).terms == {0: 7}
    assert EpsScalar.monomial(-2, -3).terms == {-3: -2}
    assert EpsScalar().is_zero
    assert EpsScalar.one() == 1


def test_addition_cancels():
    assert (EpsScalar.monomial(2, 1) + EpsScalar.monomial(-2, 1)).is_zero


def test_multiplication_merges_powers():
    assert EpsScalar.monomial(2, 1) * EpsScalar.monomial(3, -1) == EpsScalar.integer(6)


def test_int_coercion():
    s = 2 + 3 * EpsScalar.monomial(1, 1)
    assert s.terms == {0: 2, 1: 3}
    assert -1 + EpsScalar.one() == EpsScalar()


def test_evaluate():
    s = EpsScalar({-2: 1, 0: -4, 3: 2})
    eps = 0.37
    assert math.isclose(s.evaluate(eps), eps**-2 - 4 + 2 * eps**3, rel_tol=1e-14)
    with pytest.raises(ValueError):
        s.evaluate(0.0)
    with pytest.raises(ValueError):
        s.evaluate(-0.5)


@pytest.mark.parametrize("scalar, eps", [
    (EpsScalar.monomial(3, -3), 1e-110),  # eps**-3 raises OverflowError
    (EpsScalar.monomial(3, -3), 2.2e-103),  # eps**-3 is finite, 3 eps**-3 is inf
    (EpsScalar.monomial(1, 400), 1e10),
])
def test_evaluate_out_of_range_names_the_scalar_and_eps(scalar, eps):
    with pytest.raises(OverflowError) as err:
        scalar.evaluate(eps)
    assert str(err.value) == f"{scalar!r} at eps={eps!r} is outside the double range"


def test_overflow_detected():
    big = EpsScalar.integer(2**62)
    with pytest.raises(CoefficientOverflow):
        big * 4
    with pytest.raises(CoefficientOverflow):
        big + big


def test_only_result_coefficients_are_range_checked():
    # The partial product 2**32 * 2**31 = 2**63 is out of range, yet the
    # eps**0 coefficient 2**63 - 1 it sums into is not.
    product = EpsScalar({0: 2**32, 1: 1}) * EpsScalar({0: 2**31, -1: -1})
    assert product.terms == {-1: -(2**32), 0: 2**63 - 1, 1: 2**31}


def test_rejects_non_integer_terms():
    with pytest.raises(TypeError):
        EpsScalar({0: 1.5})
    with pytest.raises(TypeError):
        EpsScalar({0.5: 1})  # type: ignore[dict-item]


def test_repr_is_readable():
    assert repr(EpsScalar()) == "EpsScalar(0)"
    assert "eps**-3" in repr(EpsScalar.monomial(1, -3))


@given(scalars, scalars, scalars)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(scalars, scalars)
def test_evaluation_is_a_homomorphism(p, q):
    eps = 0.5
    lhs = (p * q).evaluate(eps)
    rhs = p.evaluate(eps) * q.evaluate(eps)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(
        (p + q).evaluate(eps), p.evaluate(eps) + q.evaluate(eps), rel_tol=1e-12, abs_tol=1e-12
    )
