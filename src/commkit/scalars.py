"""Exact scalars of the form sum_k c_k * eps**k with integer coefficients.

These are the scalars of the lazy operator engine: Laurent polynomials in
the scale parameter eps over the integers.  Sums and products are exact;
evaluating at a numeric eps is the only lossy step.  Only the constructor
drops zero coefficients and range-checks the rest, so sums and products
check the coefficients of their result, never a partial sum.

The package's numeric arguments are checked here too, by _real and
_integer: one rule per parameter meaning, stated as an interval.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

__all__ = ["CoefficientOverflow", "EpsScalar"]

# Coefficients must stay within the signed 64-bit range.  Anything larger
# points at a runaway expression, not a legitimate value.
_COEFF_LIMIT = 2**63 - 1


class CoefficientOverflow(OverflowError):
    """A coefficient left the signed 64-bit range."""


def _interval(low, high, low_open: bool) -> str:
    return f"{'(' if low_open else '['}{low}, {high}{')' if high == math.inf else ']'}"


def _real(name: str, value, low, high=math.inf, *, low_open: bool = False) -> float:
    """value as a float: an int or float, numpy's included, not a bool, finite, in the interval.

    The interval runs from low, open when low_open, to high, closed unless it
    is inf.  Anything else raises ValueError naming the parameter and value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past the double range
        x = math.inf
    if not (math.isfinite(x) and (low < x if low_open else low <= x) and x <= high):
        raise ValueError(f"{name} must lie in {_interval(low, high, low_open)}, got {value}")
    return x


def _integer(name: str, value, low: int, high=math.inf) -> int:
    """value as an int: an int, numpy's included, not a bool, with low <= value <= high.

    Anything else raises ValueError naming the parameter and value.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in {_interval(low, high, False)}, got {value}")
    return int(value)


class EpsScalar:
    """Immutable integer-coefficient Laurent polynomial in eps."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if terms:
            for power, coeff in terms.items():
                if not isinstance(power, int) or isinstance(power, bool):
                    raise TypeError(f"exponent must be an int, got {power!r}")
                if not isinstance(coeff, int) or isinstance(coeff, bool):
                    raise TypeError(f"coefficient must be an int, got {coeff!r}")
                if abs(coeff) > _COEFF_LIMIT:
                    raise CoefficientOverflow(f"coefficient {coeff} exceeds 64-bit range")
                if coeff != 0:
                    clean[power] = coeff
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def integer(cls, coeff: int) -> "EpsScalar":
        return cls({0: coeff})

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "EpsScalar":
        return cls({power: coeff})

    @classmethod
    def one(cls) -> "EpsScalar":
        return cls({0: 1})

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @staticmethod
    def _coerce(other) -> "EpsScalar | None":
        if isinstance(other, EpsScalar):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return EpsScalar.integer(other)
        return None

    def __add__(self, other) -> "EpsScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for power, coeff in rhs._terms.items():
            out[power] = out.get(power, 0) + coeff
        return EpsScalar(out)

    __radd__ = __add__

    def __mul__(self, other) -> "EpsScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[int, int] = {}
        for p1, c1 in self._terms.items():
            for p2, c2 in rhs._terms.items():
                out[p1 + p2] = out.get(p1 + p2, 0) + c1 * c2
        return EpsScalar(out)

    __rmul__ = __mul__

    def evaluate(self, eps: float) -> float:
        """Evaluate at a finite eps > 0 (the only lossy operation); OverflowError
        names the scalar and eps when a term or the sum leaves the double range."""
        eps = _real("eps", eps, 0, low_open=True)
        try:
            value = float(sum(c * eps ** p for p, c in self._terms.items()))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise OverflowError(f"{self!r} at eps={eps!r} is outside the double range")
        return value

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "EpsScalar(0)"
        parts = []
        for power in sorted(self._terms):
            coeff = self._terms[power]
            if power == 0:
                parts.append(f"{coeff}")
            elif power == 1:
                parts.append(f"{coeff}*eps")
            else:
                parts.append(f"{coeff}*eps**{power}")
        return f"EpsScalar({' + '.join(parts)})"
