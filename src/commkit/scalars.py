"""Exact scalars of the form sum_k c_k * eps**k with integer coefficients.

These are the scalars of the lazy operator engine: Laurent polynomials in
the scale parameter eps over the integers.  All ring operations are exact;
evaluating at a numeric eps is the only lossy step.
"""

from __future__ import annotations

import math
from typing import Mapping

# Coefficients must stay within the signed 64-bit range.  Anything larger
# points at a runaway expression, not a legitimate value.
_COEFF_LIMIT = 2**63 - 1


class CoefficientOverflow(OverflowError):
    """A coefficient left the signed 64-bit range."""


def _checked(coeff: int) -> int:
    if abs(coeff) > _COEFF_LIMIT:
        raise CoefficientOverflow(f"coefficient {coeff} exceeds 64-bit range")
    return coeff


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
                if coeff != 0:
                    clean[power] = _checked(coeff)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def integer(cls, coeff: int) -> "EpsScalar":
        return cls({0: coeff})

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "EpsScalar":
        return cls({power: coeff})

    @classmethod
    def zero(cls) -> "EpsScalar":
        return cls()

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
            total = _checked(out.get(power, 0) + coeff)
            if total == 0:
                out.pop(power, None)
            else:
                out[power] = total
        return EpsScalar(out)

    __radd__ = __add__

    def __neg__(self) -> "EpsScalar":
        return EpsScalar({p: -c for p, c in self._terms.items()})

    def __sub__(self, other) -> "EpsScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "EpsScalar":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other) -> "EpsScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[int, int] = {}
        for p1, c1 in self._terms.items():
            for p2, c2 in rhs._terms.items():
                power = p1 + p2
                total = _checked(out.get(power, 0) + _checked(c1 * c2))
                if total == 0:
                    out.pop(power, None)
                else:
                    out[power] = total
        return EpsScalar(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "EpsScalar":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = EpsScalar.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def evaluate(self, eps: float) -> float:
        """Evaluate at a numeric eps > 0 (the only lossy operation); OverflowError
        names the scalar and eps when a term or the sum leaves the double range."""
        if not eps > 0.0:
            raise ValueError("eps must be positive")
        try:
            value = float(sum(c * float(eps) ** p for p, c in self._terms.items()))
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
