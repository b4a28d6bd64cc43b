"""Explicit witnesses: operator pairs with [A,B] = I + nilpotent, and
finite-dimensional commutator factorizations of positive matrices."""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import dataclass

import numpy as np

from .lazyops import (
    LazyOp,
    block4,
    even_isometry,
    identity_op,
    odd_isometry,
    pair_swap,
    zero_op,
)
from .matrices import DynamicRangeError, _square_inputs
from .scalars import EpsScalar, _real

__all__ = [
    "FactorPair",
    "HalmosPair",
    "halmos_nilpotent_majorant",
    "halmos_pair_scaled",
    "nilpotent_commutator_factors",
    "trace_zero_commutator_factors",
]


@dataclass(frozen=True)
class HalmosPair:
    """Entrywise-nonnegative operators a, b with [a, b] = I + nilpotent.

    The commutator identity holds exactly, column by column; ``nilpotent``
    has nil-index 3.  The operators carry the scale parameter exactly (as
    EpsScalar coefficients), so the identity holds as a polynomial identity
    in eps; numeric eps enters only when compressing, and eps = 1 gives the
    unscaled pair.
    """

    a: LazyOp
    b: LazyOp
    nilpotent: LazyOp

    def commutator_defect(self) -> LazyOp:
        """[a, b] - I - nilpotent; every column must evaluate to empty."""
        return self.a @ self.b - self.b @ self.a - identity_op() - self.nilpotent


@dataclass(frozen=True)
class FactorPair:
    """Factors of C = AB - BA with A a positive diagonal matrix."""

    a: np.ndarray
    b: np.ndarray


# The nonzero blocks of the Halmos pair: operator -> (row, col) -> (coefficient,
# word).  A word composes the even and odd isometries u and v, their adjoints
# U and V, the pair swap w and the identity 1; each word here has norm one, so
# block (i, j) has norm |coefficient| * eps**(j - i).
_BLOCKS = {
    "a": {(1, 2): (1, "V"), (1, 4): (3, "1"),
          (2, 2): (1, "U"), (2, 3): (1, "1"),
          (3, 1): (1, "V"), (3, 3): (1, "U"), (3, 4): (2, "w"),
          (4, 1): (1, "U"), (4, 3): (1, "V")},
    "b": {(1, 3): (2, "v"), (1, 4): (2, "u"),
          (3, 2): (1, "1"), (3, 3): (2, "u"), (3, 4): (2, "v"),
          (4, 1): (1, "1")},
    "nilpotent": {(1, 3): (-2, "w"), (1, 4): (-4, "vw"),
                  (2, 3): (2, "u"), (2, 4): (2, "v"),
                  (3, 4): (-4, "uw")},
}


def halmos_pair_scaled() -> HalmosPair:
    """The eps-scaled Halmos pair: block (i, j) of _BLOCKS carries eps**(j - i).

    Each member is the unscaled pair (eps = 1) conjugated by
    diag(e^3,e^2,e,1), so the commutator identity holds as a polynomial
    identity in eps.  For every eps in (0, 1] a and b stay entrywise
    nonnegative; compression norms scale like eps**-3 for a and b and like
    eps for the nilpotent part.  A block of coefficient 1 and power 0 is its
    bare word, any other word * monomial.
    """
    u, v, w, one = even_isometry(), odd_isometry(), pair_swap(), identity_op()
    letters = {"u": u, "v": v, "U": u.adjoint(), "V": v.adjoint(), "w": w, "1": one}
    ops = {}
    for name, blocks in _BLOCKS.items():
        grid = [[zero_op()] * 4 for _ in range(4)]
        for (i, j), (coeff, word) in blocks.items():
            block = functools.reduce(operator.matmul, (letters[c] for c in word))
            if (coeff, j - i) != (1, 0):
                block = block * EpsScalar.monomial(coeff, j - i)
            grid[i - 1][j - 1] = block
        ops[name] = block4(grid)
    return HalmosPair(**ops)


def halmos_nilpotent_majorant(eps: float) -> np.ndarray:
    """4x4 matrix of the exact block norms |coefficient| * eps**(j - i) of the
    scaled nilpotent part; its spectral norm is a certified upper bound for
    the operator's norm."""
    eps = _real("eps", eps, 0, 1, low_open=True)
    out = np.zeros((4, 4))
    for (i, j), (coeff, _) in _BLOCKS["nilpotent"].items():
        out[i - 1, j - 1] = abs(coeff) * eps ** (j - i)
    return out


def _support_order(support: np.ndarray) -> list[int]:
    """Kahn's topological sort of the digraph with an arc i -> j wherever
    support[i, j], ties broken on the lowest index, or ValueError naming a cycle.

    An index left unplaced keeps a positive indegree from an unplaced
    predecessor, so walking back along the lowest such predecessor from the
    lowest unplaced index must revisit an index; the walk reversed from the
    first visit of that index is a cycle, named by 1-based indices.
    """
    indegree = support.sum(axis=0).astype(int)
    ready = np.flatnonzero(indegree == 0).tolist()
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in np.nonzero(support[i])[0]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, int(j))
    unplaced = indegree > 0
    if not unplaced.any():
        return order
    walk: dict[int, int] = {}  # index -> step at which the walk reached it
    j = int(np.argmax(unplaced))
    while j not in walk:
        walk[j] = len(walk)
        j = int(np.argmax(support[:, j] & unplaced))
    cycle = [k + 1 for k in [j, *reversed(list(walk)[walk[j]:])]]
    raise ValueError(f"matrix is not nilpotent: support cycle {'->'.join(map(str, cycle))}")


def _nonnegative_square(c) -> np.ndarray:
    """The shared input check of the factorizations."""
    (c,) = _square_inputs(c)
    if float(c.min()) < 0.0:
        raise ValueError("matrix must be entrywise nonnegative")
    return c


def _diagonal_factors(c: np.ndarray, d: np.ndarray) -> FactorPair:
    """A = diag(d) and B with AB - BA = C off the diagonal; d has distinct entries.

    (AB - BA)_ij = (d_i - d_j) b_ij, so b_ij = c_ij / (d_i - d_j) wherever
    c_ij != 0 off the diagonal, and b_ij = +0.0 elsewhere.  With A diagonal
    the entries of AB and BA are d_i b_ij and b_ij d_j, with no sums, so
    B, AB and BA are finite exactly when every max(|d_i|, |d_j|) |b_ij| is:
    when |d_i| max_j |b_ij| and |d_j| max_i |b_ij| are, rounding being monotone.
    """
    gap = d[:, None] - d[None, :]
    with np.errstate(over="ignore"):
        b = np.divide(c, gap, out=np.zeros_like(c), where=(c != 0.0) & (gap != 0.0))
        del gap
        scale = np.abs(d)
        # max |b| along a row or column is the larger of its max and -min: no array of |b|.
        row_max = np.maximum(b.max(axis=1), -b.min(axis=1))
        col_max = np.maximum(b.max(axis=0), -b.min(axis=0))
        largest = np.concatenate([scale * row_max, col_max * scale])
    if not np.isfinite(largest).all():
        raise DynamicRangeError(
            f"entries up to {float(c.max())} with diagonal up to {float(np.abs(d).max())} "
            f"at n={c.shape[0]} overflow B, AB or BA in double precision"
        )
    return FactorPair(a=np.diag(d), b=b)


def nilpotent_commutator_factors(c, eps: float) -> FactorPair:
    """Factor a nonnegative nilpotent C as AB - BA with BA <= eps * C.

    A is diagonal: a topological order of the support of C (an arc i -> j
    for c_ij > 0) is reversed, and the index of rank k in it gets
    ((1+eps)/eps)**k.  Every arc then runs from a larger diagonal entry to
    a smaller one, and B carries c_ij / (a_ii - a_jj) on the support of C,
    so any nonnegative nilpotent matrix is accepted without permuting it.
    """
    c = _nonnegative_square(c)
    eps = _real("eps", eps, 0, low_open=True)
    n = c.shape[0]
    order = _support_order(c > 0.0)
    ratio = (1.0 + eps) / eps
    if (n - 1) * math.log10(ratio) > 300.0:
        raise DynamicRangeError(
            f"diagonal range ((1+eps)/eps)**{n - 1} overflows double precision "
            f"for eps={eps}, n={n}"
        )
    powers = ratio ** np.arange(n, dtype=float)
    if not (np.diff(powers) > 0.0).all():
        raise ValueError(
            f"eps={eps} is too large: the diagonal ((1+eps)/eps)**k is not strictly "
            f"increasing in double precision"
        )
    d = np.empty(n)
    d[order[::-1]] = powers
    pair = _diagonal_factors(c, d)
    # The bound BA <= eps * C needs eps * C in range as well: with a large eps,
    # eps * c_ij can exceed the entries of AB by a factor of up to n - 1.
    if math.isinf(eps * float(c.max())):
        raise DynamicRangeError(f"eps * C overflows double precision for eps={eps}")
    return pair


def trace_zero_commutator_factors(c) -> FactorPair:
    """Factor a nonnegative trace-zero C as AB - BA with A = diag(1..n).

    A nonnegative matrix with zero trace has zero diagonal, so the diagonal
    solve b_ij = c_ij / (i - j) reproduces all of C.  B is +0.0 wherever C
    is zero and in general carries negative entries above the diagonal.
    """
    c = _nonnegative_square(c)
    with np.errstate(over="ignore"):  # a diagonal that sums past the float range gives inf
        trace = float(np.trace(c))
    if abs(trace) > 1e-12:
        raise ValueError(f"trace must vanish (within 1e-12), got {trace}")
    return _diagonal_factors(c, np.arange(1, c.shape[0] + 1, dtype=float))
