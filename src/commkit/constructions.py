"""Explicit witnesses: operator pairs with [A,B] = I + nilpotent, and
finite-dimensional commutator factorizations of positive matrices."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .lazyops import (
    LazyOp,
    block4,
    conjugate_by_block_scaling,
    even_isometry,
    identity_op,
    odd_isometry,
    pair_swap,
    zero_op,
)
from .matrices import (
    DynamicRangeError,
    _require_square,
    _topological_order,
    as_matrix,
    matrix_to_json_dict,
    permutation_triangularization,
)

__all__ = [
    "FactorPair",
    "HalmosPair",
    "halmos_nilpotent_majorant",
    "halmos_pair",
    "halmos_pair_scaled",
    "nilpotent_commutator_factors",
    "self_commutator_isometry",
    "trace_zero_commutator_factors",
]


@dataclass(frozen=True)
class HalmosPair:
    """Entrywise-nonnegative operators a, b with [a, b] = I + nilpotent.

    The commutator identity holds exactly, column by column; ``nilpotent``
    has nil-index 3.  When eps_symbolic is True the operators carry the
    scale parameter exactly (as EpsScalar coefficients) and the identity
    holds as a polynomial identity in eps; numeric eps enters only when
    compressing.
    """

    a: LazyOp
    b: LazyOp
    nilpotent: LazyOp
    eps_symbolic: bool

    def commutator_defect(self) -> LazyOp:
        """[a, b] - I - nilpotent; every column must evaluate to empty."""
        return self.a @ self.b - self.b @ self.a - identity_op() - self.nilpotent


@dataclass(frozen=True)
class FactorPair:
    """Factors of C = AB - BA with A a positive diagonal matrix."""

    a: np.ndarray
    b: np.ndarray

    def to_json_dict(self) -> dict:
        return {"A": matrix_to_json_dict(self.a), "B": matrix_to_json_dict(self.b)}


# The nonzero blocks of the nilpotent part, (row, col) -> (coefficient, word).
# A word composes the even isometry u, the odd isometry v and the pair swap
# w, so it is itself an isometry and the block's operator norm is exactly
# |coefficient|.  halmos_pair builds the operator and
# halmos_nilpotent_majorant its norm bound from this one table.
_NIL_BLOCKS = {
    (1, 3): (-2, "w"),
    (1, 4): (-4, "vw"),
    (2, 3): (2, "u"),
    (2, 4): (2, "v"),
    (3, 4): (-4, "uw"),
}


def halmos_pair() -> HalmosPair:
    """The 4x4 block pair whose commutator is the identity plus a nil-index-3
    perturbation, with every entry of a and b nonnegative."""
    u = even_isometry()
    v = odd_isometry()
    us = u.adjoint()
    vs = v.adjoint()
    w = pair_swap()
    one = identity_op()
    z = zero_op()
    a = block4([
        [z, vs, z, 3 * one],
        [z, us, one, z],
        [vs, z, us, 2 * w],
        [us, z, vs, z],
    ])
    b = block4([
        [z, z, 2 * v, 2 * u],
        [z, z, z, z],
        [z, one, 2 * u, 2 * v],
        [one, z, z, z],
    ])
    letters = {"u": u, "v": v, "w": w}
    nil_grid = [[z] * 4 for _ in range(4)]
    for (i, j), (coeff, word) in _NIL_BLOCKS.items():
        block = functools.reduce(operator.matmul, (letters[c] for c in word))
        nil_grid[i - 1][j - 1] = coeff * block
    nil = block4(nil_grid)
    return HalmosPair(a=a, b=b, nilpotent=nil, eps_symbolic=False)


def halmos_pair_scaled() -> HalmosPair:
    """The eps-scaled family: each member conjugated by diag(e^3,e^2,e,1).

    Scaling is carried symbolically, so the commutator identity holds as an
    exact polynomial identity in eps.  For every eps in (0, 1] the members
    a and b stay entrywise nonnegative; compression norms scale like
    eps**-3 for a and b and like eps for the nilpotent part.
    """
    base = halmos_pair()
    return HalmosPair(
        a=conjugate_by_block_scaling(base.a),
        b=conjugate_by_block_scaling(base.b),
        nilpotent=conjugate_by_block_scaling(base.nilpotent),
        eps_symbolic=True,
    )


def halmos_nilpotent_majorant(eps: float) -> np.ndarray:
    """4x4 matrix of the exact block norms of the scaled nilpotent part.

    Block (i, j) of the scaled nilpotent operator is a scalar times a
    composition of isometries and the pair swap; its norm is exactly
    |coefficient| * eps**(j - i).  The spectral norm of this matrix is a
    certified upper bound for the operator's norm.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    out = np.zeros((4, 4))
    for (i, j), (coeff, _) in _NIL_BLOCKS.items():
        out[i - 1, j - 1] = abs(coeff) * eps ** (j - i)
    return out


def self_commutator_isometry() -> tuple[LazyOp, LazyOp]:
    """A positive isometry whose self-commutator is a projection.

    Returns (t, c) with c = t*t - tt*, the diagonal projection onto the
    odd-indexed basis vectors (diagonal 1, 0, 1, 0, ...).
    """
    t = even_isometry()
    ts = t.adjoint()
    return t, ts @ t - t @ ts


def _support_cycle(c: np.ndarray) -> list[int]:
    """One directed cycle of the support digraph, as 1-based indices.

    Every index the topological sort leaves unplaced has an unplaced
    predecessor, so walking back along the lowest such predecessor from the
    lowest unplaced index must revisit an index; the walk reversed from the
    first visit of that index is a cycle.
    """
    support = c > 0.0
    unplaced = np.ones(c.shape[0], dtype=bool)
    unplaced[_topological_order(support)] = False
    walk: dict[int, int] = {}  # index -> step at which the walk reached it
    j = int(np.argmax(unplaced))
    while j not in walk:
        walk[j] = len(walk)
        j = int(np.argmax(support[:, j] & unplaced))
    return [k + 1 for k in [j, *reversed(list(walk)[walk[j]:])]]


def _nonnegative_square(c) -> np.ndarray:
    """The shared input check of the factorizations."""
    c = as_matrix(c)
    _require_square(c)
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
        mag, scale = np.abs(b), np.abs(d)
        largest = np.concatenate([scale * mag.max(axis=1), mag.max(axis=0) * scale])
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
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    order = permutation_triangularization(c)
    if order is None:
        path = "->".join(map(str, _support_cycle(c)))
        raise ValueError(f"matrix is not nilpotent: support cycle {path}")
    n = c.shape[0]
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
