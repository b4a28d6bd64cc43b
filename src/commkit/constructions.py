"""Explicit witnesses: operator pairs with [A,B] = I + nilpotent, and
finite-dimensional commutator factorizations of positive matrices."""

from __future__ import annotations

import math
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


# Scalar coefficients of the nilpotent part's blocks, keyed by (row, col).
# Every block is this coefficient times a composition of isometries and the
# pair swap, so its operator norm is exactly |coefficient|.
_NIL_BLOCK_COEFFS = {(1, 3): -2, (1, 4): -4, (2, 3): 2, (2, 4): 2, (3, 4): -4}


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
    nil = block4([
        [z, z, -2 * w, -4 * (v @ w)],
        [z, z, 2 * u, 2 * v],
        [z, z, z, -4 * (u @ w)],
        [z, z, z, z],
    ])
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
    for (i, j), coeff in _NIL_BLOCK_COEFFS.items():
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

    Depth-first search with an explicit stack, so supports with cycles of
    any length are handled without recursion.
    """
    n = c.shape[0]
    support = c > 0.0
    color = [0] * n  # 0 unvisited, 1 on path, 2 done
    for start in range(n):
        if color[start] != 0:
            continue
        color[start] = 1
        path = [start]
        successors = [iter(np.nonzero(support[start])[0].tolist())]
        while path:
            j = next(successors[-1], None)
            if j is None:
                color[path.pop()] = 2
                successors.pop()
            elif color[j] == 1:
                return [k + 1 for k in path[path.index(j):] + [j]]
            elif color[j] == 0:
                color[j] = 1
                path.append(j)
                successors.append(iter(np.nonzero(support[j])[0].tolist()))
    raise AssertionError("no cycle found in a non-triangularizable support")


def nilpotent_commutator_factors(c, eps: float) -> FactorPair:
    """Factor a nonnegative nilpotent C as AB - BA with BA <= eps * C.

    A is diagonal with entries ((1+eps)/eps)**(k-1) along the
    triangularized order; B carries c_ij / (a_ii - a_jj) below the
    triangularized diagonal.  The input is first permuted so its support is
    strictly lower-triangular and the factors are conjugated back, so any
    nonnegative nilpotent matrix is accepted.
    """
    c = as_matrix(c)
    if c.shape[0] != c.shape[1]:
        raise ValueError("matrix must be square")
    if float(c.min()) < 0.0:
        raise ValueError("matrix must be entrywise nonnegative")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    order = permutation_triangularization(c)
    if order is None:
        cycle = _support_cycle(c)
        path = "->".join(str(k) for k in cycle)
        raise ValueError(f"matrix is not nilpotent: support cycle {path}")
    n = c.shape[0]
    ratio = (1.0 + eps) / eps
    if (n - 1) * math.log10(ratio) > 300.0:
        raise DynamicRangeError(
            f"diagonal range ((1+eps)/eps)**{n - 1} overflows double precision "
            f"for eps={eps}, n={n}"
        )
    # Reverse the upper-triangular order: strictly lower support.
    perm = order[::-1]
    ct = c[np.ix_(perm, perm)]
    diag = ratio ** np.arange(n, dtype=float)
    bt = np.zeros_like(ct)
    lower = np.tril_indices(n, k=-1)
    denom = diag[lower[0]] - diag[lower[1]]
    bt[lower] = ct[lower] / denom
    a = np.zeros((n, n))
    a[perm, perm] = diag
    b = np.zeros((n, n))
    b[np.ix_(perm, perm)] = bt
    return FactorPair(a=a, b=b)


def trace_zero_commutator_factors(c) -> FactorPair:
    """Factor a nonnegative trace-zero C as AB - BA with A = diag(1..n).

    A nonnegative matrix with zero trace has zero diagonal, so the divisor
    i - j in b_ij = c_ij / (i - j) is never zero where c_ij > 0.  B has a
    zero diagonal and in general carries negative entries above the
    diagonal.
    """
    c = as_matrix(c)
    if c.shape[0] != c.shape[1]:
        raise ValueError("matrix must be square")
    if float(c.min()) < 0.0:
        raise ValueError("matrix must be entrywise nonnegative")
    n = c.shape[0]
    if abs(float(np.trace(c))) > 1e-12:
        raise ValueError(f"trace must vanish (within 1e-12), got {float(np.trace(c))}")
    a = np.diag(np.arange(1, n + 1, dtype=float))
    idx = np.arange(n, dtype=float)
    offset = idx[:, None] - idx[None, :]
    np.fill_diagonal(offset, 1.0)
    b = c / offset
    np.fill_diagonal(b, 0.0)
    return FactorPair(a=a, b=b)
