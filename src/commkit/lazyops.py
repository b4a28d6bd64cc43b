"""Exact lazy operators on the sequence space l2.

Operators are immutable expression trees over four kinds of atom: the
positive isometries n -> 2n - parity (parity 0 spreads the basis onto even
indices, parity 1 onto odd ones), their adjoints, the identity and zero.
Combinators: linear combinations (one node holding (scalar, operator) terms,
built by +, -, negation and scaling by an integer or EpsScalar), composition
(@), adjoint, 4x4 block assembly and conjugation by the block scaling
diag(e^3, e^2, e^1, 1).

Basis indices are 1-based throughout.  A column is a dict from basis index
to EpsScalar; absent keys are zero.  apply() is exact integer/EpsScalar
arithmetic; a numeric eps enters only in compress().

The 4x4 block space interleaves the four summands: slot s in {1,2,3,4} with
internal index n sits at global index 4*(n-1) + s, so every finite window
of global indices samples all four slots.

Columns are memoized per (node, basis index); trees may be shared freely
between threads since nodes are never mutated after construction.
"""

from __future__ import annotations

import numpy as np

from .scalars import EpsScalar

__all__ = [
    "Column",
    "LazyOp",
    "block4",
    "compress",
    "conjugate_by_block_scaling",
    "even_isometry",
    "identity_op",
    "odd_isometry",
    "pair_swap",
    "zero_op",
]

Column = dict[int, EpsScalar]

_ONE = EpsScalar.one()


def _merge_into(acc: Column, col: Column, factor: EpsScalar | None = None) -> None:
    for idx, value in col.items():
        term = value if factor is None else factor * value
        if term.is_zero:
            continue
        current = acc.get(idx)
        total = term if current is None else current + term
        if total.is_zero:
            acc.pop(idx, None)
        else:
            acc[idx] = total


class LazyOp:
    """Base class for lazy operator expression trees."""

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: dict[int, Column] = {}

    def apply(self, n: int) -> Column:
        """Exact column of the operator at basis index n >= 1."""
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"basis index must be a positive integer, got {n!r}")
        cached = self._cache.get(n)
        if cached is None:
            cached = self._column(n)
            self._cache[n] = cached
        return dict(cached)

    def _column(self, n: int) -> Column:
        raise NotImplementedError

    def adjoint(self) -> "LazyOp":
        raise NotImplementedError

    # -- combinator sugar --------------------------------------------------
    # Scalars are never multiplied here, so coefficient overflow surfaces in
    # apply(), where the arithmetic happens.

    def __add__(self, other: "LazyOp") -> "LazyOp":
        if not isinstance(other, LazyOp):
            return NotImplemented
        return _Linear(((None, self), (None, other)))

    def __sub__(self, other: "LazyOp") -> "LazyOp":
        if not isinstance(other, LazyOp):
            return NotImplemented
        return _Linear(((None, self), (_MINUS_ONE, other)))

    def __neg__(self) -> "LazyOp":
        return _Linear(((_MINUS_ONE, self),))

    def __mul__(self, scalar) -> "LazyOp":
        s = EpsScalar._coerce(scalar)
        if s is None:
            return NotImplemented
        return _Linear(((s, self),))

    __rmul__ = __mul__

    def __matmul__(self, other: "LazyOp") -> "LazyOp":
        if not isinstance(other, LazyOp):
            return NotImplemented
        return _Composition(self, other)


class _Isometry(LazyOp):
    """The positive isometry sending basis vector n to 2n - parity."""

    __slots__ = ("parity", "_adjoint")

    def __init__(self, parity: int):
        super().__init__()
        self.parity = parity
        self._adjoint = _IsometryAdjoint(self)

    def _column(self, n: int) -> Column:
        return {2 * n - self.parity: _ONE}

    def adjoint(self) -> LazyOp:
        return self._adjoint


class _IsometryAdjoint(LazyOp):
    """Adjoint of an _Isometry: 2n - parity -> n, other indices -> 0."""

    __slots__ = ("isometry",)

    def __init__(self, isometry: _Isometry):
        super().__init__()
        self.isometry = isometry

    def _column(self, n: int) -> Column:
        half, rest = divmod(n + self.isometry.parity, 2)
        return {} if rest else {half: _ONE}

    def adjoint(self) -> LazyOp:
        return self.isometry


class _Identity(LazyOp):
    __slots__ = ()

    def _column(self, n: int) -> Column:
        return {n: _ONE}

    def adjoint(self) -> LazyOp:
        return self


class _Zero(LazyOp):
    __slots__ = ()

    def _column(self, n: int) -> Column:
        return {}

    def adjoint(self) -> LazyOp:
        return self


class _Linear(LazyOp):
    """The linear combination sum(scalar * op) over its (scalar, op) terms.

    A None scalar stands for 1 and skips the multiplication.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[EpsScalar | None, LazyOp], ...]):
        super().__init__()
        self.terms = terms

    def _column(self, n: int) -> Column:
        out: Column = {}
        for scalar, op in self.terms:
            _merge_into(out, op.apply(n), scalar)
        return out

    def adjoint(self) -> LazyOp:
        return _Linear(tuple((s, op.adjoint()) for s, op in self.terms))


class _Composition(LazyOp):
    __slots__ = ("outer", "inner")

    def __init__(self, outer: LazyOp, inner: LazyOp):
        super().__init__()
        self.outer = outer
        self.inner = inner

    def _column(self, n: int) -> Column:
        out: Column = {}
        for idx, value in self.inner.apply(n).items():
            _merge_into(out, self.outer.apply(idx), value)
        return out

    def adjoint(self) -> LazyOp:
        return _Composition(self.inner.adjoint(), self.outer.adjoint())


class _Block4(LazyOp):
    __slots__ = ("grid",)

    def __init__(self, grid: tuple[tuple[LazyOp, ...], ...]):
        super().__init__()
        self.grid = grid

    def _column(self, g: int) -> Column:
        slot = (g - 1) % 4
        inner_index = (g - 1) // 4 + 1
        out: Column = {}
        for row in range(4):
            col = self.grid[row][slot].apply(inner_index)
            embedded = {4 * (m - 1) + row + 1: v for m, v in col.items()}
            _merge_into(out, embedded)
        return out

    def adjoint(self) -> LazyOp:
        transposed = tuple(
            tuple(self.grid[col][row].adjoint() for col in range(4)) for row in range(4)
        )
        return _Block4(transposed)


_MINUS_ONE = EpsScalar.integer(-1)
_EVEN = _Isometry(0)
_ODD = _Isometry(1)
_IDENTITY = _Identity()
_ZERO = _Zero()


def even_isometry() -> LazyOp:
    """The positive isometry mapping basis vector n to 2n."""
    return _EVEN


def odd_isometry() -> LazyOp:
    """The positive isometry mapping basis vector n to 2n-1."""
    return _ODD


def pair_swap() -> LazyOp:
    """The involution exchanging basis vectors 2n-1 and 2n.

    Built as (even)(odd)* + (odd)(even)*, which evaluates to the swap.
    """
    return _EVEN @ _ODD.adjoint() + _ODD @ _EVEN.adjoint()


def identity_op() -> LazyOp:
    return _IDENTITY


def zero_op() -> LazyOp:
    return _ZERO


def block4(grid) -> LazyOp:
    """Assemble a 4x4 grid of lazy operators into one operator.

    Row i, column j of the grid maps slot-j vectors into slot i; slots are
    interleaved into global indices as documented in the module docstring.
    """
    rows = tuple(tuple(row) for row in grid)
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("grid must be 4x4")
    for row in rows:
        for op in row:
            if not isinstance(op, LazyOp):
                raise TypeError(f"grid entries must be LazyOp, got {type(op).__name__}")
    return _Block4(rows)


def conjugate_by_block_scaling(op: LazyOp) -> LazyOp:
    """Conjugate a block-structured operator by diag(e^3 I, e^2 I, e I, I).

    Block (i, j) gains the exact factor eps**(j - i): the monomial joins the
    scalars of the block's terms (a unit monomial cannot change any
    coefficient's size), and zero blocks stay zero.  The input must be
    built from block4 assemblies (combined by linear combinations and
    compositions); identity and zero commute with the scaling and pass
    through.  Raises ValueError for operators without slot structure.
    """
    if isinstance(op, _Block4):
        return _Block4(tuple(
            tuple(_times_monomial(op.grid[i][j], j - i) for j in range(4)) for i in range(4)
        ))
    if isinstance(op, _Linear):
        return _Linear(tuple((s, conjugate_by_block_scaling(p)) for s, p in op.terms))
    if isinstance(op, _Composition):
        return _Composition(
            conjugate_by_block_scaling(op.outer), conjugate_by_block_scaling(op.inner)
        )
    if isinstance(op, (_Identity, _Zero)):
        return op
    raise ValueError("operator has no 4x4 slot structure to conjugate")


def _times_monomial(op: LazyOp, power: int) -> LazyOp:
    """eps**power * op, folding the monomial into the scalars of a _Linear."""
    if power == 0 or op is _ZERO:
        return op
    mono = EpsScalar.monomial(1, power)
    if isinstance(op, _Linear):
        return _Linear(tuple((mono if s is None else s * mono, p) for s, p in op.terms))
    return _Linear(((mono, op),))


def compress(op: LazyOp, m: int, eps: float) -> np.ndarray:
    """The leading m x m corner of the operator, evaluated at eps in (0, 1].

    This is the two-sided finite section: entry (i, j) is the coefficient of
    basis vector i in the column at j, for i, j <= m.  Its spectral norm
    never exceeds the operator's.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("window size must be a positive integer")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if not isinstance(op, LazyOp):
        raise TypeError("op must be a LazyOp")
    out = np.zeros((m, m))
    for j in range(1, m + 1):
        for i, value in op.apply(j).items():
            if i <= m:
                out[i - 1, j - 1] = value.evaluate(eps)
    return out
