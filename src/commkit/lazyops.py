"""Exact lazy operators on the sequence space l2.

Operators are immutable expression trees over one kind of atom, the
partial affine index map n -> (mul*n + shift)/div, defined where div divides
mul*n + shift.  The positive isometries n -> 2n and n -> 2n - 1 spread the
basis onto even and odd indices, their adjoints are the inverse maps, and
the identity is n -> n; zero is the empty linear combination.
Combinators: linear combinations (one node holding (scalar, operator) terms,
built by +, -, negation and scaling by an integer or EpsScalar), composition
(@), adjoint and 4x4 block assembly; constructions puts the eps**(j - i)
factors of the scaled family on the blocks of the grids it assembles.

Basis indices are 1-based throughout.  A column is a dict from basis index
to EpsScalar; absent keys are zero.  apply() is exact integer/EpsScalar
arithmetic; a numeric eps enters only in the finite sections, whose
entries _section_entries lists from the residue-class columns described
below: compress() scatters them into a dense array, and a norm certificate
reads the list itself.

The 4x4 block space interleaves the four summands: slot s in {1,2,3,4} with
internal index n sits at global index 4*(n-1) + s, so every finite window
of global indices samples all four slots.

apply() computes every column afresh and returns a new dict; nodes hold no
cache and are never mutated, so trees may be shared freely between threads.

Every atom maps a basis index affinely, so apply() also takes a symbolic
index alpha*t + beta with t >= 0 free (the private _Affine) and returns the
column for every t at once, keyed by affine indices.  _residue_columns
evaluates a tree on the residue classes g = M*t + r, r = 1..M, of the least
power of two M at which every floor division in it is exact; a column that
comes out empty there vanishes for every g in its class.
"""

from __future__ import annotations

import numpy as np

from .scalars import EpsScalar, _integer, _real

__all__ = [
    "Column",
    "LazyOp",
    "block4",
    "compress",
    "even_isometry",
    "identity_op",
    "odd_isometry",
    "pair_swap",
    "zero_op",
]

Column = dict[int, EpsScalar]

_ONE = EpsScalar.one()


class _Refine(Exception):
    """A floor division met an _Affine whose slope the divisor does not divide."""


class _Affine:
    """The basis index alpha*t + beta for every t >= 0, with integer slope alpha >= 1.

    It stands in for an int in the _column methods: + and * by ints stay
    affine, and divmod by d is exact for every t when d divides alpha.
    Otherwise it raises _Refine, and the caller retries on a finer residue
    modulus.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        self.alpha = alpha
        self.beta = beta

    def __add__(self, other: int) -> "_Affine":
        return _Affine(self.alpha, self.beta + other)

    def __mul__(self, other: int) -> "_Affine":
        return _Affine(self.alpha * other, self.beta * other)

    __rmul__ = __mul__

    def __divmod__(self, d: int) -> tuple["_Affine", int]:
        if self.alpha % d:
            raise _Refine
        quotient, rest = divmod(self.beta, d)
        return _Affine(self.alpha // d, quotient), rest

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Affine):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta))

    def __repr__(self) -> str:
        return f"{self.alpha}t+{self.beta}"


def _merge_into(acc: Column, col: Column, factor: EpsScalar = _ONE) -> None:
    for idx, value in col.items():
        # Every atom column carries the unit singleton; multiplying by it only copies.
        if factor is _ONE:
            term = value
        else:
            term = factor if value is _ONE else factor * value
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

    __slots__ = ()

    def apply(self, n: int) -> Column:
        """Exact column of the operator at basis index n >= 1, or at an _Affine index."""
        if (not isinstance(n, int) or n < 1) and not isinstance(n, _Affine):
            raise ValueError(f"basis index must be a positive integer, got {n!r}")
        return self._column(n)

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
        return _Linear(((_ONE, self), (_ONE, other)))

    def __sub__(self, other: "LazyOp") -> "LazyOp":
        if not isinstance(other, LazyOp):
            return NotImplemented
        return _Linear(((_ONE, self), (_MINUS_ONE, other)))

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


class _Atom(LazyOp):
    """The partial index map n -> (mul*n + shift)/div, zero where div does not divide."""

    __slots__ = ("mul", "div", "shift")

    def __init__(self, mul: int, div: int, shift: int):
        self.mul = mul
        self.div = div
        self.shift = shift

    def _column(self, n: int) -> Column:
        image, rest = divmod(self.mul * n + self.shift, self.div)
        return {} if rest else {image: _ONE}

    def adjoint(self) -> LazyOp:
        return _Atom(self.div, self.mul, -self.shift)


class _Linear(LazyOp):
    """The linear combination sum(scalar * op) over its (scalar, op) terms.

    A term whose scalar is the _ONE singleton skips the multiplication; the
    empty combination is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[EpsScalar, LazyOp], ...]):
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
        self.grid = grid

    def _column(self, g: int) -> Column:
        inner, slot = divmod(g + 3, 4)
        out: Column = {}
        for row in range(4):
            col = self.grid[row][slot].apply(inner)
            embedded = {4 * m + (row - 3): v for m, v in col.items()}
            _merge_into(out, embedded)
        return out

    def adjoint(self) -> LazyOp:
        transposed = tuple(
            tuple(self.grid[col][row].adjoint() for col in range(4)) for row in range(4)
        )
        return _Block4(transposed)


_MINUS_ONE = EpsScalar.integer(-1)
_EVEN = _Atom(2, 1, 0)
_ODD = _Atom(2, 1, -1)
_IDENTITY = _Atom(1, 1, 0)
_ZERO = _Linear(())


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


_NO_INDEX = np.zeros(0, dtype=np.intp)

# Largest residue modulus _residue_columns tries; each nested atom with div 2
# can double the modulus a tree needs, and the halmos pairs need 8.
_MAX_RESIDUE_MODULUS = 4096


def _residue_columns(
    op: LazyOp, max_modulus: int = _MAX_RESIDUE_MODULUS
) -> tuple[int, list[Column]]:
    """(M, columns): op at the symbolic index M*t + r for r = 1..M, in order.

    M is the least power of two at which no floor division in the tree
    refines.  Every basis index g >= 1 lies in exactly one class.  Raises
    ValueError when the tree needs a modulus above max_modulus.
    """
    modulus = 1
    while modulus <= max_modulus:
        try:
            return modulus, [op.apply(_Affine(modulus, r)) for r in range(1, modulus + 1)]
        except _Refine:
            modulus *= 2
    raise ValueError(f"operator needs a residue modulus above {max_modulus}")


def _coincidences(column: Column) -> set[int]:
    """The t >= 0 at which two labels of a symbolic column name the same index.

    Labels of equal slope never meet; two of unequal slope meet at one t at
    most.  There the entry is the exact sum of both coefficients, possibly
    zero, where a scatter of the labels would keep only one of them.
    """
    labels = list(column)
    hits = set()
    for k, p in enumerate(labels):
        for q in labels[:k]:
            if p.alpha != q.alpha:
                t, rest = divmod(q.beta - p.beta, p.alpha - q.alpha)
                if not rest and t >= 0:
                    hits.add(t)
    return hits


def _section_entries(
    op: LazyOp, m: int, grid: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (rows, cols, values) of the m x m section at each eps of grid, 0-based.

    Class r of modulus M lists the columns j = M*t + r, and each label
    alpha*t + beta the rows alpha*t + beta.  Columns where two labels
    coincide are evaluated concretely in place of their labels.  A tree that
    needs a modulus of m or more has one column per class, and its columns
    1..m are evaluated concretely instead.  The positions come from the
    labels and the coincidences alone, so they are those of every eps:
    values has one row per eps of grid and one column per position, and
    each coefficient is evaluated once per eps, eps by eps in grid order.
    No position is listed twice and every position not listed is +0.0; a
    coefficient that evaluates to zero stays listed, with its sign.
    """
    # Coefficient k is repeated counts[k] times: once per listed position of a label.
    rows, cols, coefficients, counts = [_NO_INDEX], [_NO_INDEX], [], []

    def put_column(g: int) -> None:
        col = {i - 1: value for i, value in op.apply(g).items() if i <= m}
        rows.append(np.fromiter(col, dtype=np.intp, count=len(col)))
        cols.append(np.full(len(col), g - 1))
        coefficients.extend(col.values())
        counts.extend([1] * len(col))

    try:
        modulus, classes = _residue_columns(op, min(m - 1, _MAX_RESIDUE_MODULUS))
    except ValueError:
        classes = []
        for g in range(1, m + 1):
            put_column(g)
    for r, column in enumerate(classes, start=1):
        class_cols = np.arange(r - 1, m, modulus)  # column M*t + r at position t
        # Away from the coincidences the labels of a column name distinct rows.
        hits = sorted(hit for hit in _coincidences(column) if hit < class_cols.size)
        for label, value in column.items():
            # Rows alpha*t + beta with beta >= 1 increase with t; count those <= m.
            inside = min(class_cols.size, max((m - label.beta) // label.alpha + 1, 0))
            label_rows = np.arange(label.beta - 1, label.beta - 1 + label.alpha * inside, label.alpha)
            label_cols = class_cols[:inside]
            if hits:
                drop = [hit for hit in hits if hit < inside]
                label_rows, label_cols = np.delete(label_rows, drop), np.delete(label_cols, drop)
            rows.append(label_rows)
            cols.append(label_cols)
            coefficients.append(value)
            counts.append(label_rows.size)
        for hit in hits:
            put_column(modulus * hit + r)
    values = np.array([[c.evaluate(eps) for c in coefficients] for eps in grid], dtype=float)
    return (np.concatenate(rows), np.concatenate(cols),
            np.repeat(values.reshape(len(grid), len(coefficients)), counts, axis=1))


def compress(op: LazyOp, m: int, eps: float) -> np.ndarray:
    """The leading m x m corner of the operator, evaluated at eps in (0, 1].

    This is the two-sided finite section: entry (i, j) is the coefficient of
    basis vector i in the column at j, for i, j <= m.  Its spectral norm
    never exceeds the operator's.

    The section is the scatter of the entries _section_entries lists from
    the residue classes of _residue_columns, on the one-point grid [eps]; a
    caller that needs only the nonzero entries, such as a norm certificate,
    takes that list instead, for every eps of its grid at once.
    """
    m = _integer("m", m, 1)
    eps = _real("eps", eps, 0, 1, low_open=True)  # the scaled family is defined on (0, 1]
    if not isinstance(op, LazyOp):
        raise TypeError("op must be a LazyOp")
    rows, cols, values = _section_entries(op, m, [eps])
    out = np.zeros((m, m))
    out[rows, cols] = values[0]
    return out
