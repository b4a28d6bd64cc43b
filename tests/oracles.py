"""Independent references that tests compare the library against."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from fractions import Fraction
from pathlib import Path

import numpy as np

from commkit.constructions import _BLOCKS, HalmosPair
from commkit.lazyops import block4, even_isometry, identity_op, odd_isometry, pair_swap, zero_op
from commkit.matrices import _square_inputs, matrix_from_json_dict


def nilpotency_index(a, tol: float | None = None) -> int | None:
    """Smallest k <= n with |A^k|_max below threshold, or None.

    With tol=None the threshold at power k is 1e-9 * (1 + |A|_max)^k,
    scaling with the worst-case growth of the products; an explicit tol is
    used as a flat threshold.  A power that is exactly zero always counts.
    """
    (a,) = _square_inputs(a)
    n = a.shape[0]
    scale = 1.0 + float(np.abs(a).max())
    power = np.identity(n)
    for k in range(1, n + 1):
        power = power @ a
        threshold = tol if tol is not None else 1e-9 * scale**k
        entry_max = float(np.abs(power).max()) if np.isfinite(power).all() else math.inf
        if entry_max == 0.0 or (math.isfinite(threshold) and entry_max <= threshold):
            return k
    return None


def dense_factor_products(c, pair) -> tuple[float, np.ndarray]:
    """max |AB - BA - C| and BA for a FactorPair, both from the dense products with A."""
    residual = pair.a @ pair.b - pair.b @ pair.a - c
    return float(np.abs(residual).max()), pair.b @ pair.a


def unscaled_halmos_pair() -> HalmosPair:
    """The pair of _BLOCKS with each block its bare integer coefficient times its word.

    No block carries a power of eps, so this is the eps = 1 member of
    halmos_pair_scaled() built without a single monomial.
    """
    u, v, w, one = even_isometry(), odd_isometry(), pair_swap(), identity_op()
    letters = {"u": u, "v": v, "U": u.adjoint(), "V": v.adjoint(), "w": w, "1": one}
    ops = {}
    for name, blocks in _BLOCKS.items():
        grid = [[zero_op()] * 4 for _ in range(4)]
        for (i, j), (coeff, word) in blocks.items():
            block = functools.reduce(operator.matmul, (letters[c] for c in word))
            grid[i - 1][j - 1] = block if coeff == 1 else coeff * block
        ops[name] = block4(grid)
    return HalmosPair(**ops)


def delta_threshold(norm_a: float, norm_b: float, alpha: float = 1.0) -> float:
    """The exclusion radius (1/alpha) * exp(-2 * alpha * norm_a * norm_b).

    No perturbation x with |x| below it can satisfy [a,b] >= e + x, so
    popa_bound must fail for every eps strictly below the returned value.
    """
    return math.exp(-2.0 * alpha * norm_a * norm_b) / alpha


def matrix_to_json_dict(a) -> dict:
    """The dense matrix form {"rows", "cols", "data"}, whose values the writer must write."""
    a = np.asarray(a, dtype=float)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": a.ravel().tolist()}


def strict_json_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def values_digest(path) -> str:
    """sha256 over the matrices of a written file, in file order: each key, shape and
    entries as int64, from strict json.loads of the text.  It pins values, not bytes."""
    digest = hashlib.sha256()
    for key, value in strict_json_loads(Path(path).read_text(encoding="utf-8")).items():
        if isinstance(value, dict):
            digest.update(f"{key}:{value['rows']}x{value['cols']}:".encode())
            digest.update(np.array(value["data"], dtype="<f8").view("<i8").tobytes())
    return digest.hexdigest()


def float_bits(value):
    """value with each float, in dicts and lists at any depth, replaced by its
    int64 view, so that == compares bits: -0.0 differs from 0.0."""
    if isinstance(value, dict):
        return {k: float_bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [float_bits(v) for v in value]
    if type(value) is float:
        return ("float", int(np.float64(value).view(np.int64)))
    return value


def json_matrix(text: str) -> np.ndarray:
    """The matrix that json.loads and matrix_from_json_dict read from a JSON text."""
    return matrix_from_json_dict(json.loads(text))


# -- exact spectral norms ----------------------------------------------------
# A float is a dyadic rational, so Fraction(x) is exact, and so are the Gram
# matrix of a block and its characteristic polynomial.  No rounding enters.


def gram_charpoly(a) -> list[Fraction]:
    """Coefficients, lowest degree first, of det(t I - G), G the exact Gram
    matrix of the 2-D float array a on its smaller side; its roots are the
    squared singular values of a.  Faddeev-LeVerrier: M_k = G M_(k-1) + c I,
    and the next coefficient is -tr(G M_k) / k."""
    a = np.asarray(a, dtype=float)
    cols = [[Fraction(float(x)) for x in col] for col in (a if a.shape[0] < a.shape[1] else a.T)]
    n = len(cols)
    gram = [[sum(x * y for x, y in zip(cols[i], cols[j])) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]  # highest degree first while building
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(gram[i][r] * m[r][j] for r in range(n)) + (coeffs[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        trace = sum(gram[i][r] * m[r][i] for i in range(n) for r in range(n))
        coeffs.append(-trace / k)
    return coeffs[::-1]


def at_or_above_top_root(poly: list[Fraction], t: Fraction) -> bool:
    """Whether t >= the largest root of the real-rooted poly (lowest degree first).

    Such a polynomial and all its derivatives have their roots at or below
    its largest root and a positive leading coefficient, so all are >= 0 at
    t >= that root.  Below it, Budan-Fourier (exact for real roots) counts a
    root above t, so some derivative is negative at t.
    """
    while poly:
        if _value(poly, t) < 0:
            return False
        poly = [k * c for k, c in enumerate(poly)][1:]
    return True


def bracket_contains_norm(a, lower: float, upper: float) -> bool:
    """Whether lower <= |a| <= upper exactly, |.| the spectral norm of the float array a."""
    poly = gram_charpoly(a)
    lo2, hi2 = Fraction(lower) ** 2, Fraction(upper) ** 2
    lower_ok = not at_or_above_top_root(poly, lo2) or _value(poly, lo2) == 0
    return lower_ok and at_or_above_top_root(poly, hi2)


def _value(poly: list[Fraction], t: Fraction) -> Fraction:
    return sum(c * t**k for k, c in enumerate(poly))


# -- support components --------------------------------------------------------


def support_components(support) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, row_label, col_label): the connected components of a bipartite support.

    support is a 2-D boolean array: rows i and columns j are the nodes, and
    every True support[i, j] is an edge.  Plain union-find in Python, with
    no numpy beyond listing the edges.  Labels count 0..count-1 in the order
    of each component's least row; a row or column with no edge gets -1.
    """
    m, n = np.shape(support)
    parent = list(range(m + n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    live = [False] * (m + n)
    for i, j in zip(*(k.tolist() for k in np.nonzero(support))):
        live[i] = live[m + j] = True
        ri, rj = root(i), root(m + j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    label_of: dict[int, int] = {}
    for i in range(m):  # every component with an edge holds a row
        if live[i]:
            label_of.setdefault(root(i), len(label_of))
    labels = [label_of[root(x)] if live[x] else -1 for x in range(m + n)]
    return len(label_of), np.array(labels[:m], dtype=np.intp), np.array(labels[m:], dtype=np.intp)
