"""Dense real matrix core: entrywise order, spectral quantities, file formats.

Matrices are validated 2-D float64 numpy arrays.  Witness coordinates in
verdicts are 1-based (row, col), matching the 1-based basis indexing used
by the operator engine.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .verdict import Verdict

__all__ = [
    "DynamicRangeError",
    "NormCertificate",
    "UnconvergedError",
    "as_matrix",
    "commutator",
    "entrywise_leq",
    "identity",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "max_abs",
    "nilpotency_index",
    "operator_norm",
    "permutation_triangularization",
    "read_matrix",
    "trace",
    "write_matrix",
]


class UnconvergedError(RuntimeError):
    """A bound could not be certified to the requested tolerance.

    Carries the best data available at the point of failure so callers can
    still report something useful.
    """

    def __init__(self, message: str, **data):
        super().__init__(message)
        self.data = data


class DynamicRangeError(ValueError):
    """Requested parameters would overflow double precision."""


def as_matrix(values) -> np.ndarray:
    """Validate and copy input into a 2-D float64 array.

    Rejects empty matrices and non-finite entries.
    """
    return _checked(np.array(values, dtype=float))


def _checked(a: np.ndarray) -> np.ndarray:
    """The float64 array a as a validated matrix; a 1-D a becomes one row."""
    if a.ndim == 1 and a.size > 0:
        a = a.reshape(1, -1)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("matrix must be two-dimensional and nonempty")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def _square_inputs(*values) -> tuple[np.ndarray, ...]:
    """as_matrix of each value: the first square, the rest of its shape."""
    first, *rest = matrices = [as_matrix(v) for v in values]
    if first.shape[0] != first.shape[1]:
        raise ValueError(f"matrix must be square, got shape {first.shape}")
    for other in rest:
        _require_same_shape(first, other)
    return tuple(matrices)


def identity(n: int) -> np.ndarray:
    if not isinstance(n, int) or n < 1:
        raise ValueError("size must be a positive integer")
    return np.identity(n)


def commutator(a, b) -> np.ndarray:
    """AB - BA for square matrices of equal size."""
    a, b = _square_inputs(a, b)
    return a @ b - b @ a


def trace(a) -> float:
    (a,) = _square_inputs(a)
    return float(np.trace(a))


def max_abs(a) -> float:
    """Largest absolute entry (the max-entry norm)."""
    return float(np.abs(as_matrix(a)).max())


def entrywise_leq(a, b, tol: float = 0.0) -> Verdict:
    """Check a <= b entrywise, allowing entries of b - a down to -tol.

    On failure the witness carries the 1-based coordinates of the most
    negative entry of b - a and its value.  The margin is the minimum entry
    of b - a (so >= -tol means pass).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    _require_same_shape(a, b)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    diff = b - a
    flat_idx = int(diff.argmin())
    i, j = np.unravel_index(flat_idx, diff.shape)
    worst = float(diff[i, j])
    passed = worst >= -tol
    witness = None
    if not passed:
        witness = {"row": int(i) + 1, "col": int(j) + 1, "value": worst}
    return Verdict(
        passed=passed,
        claim="entrywise-leq",
        witness=witness,
        margin=worst,
        inputs={"shape": list(a.shape), "tol": tol},
    )


@dataclass(frozen=True)
class NormCertificate:
    """A certified bracket [lower, upper] for the spectral norm.

    lower_method is one of {"eigenvector", "column-norm", "exact"} and
    upper_method one of {"weyl-enclosure", "norm-cap", "exact"}, recording
    which bound of operator_norm certified each side ("exact" only for the
    zero matrix).  components is the number of connected components of the
    row/column support the bracket was assembled from: 1 for the zero
    matrix and for a connected support, which is certified whole.
    """

    lower: float
    upper: float
    lower_method: str
    upper_method: str
    components: int = 1

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError(f"invalid bracket [{self.lower}, {self.upper}]")


_U = 2.0**-53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error of k chained roundings."""
    return k * _U / (1.0 - k * _U)


def _up(x: float, k: int) -> float:
    """Upper bound on a nonnegative quantity that x computes with k roundings.

    The true value is at most x / (1 - gamma_k) <= x (1 + gamma_(k+1)); the
    factor 2 and nextafter absorb the roundings of this expression itself.
    """
    return math.nextafter(x * (1.0 + 2.0 * _gamma(k + 1)), math.inf)


def _down(x: float, k: int) -> float:
    """Lower bound on a nonnegative quantity that x computes with k roundings.

    The true value is at least x / (1 + gamma_k) >= x (1 - gamma_k).
    """
    return max(math.nextafter(x * (1.0 - 2.0 * _gamma(k)), 0.0), 0.0)


def operator_norm(a, rel_tol: float = 1e-10) -> NormCertificate:
    """Bracket the spectral norm with (upper - lower) / upper <= rel_tol.

    A is split along the connected components of its bipartite support
    graph: rows i and columns j are the nodes, and every nonzero a[i, j] is
    an edge.  Rows and columns of different components share no nonzero
    entry, so permuting rows and columns (isometries) turns A into the
    direct sum of the component blocks A_k plus zero rows and columns, and
    |A| = max_k |A_k|.  Each A_k is an exact copy of entries of A, so a
    certificate of A_k is one for the block of A, and the bracket is
    (max_k lower_k, max_k upper_k), tagged by the blocks that attain the
    maxima.  Equal blocks have equal norms, so each distinct block is
    certified once.  A connected support is certified whole.

    Each block's certificate comes from one eigendecomposition
    G = V diag(lam) V^T of the computed Gram matrix G = fl(A^T A), A of
    shape m x n.  Here |.| is the spectral norm, abs(.) the entrywise
    absolute value, u = 2**-53 and gamma_k = k u / (1 - k u) (Higham,
    Accuracy and Stability, ch. 3).

    Lower side: |A| >= |A v| / |v| for every v != 0, here the top
    eigenvector.  fl(A v) lies within gamma_n abs(A) abs(v) of A v, and
    |abs(A)| <= c = min(|A|_F, sqrt(|A|_1 |A|_inf)), so the computed ratio
    minus gamma_n c is a lower bound; so is the best column norm.

    Upper side: abs(G - A^T A) <= gamma_m abs(A)^T abs(A), so for unit x,
    x^T A^T A x <= x^T G x + gamma_m c^2.  With R = G - V diag(lam) V^T and
    eta >= |V^T V - I|, Weyl's bound gives x^T G x <= lam_max (1 + eta) +
    |R|_F.  Forming R and V^T V - I in floating point adds at most
    gamma_n |V|_F^2 max|lam| and gamma_n |V|_F^2.  c caps the result.

    Every sum, product, norm and square root entering a bound is widened
    outward by its own gamma_k, so both sides are one-sided for signed and
    nonnegative inputs alike.  A is first scaled by a power of two so its
    largest entry lies in [1/2, 1): nothing overflows, and underflow
    (absolute error 2**-1074 per operation) stays below the extra unit
    roundoff each gamma term carries for it.  UnconvergedError, carrying
    the bracket, is raised when rounding alone leaves it wider than rel_tol.
    """
    a = _checked(np.asarray(a, dtype=float))  # read only, so no copy
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    support = a != 0.0
    if not support.any():
        return NormCertificate(0.0, 0.0, "exact", "exact")
    count, blocks = _component_blocks(a, support)
    certs = [_dense_certificate(block) for block in blocks]
    lower = max(certs, key=lambda c: c.lower)
    upper = max(certs, key=lambda c: c.upper)
    cert = NormCertificate(lower.lower, upper.upper, lower.lower_method, upper.upper_method, count)
    if cert.upper - cert.lower > rel_tol * cert.upper:
        raise UnconvergedError(
            f"operator norm bracket [{cert.lower}, {cert.upper}] is wider than "
            f"rel_tol={rel_tol} after rounding",
            lower=cert.lower,
            upper=cert.upper,
        )
    return cert


def _dense_certificate(a: np.ndarray) -> NormCertificate:
    """The eigendecomposition certificate of operator_norm for a nonzero a.

    The bracket is returned however wide it is.
    """
    top_entry = float(np.abs(a).max())
    exponent = math.frexp(top_entry)[1]
    s = np.ldexp(a, -exponent)
    m, n = s.shape
    col_sq = (s * s).sum(axis=0)
    cap2 = min(
        _up(float(col_sq.sum()), m * n),
        _up(float(np.abs(s).sum(axis=0).max() * np.abs(s).sum(axis=1).max()), m + n),
    )
    cap = _up(math.sqrt(cap2), 1)
    column = _down(math.sqrt(float(col_sq.max())), m + 1)

    gram = s.T @ s
    lam, vecs = np.linalg.eigh(gram)
    top = vecs[:, -1]
    ratio = float(np.linalg.norm(s @ top) / np.linalg.norm(top))
    eigenvector = _down(ratio, m + n + 3) - _up(_gamma(n + 1) * cap, 1)
    eigenvector = math.nextafter(eigenvector, -math.inf)

    ortho = vecs.T @ vecs
    frob_v2 = _up(float(np.trace(ortho)), 2 * n)
    ortho[np.diag_indices(n)] -= 1.0
    eta = _up(float(np.linalg.norm(ortho)), n * n + 2) + _gamma(n + 2) * frob_v2
    resid = (vecs * lam) @ vecs.T
    np.subtract(gram, resid, out=resid)
    weyl2 = (
        max(float(lam[-1]), 0.0) * (1.0 + eta)
        + _up(float(np.linalg.norm(resid)), n * n + 2)
        + _gamma(n + 2) * float(np.abs(lam).max()) * frob_v2
        + _gamma(m + 1) * cap2
    )
    weyl = _up(math.sqrt(_up(weyl2, 8)), 1)

    lower, lower_method = max((eigenvector, "eigenvector"), (column, "column-norm"))
    upper, upper_method = min((weyl, "weyl-enclosure"), (cap, "norm-cap"))
    return NormCertificate(
        math.ldexp(lower, exponent), math.ldexp(upper, exponent), lower_method, upper_method
    )


def _hook(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Merge the components of the edges (u, v) into the forest ``parent``.

    Min-label hooking: each root joined by an edge to a smaller root is
    hooked onto the smallest such root, and pointer jumping then points
    every node at its root again.  parent[x] <= x throughout, so no cycle
    forms; edges inside one component are dropped for good.
    """
    while True:
        pu, pv = parent[u], parent[v]
        cross = pu != pv
        if not cross.any():
            return
        u, v, pu, pv = u[cross], v[cross], pu[cross], pv[cross]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent[:] = jumped


def _component_blocks(a: np.ndarray, support: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """Split a along the connected components of its row/column support.

    Returns the number of components and the distinct component blocks,
    each with its rows and columns in their original order.  Zero rows and
    columns belong to no block, except that a connected support gives the
    one block a itself, so a connected matrix is certified whole.
    """
    m, n = support.shape
    rows, cols = np.arange(m), np.arange(n)
    live_rows = rows[support.any(axis=1)]
    live_cols = cols[support.any(axis=0)]
    parent = np.arange(m + n)
    # Borůvka rounds on the dense support: every row and column with an edge
    # to another component hooks along its first such edge, so the number
    # of components that still have such an edge at least halves per round.
    # A round costs O(m n) and never lists the edges, which on a dense
    # support would be most of the matrix.
    cross = support
    while cross.any():
        first_col, first_row = cross.argmax(axis=1), cross.argmax(axis=0)
        r = rows[cross[rows, first_col]]
        c = cols[cross[first_row, cols]]
        _hook(parent, np.concatenate([r, first_row[c]]), np.concatenate([first_col[r], c]) + m)
        cross = support & (parent[:m, None] != parent[None, m:])

    roots, row_comp = np.unique(parent[live_rows], return_inverse=True)
    count = roots.size
    if count == 1:
        return 1, [a]
    col_comp = np.searchsorted(roots, parent[live_cols + m])
    row_sizes = np.bincount(row_comp, minlength=count)
    col_sizes = np.bincount(col_comp, minlength=count)
    # Stable sorts keep each component's rows and columns in original order.
    row_order = live_rows[np.argsort(row_comp, kind="stable")]
    col_order = live_cols[np.argsort(col_comp, kind="stable")]
    row_start = np.cumsum(row_sizes) - row_sizes
    col_start = np.cumsum(col_sizes) - col_sizes
    blocks = []
    for p, q in sorted(set(zip(row_sizes.tolist(), col_sizes.tolist()))):
        same = np.flatnonzero((row_sizes == p) & (col_sizes == q))
        block_rows = row_order[row_start[same, None] + np.arange(p)]
        block_cols = col_order[col_start[same, None] + np.arange(q)]
        stack = a[block_rows[:, :, None], block_cols[:, None, :]]
        # Byte-identical blocks have identical certificates: keep one of each.
        blocks.extend({block.tobytes(): block for block in stack}.values())
    return count, blocks


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


def _topological_order(support: np.ndarray) -> list[int]:
    """Kahn's topological sort of the digraph with an arc i -> j wherever
    support[i, j], ties broken on the lowest index.  Indices on a cycle, or
    reachable from one, are left out."""
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
    return order


def permutation_triangularization(c) -> np.ndarray | None:
    """Order the indices of a nonnegative matrix so it becomes strictly upper.

    Returns perm such that c[perm][:, perm] is strictly upper-triangular,
    found by topological sort of the support digraph (an arc i -> j for
    every entry c[i, j] > 0, meaning i must precede j).  Returns None iff
    the digraph has a cycle, i.e. iff c is not nilpotent.  Ties break on the
    lowest original index for deterministic output.
    """
    (c,) = _square_inputs(c)
    if float(c.min()) < 0.0:
        raise ValueError("entries must be nonnegative")
    order = _topological_order(c > 0.0)
    return np.array(order) if len(order) == c.shape[0] else None


# -- file formats -----------------------------------------------------------
#
# JSON object: {"rows": n, "cols": m, "data": [row-major numbers]}.
# Readers also accept a plain CSV grid (one row per line, comma-separated
# decimals, scientific notation fine).  Writers emit JSON only.


def matrix_to_json_dict(a) -> dict:
    a = as_matrix(a)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": a.ravel().tolist()}


def matrix_from_json_dict(obj: dict) -> np.ndarray:
    """Read the dense form {"rows", "cols", "data"}: integer rows and cols, flat row-major data."""
    try:
        rows, cols = obj["rows"], obj["cols"]
        data = np.array(obj["data"], dtype=float) if isinstance(obj["data"], list) else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix JSON must have rows/cols/data: {exc}") from None
    if any(type(k) is not int for k in (rows, cols)):  # not bool, float or str
        raise ValueError("matrix JSON rows and cols must be integers")
    if data is None or data.ndim != 1:
        raise ValueError("matrix JSON data must be a flat list of numbers")
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols = {rows * cols}")
    return as_matrix(data.reshape(rows, cols))


def _parse_csv(text: str) -> np.ndarray:
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError:
            raise ValueError(f"CSV line {line_no} is not comma-separated numbers: {line!r}") from None
    if not rows:
        raise ValueError("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("CSV rows have inconsistent lengths")
    return as_matrix(rows)


def read_matrix(path) -> np.ndarray:
    """Read a matrix from a JSON or CSV file (format sniffed from content)."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid matrix JSON in {path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"invalid matrix JSON in {path}: nests too deeply") from None
        return matrix_from_json_dict(obj)
    return _parse_csv(text)


def write_matrix(path, a) -> None:
    Path(path).write_text(json.dumps(matrix_to_json_dict(a)), encoding="utf-8")
