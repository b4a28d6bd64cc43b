"""Dense real matrix core: entrywise order, spectral quantities, file formats.

Matrices are validated 2-D float64 numpy arrays.  Witness coordinates in
verdicts are 1-based (row, col), matching the 1-based basis indexing used
by the operator engine.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scalars import _real
from .verdict import Verdict

__all__ = [
    "DynamicRangeError",
    "NormCertificate",
    "UnconvergedError",
    "commutator",
    "entrywise_leq",
    "matrix_from_json_dict",
    "max_abs",
    "operator_norm",
    "read_matrix",
    "write_json",
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


def _read_only(values) -> np.ndarray:
    """values as a validated 2-D float64 matrix, without a copy: the result may alias values.

    Rejects empty matrices and non-finite entries.
    """
    return _checked(np.asarray(values, dtype=float))


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
    """_read_only of each value: the first square, the rest of its shape."""
    first, *rest = matrices = [_read_only(v) for v in values]
    if first.shape[0] != first.shape[1]:
        raise ValueError(f"matrix must be square, got shape {first.shape}")
    for other in rest:
        _require_same_shape(first, other)
    return tuple(matrices)


def commutator(a, b) -> np.ndarray:
    """AB - BA for square matrices of equal size."""
    a, b = _square_inputs(a, b)
    return a @ b - b @ a


def max_abs(a) -> float:
    """Largest absolute entry (the max-entry norm)."""
    a = _read_only(a)
    # |max| or |min| is the largest, with no array of |a|; abs also makes a zero +0.0.
    return max(abs(float(a.max())), abs(float(a.min())))


def entrywise_leq(a, b, tol: float = 0.0) -> Verdict:
    """Check a <= b entrywise, allowing entries of b - a down to -tol.

    On failure the witness carries the 1-based coordinates of the most
    negative entry of b - a and its value.  The margin is the minimum entry
    of b - a (so >= -tol means pass).
    """
    a, b = _read_only(a), _read_only(b)
    _require_same_shape(a, b)
    return _least_entry(b - a, _real("tol", tol, 0))


def _least_entry(diff: np.ndarray, tol: float) -> Verdict:
    """The verdict of entrywise_leq(a, b, tol) from diff = b - a, with a valid tol."""
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
        inputs={"shape": list(diff.shape), "tol": tol},
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


def _up(x, k: int):
    """Upper bound on a nonnegative quantity that x computes with k roundings, entrywise.

    The true value is at most x / (1 - gamma_k) <= x (1 + gamma_(k+1)); the
    factor 2 and nextafter absorb the roundings of this expression itself.
    """
    return np.nextafter(x * (1.0 + 2.0 * _gamma(k + 1)), np.inf)


def _down(x, k: int):
    """Lower bound on a nonnegative quantity that x computes with k roundings, entrywise.

    The true value is at least x / (1 + gamma_k) >= x (1 - gamma_k).
    """
    return np.maximum(np.nextafter(x * (1.0 - 2.0 * _gamma(k)), 0.0), 0.0)


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
    certified once, and the blocks of one shape are certified as one stack.
    A connected support is certified whole, as a stack of one.

    A is certified from its listed entries, as _entries_norm certifies a
    family of one: every entry that is not +0.0 is listed, and _hook joins
    the nonzero ones into components.  So a connected A is certified from
    the exact bits of A, whatever its memory layout.

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
    roundoff each gamma term carries for it.  Scaling back rounds only a
    subnormal bound, outward; a norm past the double range raises
    DynamicRangeError.  UnconvergedError, carrying the bracket, is raised
    when rounding alone leaves it wider than rel_tol.
    """
    a = _read_only(a)
    ((cert,),) = _entries_norm([(a.shape, _listed(a[None]), rel_tol)])
    if isinstance(cert, UnconvergedError):
        raise cert
    return cert


def _listed(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries (rows, cols, values) of the (k, m, n) stack where some member is not +0.0.

    -0.0 is listed too, so a member whose support is connected is rebuilt bit for bit.
    """
    rows, cols = np.nonzero(((stack != 0.0) | np.signbit(stack)).any(axis=0))
    return rows, cols, stack[:, rows, cols]


def _entries_norm(families) -> list[list[NormCertificate | UnconvergedError]]:
    """operator_norm of each matrix of each family whose entries are listed.

    A family is (shape, entries, rel_tol), its matrices of that shape.
    entries is (rows, cols, values), 0-based: values holds one row per
    matrix and one column per listed position.  No position is listed
    twice, every position not listed is +0.0 in every matrix, and zero
    values may be listed.  The support components come once per family,
    from hooking the positions that are nonzero in some matrix, and the
    blocks are gathered from the list, so the m x n arrays are built only
    when that support is connected.  Each matrix gets the bracket of its
    blocks, or the UnconvergedError of one wider than rel_tol; a matrix
    whose nonzero positions are its family's, and so each member of a
    family of one, gets what operator_norm gives its scattered matrix,
    components included.  The blocks of all families are certified
    together, and a block whose norm exceeds the double range raises
    DynamicRangeError for all of them.
    """
    return _bracket([(*_family_blocks(shape, entries), rel_tol)
                     for shape, entries, rel_tol in families])


def _family_blocks(shape: tuple[int, int], entries) -> tuple[int, int, list]:
    """(count, k, stacks): a listed family's component count, size and distinct blocks."""
    rows, cols, values = entries
    if not np.isfinite(values).all():
        raise ValueError("matrix entries must be finite")
    edge = (values != 0.0).any(axis=0)
    m, n = shape
    k = len(values)
    u, v = rows[edge], cols[edge]
    parent = np.arange(m + n)
    _hook(parent, u, v + m)
    live_rows, live_cols = np.zeros(m, dtype=bool), np.zeros(n, dtype=bool)
    live_rows[u] = live_cols[v] = True
    count, row_label, col_label = _labels(parent, live_rows, live_cols)
    if count == 1:
        whole = np.zeros((k, m, n))
        whole[:, rows, cols] = values
        return 1, k, [(whole, np.arange(k)[:, None])]
    return count, k, _component_blocks(row_label, col_label, u, v, values[:, edge])


def _bracket(jobs: list[tuple]) -> list[list[NormCertificate | UnconvergedError]]:
    """The bracket of operator_norm for each matrix of each job (count, k, stacks, rel_tol).

    A job's stacks are as _component_blocks gives them for its k matrices,
    split into count components.  The stacks of one block shape from every
    job go to _dense_certificate as one.  Each matrix's bracket is the
    largest lower and the largest upper bound over its nonzero blocks, each
    tagged by the first block, in stack order, that attains it; a matrix
    with no nonzero block is the zero matrix, norm exactly 0.  Each rel_tol
    is checked first; a matrix whose bracket is wider gets its
    UnconvergedError in place of a certificate.
    """
    jobs = [(*job, _real("rel_tol", rel_tol, 0, low_open=True)) for *job, rel_tol in jobs]
    stacks = [stack for _, _, job_stacks, _ in jobs for stack in job_stacks]
    tables = [np.empty(0)] * len(stacks)  # per stack: lower, upper, by_column, by_cap
    for shape in sorted({blocks.shape[1:] for blocks, _ in stacks}):
        mine = [n for n, (blocks, _) in enumerate(stacks) if blocks.shape[1:] == shape]
        group = np.concatenate([stacks[n][0] for n in mine])
        lower, upper, by_column, by_cap = _dense_certificate(group)
        empty = ~group.any(axis=(1, 2))
        lower[empty] = upper[empty] = -np.inf  # a zero block leaves its matrices' brackets alone
        table, start = np.stack([lower, upper, by_column, by_cap]), 0
        for n in mine:
            blocks, index = stacks[n]
            tables[n] = table[:, start + index]
            start += len(blocks)
    zero = NormCertificate(0.0, 0.0, "exact", "exact")
    results, done = [], 0
    for count, k, job_stacks, rel_tol in jobs:
        parts, done = tables[done:done + len(job_stacks)], done + len(job_stacks)
        if not parts:
            results.append([zero] * k)
            continue
        lower, upper, by_column, by_cap = np.concatenate(parts, axis=2)
        rows = np.arange(k)
        i, j = lower.argmax(axis=1), upper.argmax(axis=1)
        certs = []
        for lo, hi, column, cap in zip(*(x.tolist() for x in (
                lower[rows, i], upper[rows, j], by_column[rows, i], by_cap[rows, j]))):
            if hi == -np.inf:
                certs.append(zero)
                continue
            cert = NormCertificate(lo, hi, "column-norm" if column else "eigenvector",
                                   "norm-cap" if cap else "weyl-enclosure", count)
            if cert.upper - cert.lower > rel_tol * cert.upper:
                cert = UnconvergedError(
                    f"operator norm bracket [{cert.lower}, {cert.upper}] is wider than "
                    f"rel_tol={rel_tol} after rounding",
                    lower=cert.lower,
                    upper=cert.upper,
                )
            certs.append(cert)
        results.append(certs)
    return results


def _norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of the 2-D x, summed as np.linalg.norm sums a vector: by its dot."""
    x = np.ascontiguousarray(x)
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _dense_certificate(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The eigendecomposition certificate of operator_norm for each block of the stack a.

    a has shape (k, m, n).  Returns the arrays (lower, upper, by_column,
    by_cap), one entry per block, each bracket however wide it is:
    by_column marks a lower bound from the best column norm rather than the
    eigenvector, and by_cap an upper bound from the norm cap rather than the
    Weyl enclosure.  Every reduction runs over one block at a time, in the
    order it takes for that block alone, so a block gets the same bits in
    any stack.
    """
    k, m, n = a.shape
    exponent = np.frexp(np.abs(a).max(axis=(1, 2)))[1]
    s = np.ldexp(a, -exponent[:, None, None])
    col_sq = (s * s).sum(axis=1)
    abs_s = np.abs(s)
    cap2 = np.minimum(
        _up(col_sq.sum(axis=1), m * n),
        _up(abs_s.sum(axis=1).max(axis=1) * abs_s.sum(axis=2).max(axis=1), m + n),
    )
    cap = _up(np.sqrt(cap2), 1)
    column = _down(np.sqrt(col_sq.max(axis=1)), m + 1)

    gram = s.transpose(0, 2, 1) @ s
    lam, vecs = np.linalg.eigh(gram)
    top = vecs[:, :, -1:]
    ratio = _norms((s @ top)[:, :, 0]) / _norms(top[:, :, 0])
    eigenvector = _down(ratio, m + n + 3) - _up(_gamma(n + 1) * cap, 1)
    eigenvector = np.nextafter(eigenvector, -np.inf)

    ortho = vecs.transpose(0, 2, 1) @ vecs
    frob_v2 = _up(np.trace(ortho, axis1=1, axis2=2), 2 * n)
    ortho[:, range(n), range(n)] -= 1.0
    eta = _up(_norms(ortho.reshape(k, -1)), n * n + 2) + _gamma(n + 2) * frob_v2
    resid = (vecs * lam[:, None, :]) @ vecs.transpose(0, 2, 1)
    np.subtract(gram, resid, out=resid)
    weyl2 = (
        np.maximum(lam[:, -1], 0.0) * (1.0 + eta)
        + _up(_norms(resid.reshape(k, -1)), n * n + 2)
        + _gamma(n + 2) * np.abs(lam).max(axis=1) * frob_v2
        + _gamma(m + 1) * cap2
    )
    weyl = _up(np.sqrt(_up(weyl2, 8)), 1)

    by_column = column > eigenvector  # a tie goes to the eigenvector bound
    by_cap = cap <= weyl  # and to the norm cap
    lower, upper = np.where(by_column, column, eigenvector), np.where(by_cap, cap, weyl)
    with np.errstate(over="ignore"):
        lo, hi = np.ldexp(lower, exponent), np.ldexp(upper, exponent)
    if np.isinf(hi).any():  # lower <= upper, so lo overflows only with hi
        raise DynamicRangeError("operator norm exceeds the double range")
    # ldexp rounds to nearest only where its result is subnormal; undoing it is exact.
    lo = np.where(np.ldexp(lo, -exponent) <= lower, lo, np.nextafter(lo, 0.0))
    hi = np.where(np.ldexp(hi, -exponent) >= upper, hi, np.nextafter(hi, np.inf))
    return lo, hi, by_column, by_cap


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


def _labels(
    parent: np.ndarray, live_rows: np.ndarray, live_cols: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, row_label, col_label): the components of a finished _hook forest.

    live_rows and live_cols mark the rows and columns with an edge.  Each
    live row and column is labelled 0..count-1 by its component, numbered in
    the order of their least rows; every other row and column is labelled
    -1.  Every node points at its root, its component's least node, which
    is a row.
    """
    m = live_rows.size
    roots = np.flatnonzero(live_rows & (parent[:m] == np.arange(m)))
    labels = np.full(parent.size, -1)
    live = np.flatnonzero(np.concatenate([live_rows, live_cols]))
    labels[live] = np.searchsorted(roots, parent[live])
    return roots.size, labels[:m], labels[m:]


def _ranks(label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The size of each component, and each labelled index's rank within its component."""
    live = np.flatnonzero(label >= 0)
    order = live[np.argsort(label[live], kind="stable")]  # stable: each component in index order
    sizes = np.bincount(label[live])
    rank = np.zeros(label.size, dtype=np.intp)
    rank[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return sizes, rank


def _component_blocks(
    row_label: np.ndarray, col_label: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    values: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The distinct component blocks of a family of split matrices, one stack per shape.

    values holds the family's entries at the nonzero positions (rows, cols),
    one row per matrix.  Each block keeps its rows and columns in their
    original order and holds +0.0 where no entry is listed.  For each shape
    (p, q), in increasing order, comes (blocks, index): blocks is the
    (b, p, q) stack of the distinct blocks of that shape across the whole
    family, and index the (k, c) array that gives, for each of the k
    matrices, the position in blocks of each of its c components of that
    shape, in label order.  Byte-identical blocks have identical
    certificates, so np.unique on a byte view keeps one of each.
    """
    row_sizes, row_rank = _ranks(row_label)
    col_sizes, col_rank = _ranks(col_label)
    comp = row_label[rows]  # an entry's row and column lie in one component
    k = len(values)
    stacks = []
    for p, q in sorted(set(zip(row_sizes.tolist(), col_sizes.tolist()))):
        same = (row_sizes == p) & (col_sizes == q)
        slot = np.cumsum(same) - 1  # position of each component of this shape in the stack
        flat = np.zeros((k, int(slot[-1]) + 1, p * q))
        mine = same[comp]
        flat[:, slot[comp[mine]], row_rank[rows[mine]] * q + col_rank[cols[mine]]] = values[:, mine]
        distinct, index = np.unique(flat.view(np.dtype((np.void, 8 * p * q))), return_inverse=True)
        # The shape of the inverse differs between numpy versions; its order does not.
        stacks.append((distinct.view(float).reshape(-1, p, q), index.reshape(k, -1)))
    return stacks


# -- file formats -----------------------------------------------------------
#
# JSON object: {"rows": n, "cols": m, "data": [row-major numbers]}, where
# every entry of data is a JSON number.  orjson reads the data list in chunks
# straight into the array (_read_json_chunked); json.loads reads every file
# that path declines, and its result or error stands.  Readers also accept a
# plain CSV grid: one row per line, each cell a decimal such as 3, -0.5, .5
# or 2e-3.  A file larger than MAX_MATRIX_BYTES is refused before it is
# parsed.  Writers emit the dense JSON form only, through write_json: orjson
# writes the text, and each entry reads back to its bits.

# Largest matrix file read_matrix parses, 32 MiB: a dense 1024 x 1024 matrix
# at full precision takes about 22 MB.  The JSON reader holds the text, the
# array and one chunk's entries at once; the CSV reader holds the text, its
# rows joined into one text and the array.  The peak resident set of a fresh
# process (ru_maxrss, numpy 2.4, orjson 3.8) at the limit was 135 MB for JSON
# of short numbers ("0.5,"), 93 MB for JSON at full precision, 237 MB for a
# CSV row of zeros and 253 MB for 2048 such rows.  A JSON file that orjson
# declines, such as one ending in NaN, peaked at 455 MB in json.loads.
MAX_MATRIX_BYTES = 1 << 25


def write_json(path, obj) -> None:
    """Write obj to path as JSON, each ndarray in obj as {"rows", "cols", "data"}.

    obj is a matrix, or a dict with str keys whose values are matrices, such
    dicts, or JSON values.  Each matrix is checked as _read_only checks it,
    without a copy, so a non-finite entry is refused before anything is
    written.  orjson writes every entry as the shortest decimal that reads
    back to its bits.
    """
    # Imported here, as in _read_json_chunked, so that a command that writes
    # no matrix does not pay for it.
    import orjson

    def dense(value):
        if isinstance(value, dict):
            return {k: dense(v) for k, v in value.items()}
        if isinstance(value, np.ndarray):
            a = _read_only(value)
            return {"rows": a.shape[0], "cols": a.shape[1], "data": a.ravel()}
        return value

    Path(path).write_bytes(orjson.dumps(dense(obj), option=orjson.OPT_SERIALIZE_NUMPY))


def matrix_from_json_dict(obj: dict) -> np.ndarray:
    """Read the dense form {"rows", "cols", "data"}: integer rows and cols, flat row-major data."""
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix JSON must have rows/cols/data: {exc}") from None
    if any(type(k) is not int for k in (rows, cols)):  # not bool, float or str
        raise ValueError("matrix JSON rows and cols must be integers")
    # JSON numbers load as int or float; bool, str, None, list and dict entries are refused.
    if type(data) is not list or not set(map(type, data)) <= {int, float}:
        raise ValueError("matrix JSON data must be a flat list of numbers")
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} != rows*cols = {rows * cols}")
    try:
        a = np.array(data, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"matrix JSON data must be finite numbers: {exc}") from None
    return _checked(a.reshape(rows, cols))


# A CSV cell is a decimal: an optional sign, digits with an optional fraction
# or a bare fraction, an optional exponent, and spaces or tabs around it.
# float() alone would also take "1_0", "inf", "nan" and non-ASCII digits.
# The pattern finds a comma not followed by such a cell, so it keeps no state
# per cell: a pattern that repeats a group across the row held about 600
# bytes per cell.
_CELL = r"[ \t]*[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?[ \t]*"
_BAD_CELL = re.compile(rf",(?!{_CELL}(?:,|\Z))", re.ASCII)  # \d: only 0-9


def _parse_csv(text: str) -> np.ndarray:
    lines = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        bad = _BAD_CELL.search("," + line)
        if bad:  # name the cell, not the whole line, which may be megabytes long
            col = line.count(",", 0, bad.start()) + 1
            cell = line[bad.start():bad.start() + 40].split(",")[0]
            raise ValueError(f"CSV line {line_no}, cell {col} is not a decimal number: {cell!r}")
        lines.append(line)
    if not lines:
        raise ValueError("no matrix rows found")
    commas = lines[0].count(",")  # every cell is a decimal, so commas count the cells
    if any(line.count(",") != commas for line in lines):
        raise ValueError("CSV rows have inconsistent lengths")
    # All rows are parsed at once into the one array, after the lines are freed.
    joined, shape = ",".join(lines), (len(lines), commas + 1)
    del lines
    return _checked(np.fromstring(joined, sep=",").reshape(shape))  # rounds as float() does


def read_matrix(path) -> np.ndarray:
    """Read a matrix from a JSON or CSV file (format sniffed from content).

    Reads at most MAX_MATRIX_BYTES + 1 bytes, so a larger file, a pipe or a
    device is refused without reading it whole.
    """
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        a = _read_json_chunked(text)
        if a is not None:
            return a
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid matrix JSON in {path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"invalid matrix JSON in {path}: nests too deeply") from None
        return matrix_from_json_dict(obj)
    return _parse_csv(text)


# The data key up to the bracket that opens its list; JSON whitespace only.
_DATA_KEY = re.compile(r'"data"[ \t\n\r]*:[ \t\n\r]*\[')

# Characters of the data list parsed at a time: the list is cut at the first
# comma past each 64 KiB, so one chunk's Python entries are alive at once.
# With 1 MiB chunks, a 32 MiB file that declined in its last chunk peaked
# 7.6 MB higher in json.loads than it did without this path, because glibc
# raises its mmap threshold when a block that large is freed.  64 KiB chunks
# read as fast, and the excess fell to 0.9 MB, the size of orjson's import.
_CHUNK_CHARS = 1 << 16

# Every JSON value that is not a number starts with one of these characters,
# so a list without them holds only numbers, which orjson loads as int or
# float: a bool, string, null, list or dict entry declines.
_NOT_NUMBERS = '"{[tfn'


def _read_json_chunked(text: str) -> np.ndarray | None:
    """The dense JSON form in text, or None where json.loads must decide.

    Returns a matrix only where json.loads and matrix_from_json_dict give
    the same one, bit for bit.  orjson refuses what json.loads alone takes
    (NaN, Infinity, numbers past the double range, lone surrogates), and
    such a file, or any other this path does not follow, returns None.
    Outside the list, the object must hold no list or object, not even in a
    string: then no nested or duplicate data key can hold a list, and no
    nesting reaches orjson, which takes nesting that json.loads refuses (and
    crashed the process at a depth of 150,000).  The entries are counted from
    the list's commas before the array is allocated, and must be numbers.
    """
    # Imported here, so that a command that reads no matrix does not pay for
    # it: at module level it added 0.7 MB to the peak RSS of every sweep and
    # about 1.3 ms (10%) to a window-512 sweep pass.
    import orjson

    key = _DATA_KEY.search(text)
    if key is None:
        return None
    start = key.end()
    end = text.find("]", start)
    if end < 0 or len(text) - (end - start) > _CHUNK_CHARS:  # the rest is one chunk at most
        return None
    rest = text[:start] + text[end:]
    if rest.count("[") != 1 or rest.count("{") != 1:
        return None
    try:
        obj = orjson.loads(rest)
        if type(obj) is not dict or obj.get("data") != []:
            return None
        rows, cols = obj.get("rows"), obj.get("cols")
        if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
            return None
        if text.count(",", start, end) + 1 != rows * cols:
            return None
        if any(text.find(c, start, end) >= 0 for c in _NOT_NUMBERS):
            return None
        a = np.empty(rows * cols)
        filled = 0
        while start < end:
            cut = text.find(",", min(start + _CHUNK_CHARS, end), end)
            cut = end if cut < 0 else cut
            values = orjson.loads("[" + text[start:cut] + "]")
            a[filled:filled + len(values)] = values
            filled += len(values)
            start = cut + 1
    except orjson.JSONDecodeError:
        return None
    if filled != a.size:
        return None
    return _checked(a.reshape(rows, cols))


# Bytes asked for at a time once a read has not met the end of its file.
_READ_CHUNK = 1 << 16


def _read_text(path) -> str:
    """The file's UTF-8 text, from at most MAX_MATRIX_BYTES + 1 bytes read.

    f.read(n) allocates n bytes before it reads, so a regular file is read
    in one call of its size plus one byte, not of the limit.  A read that
    fills its request has not met the end: a pipe or a device, whose size
    reads as 0, or a file that grew.  The rest is then read in chunks of
    _READ_CHUNK bytes up to the limit, and a short chunk is the end.
    """
    limit = MAX_MATRIX_BYTES + 1
    with open(path, "rb") as f:
        want = min(os.fstat(f.fileno()).st_size + 1, limit)
        raw = f.read(want)
        if len(raw) == want < limit:
            raw = bytearray(raw)
            while len(raw) < limit:
                chunk = f.read(min(_READ_CHUNK, limit - len(raw)))
                raw += chunk
                if len(chunk) < _READ_CHUNK:
                    break
    if len(raw) > MAX_MATRIX_BYTES:
        raise ValueError(f"{path} is larger than {MAX_MATRIX_BYTES} bytes")
    return raw.decode("utf-8")
