"""Independent references that tests compare the library against."""

from __future__ import annotations

import math

import numpy as np

from commkit.matrices import _square_inputs, as_matrix


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


def matrix_to_json_dict(a) -> dict:
    """The dense matrix form {"rows", "cols", "data"}, whose json.dumps the writer must match."""
    a = as_matrix(a)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": a.ravel().tolist()}
