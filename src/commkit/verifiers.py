"""Machine checks for commutator inequalities and obstructions.

Every checker re-verifies its hypotheses entrywise instead of trusting the
caller and reports them as separate verdicts, so both sides of each
implication are visible in the output.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .constructions import HalmosPair, halmos_nilpotent_majorant, halmos_pair_scaled
from .lazyops import compress
from .matrices import (
    as_matrix,
    commutator,
    entrywise_leq,
    identity,
    max_abs,
    operator_norm,
    spectral_radius,
)
from .verdict import Verdict

__all__ = [
    "MAX_WINDOW",
    "certified_halmos_popa_check",
    "delta_threshold",
    "exact_commutator_identity_check",
    "finite_dim_obstructions",
    "nil_index_three_check",
    "popa_bound",
    "power_inequality_report",
    "wielandt_violation_witness",
]


def _check_norm_inputs(norm_a: float, norm_b: float, alpha: float) -> None:
    for name, value in (("norm_a", norm_a), ("norm_b", norm_b), ("alpha", alpha)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if norm_a < 0.0 or norm_b < 0.0:
        raise ValueError("norms must be nonnegative")
    if alpha < 1.0:
        raise ValueError("normality constants are at least 1")


def popa_bound(norm_a: float, norm_b: float, eps: float, alpha: float = 1.0) -> Verdict:
    """Check norm_a * norm_b >= (1 / 2*alpha) * ln(1 / (alpha * eps)).

    This is the necessary condition for solvability of [a,b] >= e + x with
    |x| <= eps, a or b positive, in an algebra whose cone has normality
    constant alpha.  A FAIL certifies that no such x exists for the given
    pair: the perturbation eps is too small for these norms.
    """
    _check_norm_inputs(norm_a, norm_b, alpha)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("eps must be positive and finite")
    product = norm_a * norm_b
    bound = math.log(1.0 / (alpha * eps)) / (2.0 * alpha)
    margin = product - bound
    passed = margin >= 0.0
    witness = None if passed else {"product": product, "bound": bound}
    return Verdict(
        passed=passed,
        claim="popa-lower-bound",
        witness=witness,
        margin=margin,
        inputs={"norm_a": norm_a, "norm_b": norm_b, "eps": eps, "alpha": alpha},
    )


def delta_threshold(norm_a: float, norm_b: float, alpha: float = 1.0) -> float:
    """Exclusion radius (1/alpha) * exp(-2 * alpha * norm_a * norm_b).

    Below this radius no perturbation x with |x| < delta can satisfy
    [a,b] >= e + x; equivalently, popa_bound fails for every eps strictly
    below the returned value.
    """
    _check_norm_inputs(norm_a, norm_b, alpha)
    return math.exp(-2.0 * alpha * norm_a * norm_b) / alpha


def _window(a: np.ndarray, interior: int | None) -> np.ndarray:
    return a if interior is None else a[:interior, :interior]


def power_inequality_report(
    a,
    b,
    x,
    n_max: int = 6,
    tol: float = 1e-9,
    interior: int | None = None,
) -> list[Verdict]:
    """Entrywise check of [a^n, b] >= n a^(n-1) + sum_j a^(n-1-j) x a^j.

    Returns two precondition verdicts (a >= 0 entrywise, and
    [a,b] >= I + x entrywise) followed by one verdict per n = 1..n_max.
    When both preconditions hold the induction forces every n to pass; the
    first failing (n, entry) is reported otherwise.  Precondition failures
    are verdicts, not errors, so both sides of the implication stay visible.

    ``interior`` restricts all entrywise comparisons to the leading
    interior x interior corner; products are still formed at full size.
    This is the natural mode for finite sections of infinite operators,
    whose outermost rows and columns are truncation artifacts.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    x = as_matrix(x)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrices must be square")
    if a.shape != b.shape or a.shape != x.shape:
        raise ValueError("matrices must share one shape")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if interior is not None and not (1 <= interior <= a.shape[0]):
        raise ValueError("interior window must lie within the matrix")
    size = a.shape[0]
    eye = identity(size)

    verdicts = []
    pre_a = entrywise_leq(_window(np.zeros_like(a), interior), _window(a, interior), tol)
    verdicts.append(dataclasses.replace(pre_a, claim="precondition-a-nonnegative"))
    comm = commutator(a, b)
    pre_h = entrywise_leq(_window(eye + x, interior), _window(comm, interior), tol)
    verdicts.append(dataclasses.replace(pre_h, claim="precondition-commutator-dominates"))

    # One power and one running sum: R_1 = x and R_(n+1) = a R_n + x a^n
    # give R_n = sum_j a^(n-1-j) x a^j.
    power = eye
    tail = x
    for n in range(1, n_max + 1):
        if n > 1:
            tail = a @ tail + x @ power
        rhs = float(n) * power + tail
        power = power @ a
        lhs = commutator(power, b)
        vd = entrywise_leq(_window(rhs, interior), _window(lhs, interior), tol)
        vd = dataclasses.replace(
            vd,
            claim=f"power-inequality-n{n}",
            inputs={**vd.inputs, "n": n},
        )
        verdicts.append(vd)
    return verdicts


def wielandt_violation_witness(a, b) -> Verdict:
    """Locate an entry of [a,b] - I that is negative.

    Requires a or b to be signed (entrywise >= 0 or <= 0).  For square real
    matrices a witness always exists: the commutator has zero trace, so
    some diagonal entry of [a,b] - I is at most -1.  The verdict passes
    when a witness is found; failing to find one is reported as an
    inconsistency (it would indicate a broken implementation).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError("matrices must be square and of equal size")

    def signed(m: np.ndarray) -> bool:
        return float(m.min()) >= 0.0 or float(m.max()) <= 0.0

    if not (signed(a) or signed(b)):
        raise ValueError("neither matrix is entrywise signed")
    diff = commutator(a, b) - identity(a.shape[0])
    flat = int(diff.argmin())
    i, j = np.unravel_index(flat, diff.shape)
    value = float(diff[i, j])
    found = value < 0.0
    witness = {"row": int(i) + 1, "col": int(j) + 1, "value": value}
    if not found:
        witness["inconsistency"] = "no negative entry found; this should be impossible"
    return Verdict(
        passed=found,
        claim="wielandt-domination-refuted",
        witness=witness,
        margin=-value,
        inputs={"shape": list(a.shape)},
    )


def finite_dim_obstructions(
    a,
    b,
    x,
    tol: float = 1e-9,
    spectral_tol: float = 1e-6,
) -> list[Verdict]:
    """Trace, spectral-radius and idempotent obstructions for [A,B] >= I - X.

    Returns four verdicts: the re-verified hypothesis, then (i)
    trace(X) >= n, (ii) r(X) >= 1 together with |X| >= 1, and (iii) if X is
    idempotent then X = I.  Entrywise and trace checks use ``tol``;
    spectral quantities use ``spectral_tol``.  When the hypothesis fails
    the obstruction verdicts are vacuous and marked as such (their values
    are still reported).
    """
    a = as_matrix(a)
    b = as_matrix(b)
    x = as_matrix(x)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrices must be square")
    if a.shape != b.shape or a.shape != x.shape:
        raise ValueError("matrices must share one shape")
    n = a.shape[0]
    eye = identity(n)

    hyp = entrywise_leq(eye - x, commutator(a, b), tol)
    hyp = dataclasses.replace(hyp, claim="obstruction-hypothesis")
    vacuous = not hyp.passed

    trace_x = float(np.trace(x))
    trace_margin = trace_x - n
    trace_ok = vacuous or trace_margin >= -tol
    trace_witness = {"trace": trace_x, "size": n}
    if vacuous:
        trace_witness["vacuous"] = True
    trace_vd = Verdict(
        passed=trace_ok,
        claim="obstruction-trace",
        witness=trace_witness,
        margin=trace_margin,
        inputs={"size": n, "tol": tol},
    )

    radius = spectral_radius(x, rel_tol=spectral_tol)
    norm_upper = operator_norm(x, rel_tol=spectral_tol).upper
    spec_margin = min(radius - 1.0, norm_upper - 1.0)
    spec_ok = vacuous or (radius >= 1.0 - spectral_tol and norm_upper >= 1.0 - spectral_tol)
    spec_witness = {"spectral_radius": radius, "norm_upper": norm_upper}
    if vacuous:
        spec_witness["vacuous"] = True
    spec_vd = Verdict(
        passed=spec_ok,
        claim="obstruction-spectral-radius",
        witness=spec_witness,
        margin=spec_margin,
        inputs={"size": n, "spectral_tol": spectral_tol},
    )

    idem_defect = max_abs(x @ x - x)
    ident_defect = max_abs(x - eye)
    is_idempotent = idem_defect <= tol
    idem_ok = vacuous or (not is_idempotent) or ident_defect <= tol
    idem_witness = {"idempotency_defect": idem_defect, "identity_defect": ident_defect}
    if vacuous:
        idem_witness["vacuous"] = True
    idem_vd = Verdict(
        passed=idem_ok,
        claim="obstruction-idempotent",
        witness=idem_witness,
        margin=None,
        inputs={"size": n, "tol": tol},
    )
    return [hyp, trace_vd, spec_vd, idem_vd]


def exact_commutator_identity_check(pair: HalmosPair, depth: int) -> Verdict:
    """Check [A, B] = I + N exactly on the basis columns 1..depth.

    Evaluates the commutator defect [A, B] - I - N column by column in
    exact arithmetic; the first nonzero entry found is the witness.
    """
    defect = pair.commutator_defect()
    for g in range(1, depth + 1):
        col = defect.apply(g)
        if col:
            idx, value = next(iter(col.items()))
            return Verdict(
                passed=False,
                claim="exact-commutator-identity",
                witness={"column": g, "basis_index": idx, "value": repr(value)},
                inputs={"columns_checked": depth},
            )
    return Verdict(
        passed=True,
        claim="exact-commutator-identity",
        witness=None,
        margin=0.0,
        inputs={"columns_checked": depth},
    )


def nil_index_three_check(pair: HalmosPair, depth: int) -> Verdict:
    """Check N^3 = 0 on the basis columns 1..depth and N^2 != 0 exactly.

    The first column of N^2 that is nonzero, searched among columns
    1..64, is reported as ``square_nonzero_column``.
    """
    nil = pair.nilpotent
    cube = nil @ nil @ nil
    for g in range(1, depth + 1):
        col = cube.apply(g)
        if col:
            return Verdict(
                passed=False,
                claim="nil-index-three",
                witness={"cube_column": g, "support": sorted(col)},
                inputs={"columns_checked": depth},
            )
    square = nil @ nil
    square_support = next((g for g in range(1, 65) if square.apply(g)), None)
    if square_support is None:
        return Verdict(
            passed=False,
            claim="nil-index-three",
            witness={"inconsistency": "square vanished on all columns up to 64"},
            inputs={"columns_checked": depth},
        )
    return Verdict(
        passed=True,
        claim="nil-index-three",
        witness=None,
        margin=None,
        inputs={"columns_checked": depth, "square_nonzero_column": square_support},
    )


# Largest finite section the certified check builds.  Sections are still
# dense w x w arrays: `sweep --grid 0.1,0.4 --window 4096` peaks at 348 MiB
# resident (ru_maxrss of a child process, numpy 2.4 with OpenBLAS).
MAX_WINDOW = 4096


def certified_halmos_popa_check(
    eps: float,
    window: int = 512,
    rel_tol: float = 1e-6,
    pair: HalmosPair | None = None,
) -> Verdict:
    """One-sided certified check of the norm lower bound on the scaled pair.

    Computes certified lower bounds L_a <= |a|, L_b <= |b| from finite
    sections (a compression never overestimates the operator norm) and a
    certified upper bound U >= |nilpotent| from the exact 4x4 block-norm
    majorant, then checks L_a * L_b >= (1/2) ln(1 / U).  Only
    one-sided certificates enter, so a pass is a genuine certificate of the
    bound; a certified violation would indicate an implementation bug.
    The inputs also report the section lower bound L_n <= |nilpotent|.

    ``pair`` defaults to a fresh halmos_pair_scaled(); passing one pair to
    several calls reuses its memoized columns.  Raises ValueError for eps
    outside (0, 1] or a window outside [16, MAX_WINDOW], before any
    section is built.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if window < 16:
        raise ValueError("window must be at least 16")
    if window > MAX_WINDOW:
        raise ValueError(f"window must be at most {MAX_WINDOW}, got {window}")
    if pair is None:
        pair = halmos_pair_scaled()
    lower_a = operator_norm(compress(pair.a, window, eps), rel_tol=rel_tol).lower
    lower_b = operator_norm(compress(pair.b, window, eps), rel_tol=rel_tol).lower
    lower_n = operator_norm(compress(pair.nilpotent, window, eps), rel_tol=rel_tol).lower
    upper_n = operator_norm(halmos_nilpotent_majorant(eps), rel_tol=1e-12).upper
    vd = popa_bound(lower_a, lower_b, upper_n)
    return dataclasses.replace(
        vd,
        claim="certified-popa-scaled-pair",
        inputs={
            "eps": eps,
            "window": window,
            "norm_a_lower": lower_a,
            "norm_b_lower": lower_b,
            "norm_n_lower": lower_n,
            "norm_n_upper": upper_n,
            "bound": math.log(1.0 / upper_n) / 2.0,  # the bound popa_bound compared against
        },
    )
