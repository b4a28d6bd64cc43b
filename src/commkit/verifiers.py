"""Machine checks for commutator inequalities and obstructions.

Every checker re-verifies its hypotheses entrywise instead of trusting the
caller and reports them as separate verdicts, so both sides of each
implication are visible in the output.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .constructions import FactorPair, HalmosPair, halmos_nilpotent_majorant, halmos_pair_scaled
from .lazyops import LazyOp, _residue_columns, compress
from .matrices import (
    DynamicRangeError,
    _gamma,
    _square_inputs,
    commutator,
    entrywise_leq,
    identity,
    max_abs,
    operator_norm,
)
from .verdict import Verdict

__all__ = [
    "MAX_POWER",
    "MAX_WINDOW",
    "SECTION_REL_TOL",
    "certified_halmos_popa_check",
    "delta_threshold",
    "exact_commutator_identity_check",
    "factorization_checks",
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
    pair: the perturbation eps is too small for these norms.  Raises
    DynamicRangeError when norm_a * norm_b overflows.
    """
    _check_norm_inputs(norm_a, norm_b, alpha)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError("eps must be positive and finite")
    product = norm_a * norm_b
    if math.isinf(product):
        raise DynamicRangeError(f"norm_a * norm_b = {norm_a} * {norm_b} overflows double precision")
    # From the logarithms: 1 / (alpha * eps) overflows for a subnormal eps.
    bound = -(math.log(alpha) + math.log(eps)) / (2.0 * alpha)
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


def _in_range(value, what: str):
    """``value`` if every entry is finite: for results computed with overflow ignored."""
    if not np.isfinite(value).all():
        raise DynamicRangeError(f"{what} overflows double precision")
    return value


# Largest n_max power_inequality_report takes.  The report holds one verdict
# per power and each power costs four matrix products, so time and report
# grow linearly: without a limit, n_max = 100000 on 2 x 2 inputs ran 8.3 s
# and printed a 24 MB report.
MAX_POWER = 1000


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
    DynamicRangeError is raised when a power, a sum R_n, a commutator or
    a compared difference overflows; ValueError for n_max outside
    [1, MAX_POWER].
    """
    a, b, x = _square_inputs(a, b, x)
    if not 1 <= n_max <= MAX_POWER:
        raise ValueError(f"n_max must lie in [1, {MAX_POWER}], got {n_max}")
    if interior is not None and not (1 <= interior <= a.shape[0]):
        raise ValueError("interior window must lie within the matrix")
    size = a.shape[0]
    eye = identity(size)

    verdicts = []
    pre_a = entrywise_leq(_window(np.zeros_like(a), interior), _window(a, interior), tol)
    verdicts.append(dataclasses.replace(pre_a, claim="precondition-a-nonnegative"))
    # Every product, sum and difference is formed with overflow ignored and checked after.
    with np.errstate(over="ignore", invalid="ignore"):
        comm = _in_range(commutator(a, b), "the commutator AB - BA")
        pre_h = entrywise_leq(_window(eye + x, interior), _window(comm, interior), tol)
        _in_range(pre_h.margin, "[A,B] - (I + X)")
        verdicts.append(dataclasses.replace(pre_h, claim="precondition-commutator-dominates"))

        # One power and one running sum: R_1 = x and R_(n+1) = a R_n + x a^n
        # give R_n = sum_j a^(n-1-j) x a^j.
        power = eye
        tail = x
        for n in range(1, n_max + 1):
            if n > 1:
                tail = _in_range(a @ tail + x @ power, f"the sum R_{n}")
            rhs = _in_range(float(n) * power + tail, f"{n} A^{n - 1} + R_{n}")
            power = _in_range(power @ a, f"the power A^{n}")
            lhs = _in_range(commutator(power, b), f"the commutator [A^{n}, B]")
            vd = entrywise_leq(_window(rhs, interior), _window(lhs, interior), tol)
            _in_range(vd.margin, f"[A^{n}, B] - {n} A^{n - 1} - R_{n}")
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
    DynamicRangeError is raised when the commutator overflows.
    """
    a, b = _square_inputs(a, b)

    def signed(m: np.ndarray) -> bool:
        return float(m.min()) >= 0.0 or float(m.max()) <= 0.0

    if not (signed(a) or signed(b)):
        raise ValueError("neither matrix is entrywise signed")
    with np.errstate(over="ignore", invalid="ignore"):
        comm = _in_range(commutator(a, b), "the commutator AB - BA")
    diff = comm - identity(a.shape[0])
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


def finite_dim_obstructions(a, b, x, tol: float = 1e-9) -> list[Verdict]:
    """Trace, spectral-radius and idempotent obstructions for [A,B] >= I - X.

    Returns four verdicts: the re-verified hypothesis, then (i)
    trace(X) >= n, (ii) r(X) >= 1 together with |X| >= 1, and (iii) if X is
    idempotent then X = I.  All use ``tol``.  When the hypothesis fails the
    obstruction verdicts are vacuous and marked as such (their values are
    still reported).

    (i) and (ii) are decided by one certified lower side of the trace.
    fsum is correctly rounded, so T = nextafter(fsum, -inf) <= tr X.  The
    eigenvalues of X sum to tr X, so |X| >= r(X) >= |tr X| / n >= r_lower =
    nextafter(nextafter(|fsum|, 0) / n, 0), and one lower side certifies
    both halves of (ii).  DynamicRangeError is raised when the commutator,
    its difference from I - X, the trace or X X - X overflow.
    """
    a, b, x = _square_inputs(a, b, x)
    n = a.shape[0]
    eye = identity(n)

    with np.errstate(over="ignore", invalid="ignore"):
        comm = _in_range(commutator(a, b), "the commutator AB - BA")
        hyp = entrywise_leq(eye - x, comm, tol)
        _in_range(hyp.margin, "[A,B] - (I - X)")
        try:
            trace_x = math.fsum(np.diagonal(x).tolist())
        except OverflowError:
            raise DynamicRangeError("the trace of X overflows double precision") from None
        square_defect = _in_range(x @ x - x, "X X - X")
    trace_lower = _in_range(math.nextafter(trace_x, -math.inf), "the trace of X")
    hyp = dataclasses.replace(hyp, claim="obstruction-hypothesis")
    vacuous = not hyp.passed

    def obstruction(claim: str, holds: bool, margin: float | None, **witness) -> Verdict:
        """A failed hypothesis makes the obstruction pass vacuously, and says so."""
        if vacuous:
            witness["vacuous"] = True
        return Verdict(vacuous or holds, claim, witness, margin, {"size": n, "tol": tol})

    trace_margin = trace_lower - n
    radius_lower = math.nextafter(math.nextafter(abs(trace_x), 0.0) / n, 0.0)
    idem_defect = max_abs(square_defect)
    ident_defect = max_abs(x - eye)
    return [
        hyp,
        obstruction("obstruction-trace", trace_margin >= -tol, trace_margin,
                    trace=trace_x, trace_lower=trace_lower, size=n),
        obstruction("obstruction-spectral-radius", radius_lower >= 1.0 - tol, radius_lower - 1.0,
                    spectral_radius_lower=radius_lower),
        obstruction("obstruction-idempotent", idem_defect > tol or ident_defect <= tol, None,
                    idempotency_defect=idem_defect, identity_defect=ident_defect),
    ]


def _scaled_tol(tol: float, *factors: float) -> float:
    """tol times the factors, each at least 1, capped at the largest double.

    A tolerance at the cap passes every finite margin, as the uncapped
    product would, and keeps the report finite.  Capping each factor first
    keeps 0 * inf out.
    """
    for factor in factors:
        tol = min(tol * min(factor, sys.float_info.max), sys.float_info.max)
    return tol


def factorization_checks(
    c, pair: FactorPair, tol: float = 1e-9, eps: float | None = None
) -> list[Verdict]:
    """Verdicts that pair factors C as AB - BA and, with eps, that BA <= eps C.

    pair is nilpotent_commutator_factors(c, eps) when eps is given and
    trace_zero_commutator_factors(c) otherwise; each tolerance is tol widened
    by the rounding of that diagonal solve.  C is not copied.  Raises
    ValueError for a tol that is not finite and nonnegative, or unequal shapes.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    c = np.asarray(c, dtype=float)
    if not c.shape == pair.a.shape == pair.b.shape:
        raise ValueError(f"C, A and B differ in shape: {c.shape}, {pair.a.shape}, {pair.b.shape}")
    c_max = max_abs(c)
    if eps is None:
        residual_tol = _scaled_tol(tol, c.shape[0], max(c_max, 1.0))
    else:
        # Each entry of AB - BA is d_i b_ij - b_ij d_j, with no sums, so it is off by a few
        # ulps of c_ij (d_i + d_j) / |d_i - d_j|, and different ranks of the diagonal ratio
        # r = (1 + eps) / eps give (d_i + d_j) / |d_i - d_j| <= (r + 1) / (r - 1) = 1 + 2 eps.
        residual_tol = _scaled_tol(tol, 1.0 + c_max, 1.0 + 2.0 * eps)
    residual = max_abs(pair.a @ pair.b - pair.b @ pair.a - c)
    passed = residual <= residual_tol
    witness = None if passed else {"residual": residual}
    verdicts = [Verdict(passed, "reconstruction-residual", witness, residual_tol - residual,
                        {"residual": residual, "tolerance": residual_tol})]
    if eps is not None:
        # On an arc i -> j, BA_ij = c_ij / (rho - 1) for the float ratio rho = d_i / d_j. At
        # adjacent ranks rho is r = (1 + eps) / eps up to a few ulps, and BA_ij = eps c_ij at
        # rho = r.  A relative error delta in rho moves 1 / (rho - 1) by (1 + eps) delta, and
        # forming BA_ij and eps c_ij adds four roundings, so BA_ij can exceed eps c_ij by about
        # gamma_8 (1 + 2 eps) eps max c: far above an absolute tol once eps C is large.
        rounding = tol + _gamma(8) * (1.0 + 2.0 * eps)
        ba_tol = _scaled_tol(rounding, 1.0 + eps * c_max)
        vd = entrywise_leq(pair.b @ pair.a, eps * c, ba_tol)
        verdicts.append(dataclasses.replace(vd, claim="ba-below-eps-c"))
    return verdicts


def _first_nonzero_column(op: LazyOp) -> tuple[int | None, dict]:
    """The least g >= 1 with a nonzero column of op (None if every column is zero), and inputs.

    The columns are decided by residue classes mod M (see _residue_columns):
    a class whose symbolic column is empty vanishes for every g in it.  In a
    nonzero class, a label carrying a nonzero coefficient coincides with each
    of the other k - 1 labels at one t at most, so the concrete column is
    nonzero at some t in 0..k-1, and the scan below finds the first one.
    """
    modulus, columns = _residue_columns(op)
    firsts = [
        next(g for g in range(r, r + modulus * len(col), modulus) if op.apply(g))
        for r, col in enumerate(columns, start=1)
        if col
    ]
    inputs = {
        "residue_modulus": modulus,
        "residue_classes": sum(1 for col in columns if not col),
    }
    return min(firsts, default=None), inputs


def exact_commutator_identity_check(pair: HalmosPair) -> Verdict:
    """Prove [A, B] = I + N exactly on every basis column.

    The commutator defect [A, B] - I - N is evaluated in exact arithmetic on
    the residue classes of the column index mod M.  The inputs report M and
    the number of classes on which the defect vanishes identically; the
    identity holds on all of l2 when that is every class.  Otherwise the
    first nonzero entry of the first nonzero column is the witness.
    """
    defect = pair.commutator_defect()
    g, inputs = _first_nonzero_column(defect)
    if g is not None:
        idx, value = next(iter(defect.apply(g).items()))
        return Verdict(
            passed=False,
            claim="exact-commutator-identity",
            witness={"column": g, "basis_index": idx, "value": repr(value)},
            inputs=inputs,
        )
    return Verdict(
        passed=True,
        claim="exact-commutator-identity",
        witness=None,
        margin=0.0,
        inputs=inputs,
    )


def nil_index_three_check(pair: HalmosPair) -> Verdict:
    """Prove N^3 = 0 and N^2 != 0 on the basis columns, exactly.

    Both are decided by residue classes as in exact_commutator_identity_check,
    and the inputs report the classes of N^3.  The first nonzero column of
    N^2 is reported as ``square_nonzero_column``; a square that vanishes on
    every column fails as an inconsistency.
    """
    nil = pair.nilpotent
    cube = nil @ nil @ nil
    g, inputs = _first_nonzero_column(cube)
    if g is not None:
        return Verdict(
            passed=False,
            claim="nil-index-three",
            witness={"cube_column": g, "support": sorted(cube.apply(g))},
            inputs=inputs,
        )
    square_column, _ = _first_nonzero_column(nil @ nil)
    if square_column is None:
        return Verdict(
            passed=False,
            claim="nil-index-three",
            witness={"inconsistency": "square vanishes on every column"},
            inputs=inputs,
        )
    return Verdict(
        passed=True,
        claim="nil-index-three",
        inputs={**inputs, "square_nonzero_column": square_column},
    )


# Largest finite section the certified check builds.  Sections are still
# dense w x w arrays: `sweep --grid 0.1,0.4 --window 4096` peaks at 192 MiB
# resident (ru_maxrss of a child process, numpy 2.4 with OpenBLAS).
MAX_WINDOW = 4096

# Relative width of the section norm brackets: each lower bound lies within
# this fraction of its section's norm.
SECTION_REL_TOL = 1e-6


def _check_section_args(eps: float, window: int) -> None:
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if window < 16:
        raise ValueError("window must be at least 16")
    if window > MAX_WINDOW:
        raise ValueError(f"window must be at most {MAX_WINDOW}, got {window}")


def certified_halmos_popa_check(
    eps: float,
    window: int = 512,
    sections: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> Verdict:
    """One-sided certified check of the norm lower bound on the scaled pair.

    Computes certified lower bounds L_a <= |a|, L_b <= |b| from finite
    sections (a compression never overestimates the operator norm) and a
    certified upper bound U >= |nilpotent| from the exact 4x4 block-norm
    majorant, then checks L_a * L_b >= (1/2) ln(1 / U).  Only
    one-sided certificates enter, so a pass is a genuine certificate of the
    bound; a certified violation would indicate an implementation bug.
    The inputs also report the section lower bound L_n <= |nilpotent|.

    ``sections`` are the window x window sections of a, b and the
    nilpotent of halmos_pair_scaled() at eps, as compress builds them, for
    a caller that keeps them; by default each is built, certified and
    dropped in turn.  Raises ValueError for eps outside (0, 1] or a window
    outside [16, MAX_WINDOW], before any section is built, and for
    sections of the wrong number or shape.
    """
    _check_section_args(eps, window)
    if sections is None:
        pair = halmos_pair_scaled()
        ops = (pair.a, pair.b, pair.nilpotent)
        lowers = [operator_norm(compress(op, window, eps), SECTION_REL_TOL).lower for op in ops]
    else:
        if len(sections) != 3 or any(np.shape(s) != (window, window) for s in sections):
            raise ValueError(f"sections must be three {window}x{window} matrices")
        lowers = [operator_norm(s, SECTION_REL_TOL).lower for s in sections]
    lower_a, lower_b, lower_n = lowers
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
            "bound": -math.log(upper_n) / 2.0,  # the bound popa_bound compared against
        },
    )
