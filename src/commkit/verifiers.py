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
from .lazyops import LazyOp, _residue_columns, _section_entries, compress
from .matrices import (
    DynamicRangeError,
    UnconvergedError,
    _entries_norm,
    _gamma,
    _least_entry,
    _listed,
    _read_only,
    _square_inputs,
    commutator,
    entrywise_leq,
    max_abs,
)
from .scalars import _integer, _real
from .verdict import Verdict

__all__ = [
    "MAX_PAYLOAD_WINDOW",
    "MAX_POWER",
    "MAX_WINDOW",
    "SECTION_REL_TOL",
    "construct_halmos_checks",
    "exact_commutator_identity_check",
    "factorization_checks",
    "finite_dim_obstructions",
    "nil_index_three_check",
    "popa_bound",
    "power_inequality_report",
    "sweep_checks",
    "wielandt_violation_witness",
]


def popa_bound(norm_a: float, norm_b: float, eps: float, alpha: float = 1.0) -> Verdict:
    """Check norm_a * norm_b >= 1 / (2 alpha) * ln(1 / (alpha * eps)).

    This is the necessary condition for solvability of [a,b] >= e + x with
    |x| <= eps, a or b positive, in an algebra whose cone has normality
    constant alpha.  A FAIL certifies that no such x exists for the given
    pair: the perturbation eps is too small for these norms.  The norms are
    finite and nonnegative, eps finite and positive, and alpha finite and at
    least 1.  Raises DynamicRangeError when norm_a * norm_b overflows.
    """
    norm_a, norm_b = _real("norm_a", norm_a, 0), _real("norm_b", norm_b, 0)
    alpha = _real("alpha", alpha, 1)
    eps = _real("eps", eps, 0, low_open=True)
    product = norm_a * norm_b
    if math.isinf(product):
        raise DynamicRangeError(f"norm_a * norm_b = {norm_a} * {norm_b} overflows double precision")
    # From the logarithms: 1 / (alpha * eps) overflows for a subnormal eps.  Dividing by
    # alpha, then by 2, gives the bits of dividing by 2 alpha, which overflows past 8.98e307.
    bound = -(math.log(alpha) + math.log(eps)) / alpha / 2.0
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
    n_max = _integer("n_max", n_max, 1, MAX_POWER)
    if interior is not None:
        interior = _integer("interior", interior, 1, a.shape[0])
    size = a.shape[0]
    eye = np.identity(size)

    verdicts = []
    pre_a = entrywise_leq(_window(np.zeros_like(a), interior), _window(a, interior), tol)
    verdicts.append(dataclasses.replace(pre_a, claim="precondition-a-nonnegative"))
    # Every product, sum and difference is formed with overflow ignored and checked after.
    with np.errstate(over="ignore", invalid="ignore"):
        comm = _in_range(commutator(a, b), "the commutator AB - BA")
        pre_h = entrywise_leq(_window(eye + x, interior), _window(comm, interior), tol)
        del comm  # one n x n array less under the loop's products
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
        diff = _in_range(commutator(a, b), "the commutator AB - BA")
    diff[np.diag_indices_from(diff)] -= 1.0  # [A,B] - I, in place
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
    tol = _real("tol", tol, 0)
    n = a.shape[0]
    eye = np.identity(n)

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
    by the rounding of that diagonal solve.  C is not copied.  AB and BA
    are formed from A's diagonal d, as d_i b_ij and b_ij d_j: the entries the
    dense products give, with no n**3 work.  Raises ValueError for a tol
    that is not finite and nonnegative, an eps that is not finite and
    positive, unequal shapes, or an A with a nonzero entry off its diagonal.
    """
    tol = _real("tol", tol, 0)
    if eps is not None:
        eps = _real("eps", eps, 0, low_open=True)
    c = np.asarray(c, dtype=float)
    if not c.shape == pair.a.shape == pair.b.shape:
        raise ValueError(f"C, A and B differ in shape: {c.shape}, {pair.a.shape}, {pair.b.shape}")
    c_max = max_abs(c)
    d, b = np.diagonal(pair.a), pair.b
    if np.count_nonzero(pair.a) != np.count_nonzero(d):  # -0.0 counts as zero, as in A @ B
        raise ValueError("A must be diagonal: it has a nonzero entry off the diagonal")
    # Each entry of AB - BA - C is d_i b_ij - b_ij d_j - c_ij, with no sums, for
    # b_ij = c_ij / (d_i - d_j).  Rounding the gap and the quotient moves it by 2 u c_ij, the
    # two products by u (d_i + d_j) |b_ij| = u spread c_ij with spread = (d_i + d_j) / |d_i - d_j|,
    # and the two subtractions by u c_ij each, so away from underflow the computed residual is
    # at most (3 + spread) u c_max plus terms in u**2, below gamma_4 (1 + spread) c_max.  For
    # A = diag(1..n), spread <= 2n - 1; for the nilpotent diagonal, different ranks of the
    # ratio r = (1 + eps) / eps give spread <= (r + 1) / (r - 1) = 1 + 2 eps.  Underflow adds
    # absolute errors: b_ij can lose up to 2**-1075, which the reconstruction multiplies by
    # |d_i - d_j| <= max A, and each of the two products can lose 2**-1075 more; sums and
    # differences lose nothing to underflow.  That is at most 2**-1075 (max A + 2), and
    # ldexp(fl(max A + 2), -1074) stays above it after its own two roundings.
    if eps is None:
        spread = 2.0 * c.shape[0] - 1.0
        residual_tol = _scaled_tol(tol, c.shape[0], max(c_max, 1.0))
    else:
        spread = 1.0 + 2.0 * eps
        residual_tol = _scaled_tol(tol, 1.0 + c_max, spread)
    rounding = _scaled_tol(_gamma(4) * c_max, 1.0 + spread)
    underflow = math.ldexp(max_abs(d) + 2.0, -1074)
    residual_tol = min(residual_tol + rounding + underflow, sys.float_info.max)
    residual = max_abs(d[:, None] * b - b * d - c)
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
        # entrywise_leq(BA, eps C, ba_tol), with its difference eps C - BA written over eps C.
        ba = _read_only(b * d)
        diff = _read_only(eps * c)
        diff -= ba
        verdicts.append(dataclasses.replace(_least_entry(diff, ba_tol), claim="ba-below-eps-c"))
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


# Largest finite section the certified check takes.  Sections are certified
# from their listed entries, about 1.5 per column, with no dense w x w array:
# `sweep --grid 0.1,0.4 --window 4096` peaks at 32 MiB resident (ru_maxrss of
# a child process, numpy 2.4 with OpenBLAS), of which importing commkit takes
# 29 MiB; it peaked at 190 MiB with dense sections.
MAX_WINDOW = 4096

# Largest construct-halmos window.  Its payload holds three dense w x w
# sections, so memory grows with w**2: at eps 0.5 the peak resident set
# (ru_maxrss, numpy 2.4 with OpenBLAS) was 44 MiB at w = 512 and 86 MiB at 1024.
MAX_PAYLOAD_WINDOW = 1024

# Relative width of the section norm brackets: each lower bound lies within
# this fraction of its section's norm.
SECTION_REL_TOL = 1e-6


def _norm_rows(grid: list[float], window: int) -> list[tuple[dict, Verdict | None]]:
    """The certified norm row at each eps of grid, and its popa_bound verdict.

    The row holds certified lower bounds L_a <= |a|, L_b <= |b| and
    L_n <= |nilpotent| from the window x window sections of
    halmos_pair_scaled() at eps (a compression never overestimates the
    operator norm), and a certified upper bound U >= |nilpotent| from the
    exact 4x4 block-norm majorant.  The verdict is popa_bound(L_a, L_b, U),
    the check L_a * L_b >= (1/2) ln(1 / U).  Only one-sided certificates
    enter, so a pass is a genuine certificate of the bound; a certified
    violation would indicate an implementation bug.

    Each operator's sections are listed from their entries
    (lazyops._section_entries) at every eps at once, as one family, and the
    majorants make a fourth; the four are certified in one _entries_norm
    pass, the blocks of each shape as one stack.  A norm that does not
    converge marks its point's row with the error, and that verdict is None.
    An OverflowError or DynamicRangeError is raised as the points, taken one
    at a time in grid order, first meet it.
    """
    pair = halmos_pair_scaled()
    try:
        families = [((window, window), _section_entries(op, window, grid), SECTION_REL_TOL)
                    for op in (pair.a, pair.b, pair.nilpotent)]
        majorants = np.array([halmos_nilpotent_majorant(eps) for eps in grid])
        certs = _entries_norm(families + [((4, 4), _listed(majorants), 1e-12)])
        rows = []
        for eps, point in zip(grid, zip(*certs)):
            row: dict = {"eps": eps, "window": window, "converged": True}
            failed = [cert for cert in point if isinstance(cert, UnconvergedError)]
            if failed:  # the first norm that did not converge, in the order a, b, N, majorant
                row.update(converged=False, error=str(failed[0]))
                rows.append((row, None))
                continue
            norm_a, norm_b, norm_n, majorant = point
            vd = popa_bound(norm_a.lower, norm_b.lower, majorant.upper)
            row.update(norm_a_lower=norm_a.lower, norm_b_lower=norm_b.lower,
                       norm_n_lower=norm_n.lower, norm_n_upper=majorant.upper,
                       bound=-math.log(majorant.upper) / 2.0,  # what popa_bound compared against
                       margin=vd.margin)
            rows.append((row, vd))
        return rows
    except (OverflowError, DynamicRangeError):
        if len(grid) > 1:
            for eps in grid:
                _norm_rows([eps], window)
        raise


def construct_halmos_checks(eps: float, window: int) -> tuple[list[Verdict], dict, dict]:
    """What construct-halmos reports at eps: (verdicts, row, sections).

    The verdicts are the exact proofs of [A, B] = I + N and of N's nil-index,
    the row is that of sweep_checks, and sections maps "A", "B" and "N" to
    the sections of halmos_pair_scaled() at eps.  Raises ValueError, before
    any section is listed, for eps outside (0, 1] or a window that is
    not an integer in [16, MAX_PAYLOAD_WINDOW].
    """
    eps = _real("eps", eps, 0, 1, low_open=True)
    window = _integer("window", window, 16, MAX_PAYLOAD_WINDOW)
    ((row, _),) = _norm_rows([eps], window)
    pair = halmos_pair_scaled()
    sections = {key: compress(op, window, eps)
                for key, op in (("A", pair.a), ("B", pair.b), ("N", pair.nilpotent))}
    return [exact_commutator_identity_check(pair), nil_index_three_check(pair)], row, sections


def sweep_checks(grid: list[float], window: int) -> tuple[list, list[Verdict], dict | None, list]:
    """What sweep reports over an eps grid: (rows, verdicts, slopes, notes).

    Each point gives its certified norm row (_norm_rows) and, if its norms
    converged, its popa_bound verdict, claimed as certified-popa-eps-<eps>;
    the points are certified as one batch.  Slopes are fitted to the
    converged rows; the notes say why there are none, or how uncertain they
    are.  Raises ValueError, before any section is listed, for an empty grid,
    a value outside (0, 1] or repeated, or a window that is not an integer
    in [16, MAX_WINDOW], and UnconvergedError when no point converged.
    """
    if not grid:
        raise ValueError("grid is empty")
    grid = [_real("eps", eps, 0, 1, low_open=True) for eps in grid]
    for k, eps in enumerate(grid):
        if eps in grid[:k]:
            raise ValueError(f"grid value {eps} is repeated")
    window = _integer("window", window, 16, MAX_WINDOW)
    rows, verdicts, notes = [], [], []
    for eps, (row, vd) in zip(grid, _norm_rows(grid, window)):
        rows.append(row)
        if vd is not None:
            verdicts.append(dataclasses.replace(
                vd, claim=f"certified-popa-eps-{eps!r}", inputs={"eps": eps, "window": window}
            ))
    if not verdicts:
        raise UnconvergedError(f"no grid point converged: {rows[-1]['error']}")
    slopes = None
    good = [r for r in rows if r["converged"]]
    if len(good) < len(rows):
        notes.append(f"{len(rows) - len(good)} grid point(s) did not converge; rows marked")
    if len(good) >= 2:
        log_lower = {name: np.log([r[f"{name}_lower"] for r in good])
                     for name in ("norm_a", "norm_b", "norm_n")}
        slopes, error = _fit_slopes(np.log([r["eps"] for r in good]), log_lower)
        if slopes is None:
            notes.append("slopes need two grid points whose eps differ in log")
        elif error > 1e-3:  # slopes print to 4 decimals
            notes.append(
                f"slopes are uncertain by up to {error:.3g}: the grid's spread in log eps is "
                f"too small for lower bounds within rel_tol={SECTION_REL_TOL:g} of the norms"
            )
    else:
        notes.append("slopes need at least 2 converged grid points")
    return rows, verdicts, slopes, notes


def _fit_slopes(x: np.ndarray, ys: dict[str, np.ndarray]) -> tuple[dict[str, float] | None, float]:
    """Least-squares slope of each y over x, and how far it can lie from the section norms' slope.

    With the deviations d = x - mean(x), the slope is sum(d y) / sum(d**2).
    Each log lower bound lies in [y - delta, y], y the log section norm and
    delta = -ln(1 - SECTION_REL_TOL), and the d sum to zero, so the slope moves
    by delta sum|d| / (2 sum(d**2)).  When distinct eps share a logarithm,
    sum(d**2) is 0 and there are no slopes.
    """
    dev = x - x.mean()
    spread = float((dev * dev).sum())
    if spread == 0.0:
        return None, math.inf
    delta = -math.log1p(-SECTION_REL_TOL)
    slopes = {name: float((dev * y).sum()) / spread for name, y in ys.items()}
    return slopes, delta * float(np.abs(dev).sum()) / (2.0 * spread)
