"""Command-line front end: construct witnesses, factor matrices, verify, sweep.

Exit codes: 0 all verdicts passed, 1 at least one verdict failed, 2 on
input/usage errors.  Reports are emitted as JSON with --json, otherwise as
human-readable lines; matrices read JSON or CSV and are always written as
JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .constructions import (
    halmos_pair_scaled,
    nilpotent_commutator_factors,
    trace_zero_commutator_factors,
)
from .lazyops import compress
from .matrices import (
    UnconvergedError,
    _gamma,
    entrywise_leq,
    matrix_to_json_dict,
    max_abs,
    read_matrix,
)
from .verdict import Verdict
from .verifiers import (
    SECTION_REL_TOL,
    _check_section_args,
    certified_halmos_popa_check,
    exact_commutator_identity_check,
    finite_dim_obstructions,
    nil_index_three_check,
    popa_bound,
    power_inequality_report,
    wielandt_violation_witness,
)

SCHEMA_VERSION = 1

# Largest construct-halmos window.  Its payload holds three dense w x w
# sections as Python lists, so memory grows with w**2: at eps 0.5 the peak
# resident set (ru_maxrss, numpy 2.4) was 80 MB at w = 512 and 219 MB at 1024.
MAX_PAYLOAD_WINDOW = 1024


@dataclass
class RunReport:
    command: str
    parameters: dict[str, Any]
    verdicts: list[Verdict]
    tables: list[dict[str, Any]] | None = None
    slopes: dict[str, float] | None = None
    notes: list[str] = field(default_factory=list)
    # Fixed when the report is made, so every serialization of it agrees.
    timestamp: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "parameters": self.parameters,
            "verdicts": [v.to_json_dict() for v in self.verdicts],
            "tables": self.tables,
            "slopes": self.slopes,
            "notes": self.notes,
            "timestamp": self.timestamp,
            "version": __version__,
        }

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _emit(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    print(f"commkit {report.command}")
    for key, value in report.parameters.items():
        print(f"  {key} = {value}")
    for vd in report.verdicts:
        status = "PASS" if vd.passed else "FAIL"
        extra = ""
        if vd.margin is not None:
            extra = f"  margin={vd.margin:.6g}"
        print(f"{status} {vd.claim}{extra}")
        if not vd.passed and vd.witness:
            print(f"     witness: {vd.witness}")
    if report.tables:
        for row in report.tables:
            cells = "  ".join(f"{k}={_fmt(v)}" for k, v in row.items())
            print(f"  {cells}")
    if report.slopes:
        for name, slope in report.slopes.items():
            print(f"  slope {name} = {slope:.4f}")
    for note in report.notes:
        print(f"  note: {note}")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _norm_row(eps: float, window: int, sections=None) -> tuple[dict[str, Any], Verdict | None]:
    """Table row and verdict of the certified popa check at one grid point.

    An unconverged norm marks the row instead of aborting the run; its
    verdict is then None.
    """
    row: dict[str, Any] = {"eps": eps, "window": window, "converged": True}
    try:
        vd = certified_halmos_popa_check(eps, window, sections=sections)
    except UnconvergedError as exc:
        row["converged"] = False
        row["error"] = str(exc)
        return row, None
    row.update(vd.inputs)
    row["margin"] = vd.margin
    return row, vd


def _cmd_construct_halmos(args) -> RunReport:
    eps = args.eps
    _check_section_args(eps, args.window)  # before any section is built
    if args.window > MAX_PAYLOAD_WINDOW:
        raise ValueError(f"window must be at most {MAX_PAYLOAD_WINDOW}, got {args.window}")
    pair = halmos_pair_scaled()
    a, b, n = (compress(op, args.window, eps) for op in (pair.a, pair.b, pair.nilpotent))
    row, _ = _norm_row(eps, args.window, (a, b, n))
    verdicts = [exact_commutator_identity_check(pair), nil_index_three_check(pair)]
    payload = {
        "eps": eps,
        "window": args.window,
        "A": matrix_to_json_dict(a),
        "B": matrix_to_json_dict(b),
        "N": matrix_to_json_dict(n),
    }
    Path(args.out).write_text(json.dumps(payload), encoding="utf-8")
    return RunReport(
        command="construct-halmos",
        parameters={"eps": eps, "window": args.window, "out": str(args.out)},
        verdicts=verdicts,
        tables=[row],
    )


def _scaled_tol(tol: float, *factors: float) -> float:
    """tol times the factors, each at least 1, capped at the largest double.

    A tolerance at the cap passes every finite margin, as the uncapped
    product would, and keeps the report finite.  Capping each factor first
    keeps 0 * inf out.
    """
    for factor in factors:
        tol = min(tol * min(factor, sys.float_info.max), sys.float_info.max)
    return tol


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be finite and nonnegative, got {tol}")


def _cmd_factor(args) -> RunReport:
    tol = args.tol
    _require_tol(tol)
    c = read_matrix(args.input)
    if args.kind == "nilpotent":
        if args.eps is None:
            raise ValueError("--eps is required for kind=nilpotent")
        pair = nilpotent_commutator_factors(c, args.eps)
        # Each entry of AB - BA is d_i b_ij - b_ij d_j, with no sums, so it is off by a few
        # ulps of c_ij (d_i + d_j) / |d_i - d_j|, and different ranks of the diagonal ratio
        # r = (1 + eps) / eps give (d_i + d_j) / |d_i - d_j| <= (r + 1) / (r - 1) = 1 + 2 eps.
        residual_tol = _scaled_tol(tol, 1.0 + max_abs(c), 1.0 + 2.0 * args.eps)
    else:
        pair = trace_zero_commutator_factors(c)
        residual_tol = _scaled_tol(tol, c.shape[0], max(max_abs(c), 1.0))
    recon = pair.a @ pair.b - pair.b @ pair.a
    residual = max_abs(recon - c)
    verdicts = [
        Verdict(
            passed=residual <= residual_tol,
            claim="reconstruction-residual",
            witness=None if residual <= residual_tol else {"residual": residual},
            margin=residual_tol - residual,
            inputs={"residual": residual, "tolerance": residual_tol},
        )
    ]
    if args.kind == "nilpotent":
        # On an arc i -> j, BA_ij = c_ij / (rho - 1) for the float ratio rho = d_i / d_j. At
        # adjacent ranks rho is r = (1 + eps) / eps up to a few ulps, and BA_ij = eps c_ij at
        # rho = r.  A relative error delta in rho moves 1 / (rho - 1) by (1 + eps) delta, and
        # forming BA_ij and eps c_ij adds four roundings, so BA_ij can exceed eps c_ij by about
        # gamma_8 (1 + 2 eps) eps max c: far above an absolute tol once eps C is large.
        rounding = tol + _gamma(8) * (1.0 + 2.0 * args.eps)
        ba_tol = _scaled_tol(rounding, 1.0 + args.eps * max_abs(c))
        vd = entrywise_leq(pair.b @ pair.a, args.eps * c, ba_tol)
        verdicts.append(dataclasses.replace(vd, claim="ba-below-eps-c"))
    Path(args.out).write_text(json.dumps(pair.to_json_dict()), encoding="utf-8")
    return RunReport(
        command="factor",
        parameters={
            "kind": args.kind,
            "input": str(args.input),
            "eps": args.eps,
            "out": str(args.out),
            "tol": tol,
        },
        verdicts=verdicts,
    )


def _cmd_verify(args) -> RunReport:
    _require_tol(args.tol)
    suite = args.suite
    parameters: dict[str, Any] = {"suite": suite}
    if suite == "popa":
        if args.norm_a is None or args.norm_b is None or args.eps is None:
            raise ValueError("verify popa needs --norm-a, --norm-b and --eps")
        verdicts = [popa_bound(args.norm_a, args.norm_b, args.eps, args.alpha)]
        parameters.update(norm_a=args.norm_a, norm_b=args.norm_b, eps=args.eps, alpha=args.alpha)
    elif suite == "obstructions":
        a, b, x = _need_matrices(args, "obstructions", "input_a", "input_b", "input_x")
        verdicts = finite_dim_obstructions(a, b, x, tol=args.tol)
        parameters.update(input_a=args.input_a, input_b=args.input_b, input_x=args.input_x)
    elif suite == "wielandt":
        a, b = _need_matrices(args, "wielandt", "input_a", "input_b")
        verdicts = [wielandt_violation_witness(a, b)]
        parameters.update(input_a=args.input_a, input_b=args.input_b)
    else:  # power; argparse restricts the choices
        a, b, x = _need_matrices(args, "power", "input_a", "input_b", "input_x")
        verdicts = power_inequality_report(
            a, b, x, n_max=args.n_max, tol=args.tol, interior=args.interior
        )
        parameters.update(
            input_a=args.input_a,
            input_b=args.input_b,
            input_x=args.input_x,
            n_max=args.n_max,
            interior=args.interior,
        )
    return RunReport(command="verify", parameters=parameters, verdicts=verdicts)


def _need_matrices(args, suite: str, *names: str):
    paths = []
    for name in names:
        value = getattr(args, name)
        if value is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"verify {suite} needs {flag}")
        paths.append(value)
    return tuple(read_matrix(p) for p in paths)


def _cmd_sweep(args) -> RunReport:
    grid = _parse_grid(args.grid)
    if args.window < 64:
        raise ValueError("--window must be at least 64")
    rows = []
    verdicts = []
    notes = []
    for eps in grid:
        row, vd = _norm_row(eps, args.window)
        rows.append(row)
        if vd is not None:
            verdicts.append(dataclasses.replace(
                vd, claim=f"certified-popa-eps-{eps!r}", inputs={"eps": eps, "window": args.window}
            ))
    slopes = None
    good = [r for r in rows if r["converged"]]
    if len(good) < len(rows):
        notes.append(f"{len(rows) - len(good)} grid point(s) did not converge; rows marked")
    if len(good) >= 2:
        log_eps = np.log([r["eps"] for r in good])
        slopes = {
            name: float(np.polyfit(log_eps, np.log([r[f"{name}_lower"] for r in good]), 1)[0])
            for name in ("norm_a", "norm_b", "norm_n")
        }
        error = _slope_error_bound(log_eps)
        if error > 1e-3:  # slopes print to 4 decimals
            notes.append(
                f"slopes are uncertain by up to {error:.3g}: the grid's spread in log eps is "
                f"too small for lower bounds within rel_tol={SECTION_REL_TOL:g} of the norms"
            )
    else:
        notes.append("slopes need at least 2 converged grid points")
    report = RunReport(
        command="sweep",
        parameters={"grid": grid, "window": args.window, "out": str(args.out)},
        verdicts=verdicts,
        tables=rows,
        slopes=slopes,
        notes=notes,
    )
    Path(args.out).write_text(json.dumps(report.to_json_dict(), indent=2), encoding="utf-8")
    return report


def _slope_error_bound(x: np.ndarray) -> float:
    """How far the least-squares slope over x can lie from the section norms' slope.

    Each log lower bound lies in [y - delta, y], y the log section norm and
    delta = -ln(1 - SECTION_REL_TOL), and the deviations d = x - mean sum to
    zero, so the slope sum(d y) / sum(d**2) moves by delta sum|d| / (2 sum(d**2)).
    That is infinite when distinct eps share a logarithm.
    """
    dev = x - x.mean()
    spread = float((dev * dev).sum())
    delta = -math.log1p(-SECTION_REL_TOL)
    return delta * float(np.abs(dev).sum()) / (2.0 * spread) if spread > 0.0 else math.inf


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(cell) for cell in text.split(",") if cell.strip()]
    except ValueError:
        raise ValueError(f"--grid must be comma-separated numbers, got {text!r}") from None
    if not grid:
        raise ValueError("--grid is empty")
    for k, eps in enumerate(grid):
        if not (0.0 < eps <= 1.0):
            raise ValueError(f"grid value {eps} outside (0, 1]")
        if eps in grid[:k]:
            raise ValueError(f"grid value {eps} is repeated")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commkit",
        description="Construct and verify commutator phenomena for positive matrices and operators.",
    )
    parser.add_argument("--json", action="store_true", help="emit the run report as JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct-halmos", help="build the scaled operator pair and compress it")
    p_con.add_argument("--eps", type=float, required=True)
    p_con.add_argument("--window", type=int, default=512)
    p_con.add_argument("--out", required=True, help="output JSON path for the compressed matrices")
    p_con.set_defaults(handler=_cmd_construct_halmos)

    p_fac = sub.add_parser("factor", help="factor a positive matrix as a commutator")
    p_fac.add_argument("kind", choices=["nilpotent", "tracezero"])
    p_fac.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
    p_fac.add_argument("--eps", type=float, default=None)
    p_fac.add_argument("--tol", type=float, default=1e-9)
    p_fac.add_argument("--out", required=True, help="output JSON path for the factor pair")
    p_fac.set_defaults(handler=_cmd_factor)

    p_ver = sub.add_parser("verify", help="run one verification suite")
    p_ver.add_argument("suite", choices=["popa", "obstructions", "wielandt", "power"])
    p_ver.add_argument("--norm-a", dest="norm_a", type=float, default=None)
    p_ver.add_argument("--norm-b", dest="norm_b", type=float, default=None)
    p_ver.add_argument("--eps", type=float, default=None)
    p_ver.add_argument("--alpha", type=float, default=1.0)
    p_ver.add_argument("--tol", type=float, default=1e-9)
    p_ver.add_argument("--n-max", dest="n_max", type=int, default=6)
    p_ver.add_argument("--interior", type=int, default=None)
    p_ver.add_argument("--input-a", dest="input_a", default=None)
    p_ver.add_argument("--input-b", dest="input_b", default=None)
    p_ver.add_argument("--input-x", dest="input_x", default=None)
    p_ver.set_defaults(handler=_cmd_verify)

    p_sw = sub.add_parser("sweep", help="norm scaling table over an eps grid")
    p_sw.add_argument("--grid", required=True, help="comma-separated eps values in (0, 1]")
    p_sw.add_argument("--window", type=int, default=512)
    p_sw.add_argument("--out", required=True, help="output JSON path for the report")
    p_sw.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except (ValueError, OSError, UnconvergedError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(report, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout; the verdict stands.  Point stdout at
        # devnull so the interpreter's exit-time flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
