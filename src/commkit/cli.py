"""Command-line front end: construct witnesses, factor matrices, verify, sweep.

Exit codes: 0 all verdicts passed, 1 at least one verdict failed, 2 on
input/usage errors.  Reports are emitted as JSON with --json, otherwise as
human-readable lines; matrices read JSON or CSV and are always written as
JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .matrices import UnconvergedError, read_matrix, write_json
from .verdict import Verdict
from .verifiers import (
    SECTION_REL_TOL,
    certified_halmos_popa_check,
    exact_commutator_identity_check,
    factorization_checks,
    finite_dim_obstructions,
    nil_index_three_check,
    popa_bound,
    power_inequality_report,
    wielandt_violation_witness,
)

SCHEMA_VERSION = 1

# Largest construct-halmos window.  Its payload holds three dense w x w
# sections, so memory grows with w**2: at eps 0.5 the peak resident set
# (ru_maxrss, numpy 2.4 with OpenBLAS) was 44 MiB at w = 512 and 86 MiB at 1024.
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


def _norm_row(eps: float, window: int) -> tuple[dict[str, Any], Verdict | None]:
    """Table row and verdict of the certified popa check at one grid point.

    An unconverged norm marks the row instead of aborting the run; its
    verdict is then None.
    """
    row: dict[str, Any] = {"eps": eps, "window": window, "converged": True}
    try:
        vd = certified_halmos_popa_check(eps, window)
    except UnconvergedError as exc:
        row["converged"] = False
        row["error"] = str(exc)
        return row, None
    row.update(vd.inputs)
    row["margin"] = vd.margin
    return row, vd


def _cmd_construct_halmos(args) -> RunReport:
    eps = args.eps
    row, _ = _norm_row(eps, args.window)  # refuses a bad eps or window first
    if args.window > MAX_PAYLOAD_WINDOW:
        raise ValueError(f"window must be at most {MAX_PAYLOAD_WINDOW}, got {args.window}")
    pair = halmos_pair_scaled()
    a, b, n = (compress(op, args.window, eps) for op in (pair.a, pair.b, pair.nilpotent))
    verdicts = [exact_commutator_identity_check(pair), nil_index_three_check(pair)]
    write_json(args.out, {"eps": eps, "window": args.window, "A": a, "B": b, "N": n})
    return RunReport(
        command="construct-halmos",
        parameters={"eps": eps, "window": args.window, "out": str(args.out)},
        verdicts=verdicts,
        tables=[row],
    )


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be finite and nonnegative, got {tol}")


def _cmd_factor(args) -> RunReport:
    _require_tol(args.tol)
    c = read_matrix(args.input)
    if args.kind == "nilpotent":
        pair = nilpotent_commutator_factors(c, args.eps)
    else:
        pair = trace_zero_commutator_factors(c)
    verdicts = factorization_checks(c, pair, args.tol, args.eps)
    write_json(args.out, {"A": pair.a, "B": pair.b})
    return RunReport(
        command="factor",
        parameters={"kind": args.kind, "input": str(args.input), "eps": args.eps,
                    "out": str(args.out), "tol": args.tol},
        verdicts=verdicts,
    )


def _cmd_verify(args) -> RunReport:
    suite = args.suite
    parameters: dict[str, Any] = {"suite": suite}
    if suite == "popa":
        verdicts = [popa_bound(args.norm_a, args.norm_b, args.eps, args.alpha)]
        parameters.update(norm_a=args.norm_a, norm_b=args.norm_b, eps=args.eps, alpha=args.alpha)
    elif suite == "wielandt":
        a, b = read_matrix(args.input_a), read_matrix(args.input_b)
        verdicts = [wielandt_violation_witness(a, b)]
        parameters.update(input_a=args.input_a, input_b=args.input_b)
    else:  # obstructions or power; argparse restricts the choices
        _require_tol(args.tol)
        a, b, x = (read_matrix(path) for path in (args.input_a, args.input_b, args.input_x))
        parameters.update(input_a=args.input_a, input_b=args.input_b, input_x=args.input_x,
                          tol=args.tol)
        if suite == "obstructions":
            verdicts = finite_dim_obstructions(a, b, x, tol=args.tol)
        else:
            verdicts = power_inequality_report(
                a, b, x, n_max=args.n_max, tol=args.tol, interior=args.interior
            )
            parameters.update(n_max=args.n_max, interior=args.interior)
    return RunReport(command="verify", parameters=parameters, verdicts=verdicts)


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
        names = ("norm_a", "norm_b", "norm_n")
        log_lower = {name: np.log([r[f"{name}_lower"] for r in good]) for name in names}
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; each verify suite and factor kind takes only its flags."""
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
    p_fac.set_defaults(handler=_cmd_factor)
    kinds = p_fac.add_subparsers(dest="kind", required=True)
    p_nil = kinds.add_parser("nilpotent", help="C = AB - BA with BA <= eps C, for a nilpotent C")
    p_nil.add_argument("--eps", type=float, required=True)
    p_tz = kinds.add_parser("tracezero", help="C = AB - BA with A = diag(1..n)")
    p_tz.set_defaults(eps=None)
    for p_kind in (p_nil, p_tz):
        p_kind.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
        p_kind.add_argument("--tol", type=float, default=1e-9)
        p_kind.add_argument("--out", required=True, help="output JSON path for the factor pair")

    p_ver = sub.add_parser("verify", help="run one verification suite")
    p_ver.set_defaults(handler=_cmd_verify)
    suites = p_ver.add_subparsers(dest="suite", required=True)
    p_popa = suites.add_parser("popa", help="closed-form norm product bound")
    for flag in ("--norm-a", "--norm-b", "--eps"):
        p_popa.add_argument(flag, type=float, required=True)
    p_popa.add_argument("--alpha", type=float, default=1.0)
    p_obs = suites.add_parser("obstructions", help="trace, spectral radius, idempotent checks")
    p_wie = suites.add_parser("wielandt", help="a negative entry of [A,B] - I")
    p_pow = suites.add_parser("power", help="entrywise power inequality for n = 1..n-max")
    for p_suite, inputs in ((p_obs, "abx"), (p_wie, "ab"), (p_pow, "abx")):
        for key in inputs:
            p_suite.add_argument(f"--input-{key}", required=True, help="matrix file (JSON or CSV)")
    for p_suite in (p_obs, p_pow):
        p_suite.add_argument("--tol", type=float, default=1e-9)
    p_pow.add_argument("--n-max", type=int, default=6)
    p_pow.add_argument("--interior", type=int, default=None)

    p_sw = sub.add_parser("sweep", help="norm scaling table over an eps grid")
    p_sw.add_argument("--grid", required=True, help="comma-separated eps values in (0, 1]")
    p_sw.add_argument("--window", type=int, default=512)
    p_sw.add_argument("--out", required=True, help="output JSON path for the report")
    p_sw.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
