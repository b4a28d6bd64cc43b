"""Command-line front end: construct witnesses, factor matrices, verify, sweep.

Exit codes: 0 all verdicts passed, 1 at least one verdict failed, 2 on
input/usage errors.  Reports are emitted as JSON with --json, otherwise as
human-readable lines; matrices read JSON or CSV and are always written as
JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from . import __version__
from .constructions import nilpotent_commutator_factors, trace_zero_commutator_factors
from .matrices import UnconvergedError, read_matrix, write_json
from .scalars import _real
from .verdict import Verdict
from .verifiers import (
    construct_halmos_checks,
    factorization_checks,
    finite_dim_obstructions,
    popa_bound,
    power_inequality_report,
    sweep_checks,
    wielandt_violation_witness,
)

SCHEMA_VERSION = 1


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


def _emit(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    print(f"commkit {report.command}")
    for key, value in report.parameters.items():
        print(f"  {key} = {value}")
    for vd in report.verdicts:
        margin = "" if vd.margin is None else f"  margin={vd.margin:.6g}"
        print(f"{'PASS' if vd.passed else 'FAIL'} {vd.claim}{margin}")
        if not vd.passed and vd.witness:
            print(f"     witness: {vd.witness}")
    for row in report.tables or []:
        print("  " + "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                               for k, v in row.items()))
    for name, slope in (report.slopes or {}).items():
        print(f"  slope {name} = {slope:.4f}")
    for note in report.notes:
        print(f"  note: {note}")


def _report(args, verdicts: list[Verdict], **extra) -> RunReport:
    """The report of args.command, whose parameters are the flags the command parsed."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("json", "command", "handler")}
    return RunReport(args.command, parameters, verdicts, **extra)


def _cmd_construct_halmos(args) -> RunReport:
    verdicts, row, sections = construct_halmos_checks(args.eps, args.window)
    write_json(args.out, {"eps": args.eps, "window": args.window, **sections})
    return _report(args, verdicts, tables=[row])


def _cmd_factor(args) -> RunReport:
    _real("tol", args.tol, 0)
    c = read_matrix(args.input)
    if args.kind == "nilpotent":
        pair, eps = nilpotent_commutator_factors(c, args.eps), args.eps
    else:
        pair, eps = trace_zero_commutator_factors(c), None
    verdicts = factorization_checks(c, pair, args.tol, eps)
    write_json(args.out, {"A": pair.a, "B": pair.b})
    return _report(args, verdicts)


def _cmd_popa(args) -> RunReport:
    return _report(args, [popa_bound(args.norm_a, args.norm_b, args.eps, args.alpha)])


def _cmd_wielandt(args) -> RunReport:
    a, b = read_matrix(args.input_a), read_matrix(args.input_b)
    return _report(args, [wielandt_violation_witness(a, b)])


def _read_abx(args) -> tuple:
    """Check --tol, then read --input-a, --input-b and --input-x."""
    _real("tol", args.tol, 0)
    return tuple(read_matrix(path) for path in (args.input_a, args.input_b, args.input_x))


def _cmd_obstructions(args) -> RunReport:
    return _report(args, finite_dim_obstructions(*_read_abx(args), tol=args.tol))


def _cmd_power(args) -> RunReport:
    verdicts = power_inequality_report(
        *_read_abx(args), n_max=args.n_max, tol=args.tol, interior=args.interior
    )
    return _report(args, verdicts)


def _cmd_sweep(args) -> RunReport:
    args.grid = _parse_grid(args.grid)  # the report gives the grid as parsed
    rows, verdicts, slopes, notes = sweep_checks(args.grid, args.window)
    report = _report(args, verdicts, tables=rows, slopes=slopes, notes=notes)
    Path(args.out).write_text(json.dumps(report.to_json_dict(), indent=2), encoding="utf-8")
    return report


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(cell) for cell in text.split(",") if cell.strip()]
    except ValueError:
        raise ValueError(f"--grid must be comma-separated numbers, got {text!r}") from None


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
    for p_kind in (p_nil, p_tz):
        p_kind.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
        p_kind.add_argument("--tol", type=float, default=1e-9)
        p_kind.add_argument("--out", required=True, help="output JSON path for the factor pair")

    p_ver = sub.add_parser("verify", help="run one verification suite")
    suites = p_ver.add_subparsers(dest="suite", required=True)
    p_popa = suites.add_parser("popa", help="closed-form norm product bound")
    for flag in ("--norm-a", "--norm-b", "--eps"):
        p_popa.add_argument(flag, type=float, required=True)
    p_popa.add_argument("--alpha", type=float, default=1.0)
    p_popa.set_defaults(handler=_cmd_popa)
    p_obs = suites.add_parser("obstructions", help="trace, spectral radius, idempotent checks")
    p_wie = suites.add_parser("wielandt", help="a negative entry of [A,B] - I")
    p_pow = suites.add_parser("power", help="entrywise power inequality for n = 1..n-max")
    for p_suite, inputs, handler in ((p_obs, "abx", _cmd_obstructions), (p_wie, "ab", _cmd_wielandt),
                                     (p_pow, "abx", _cmd_power)):
        p_suite.set_defaults(handler=handler)
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
    return 0 if all(vd.passed for vd in report.verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
