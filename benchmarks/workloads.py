"""Workloads of the commkit benchmark: seeded inputs, CLI invocations, output checks.

An invocation is a JSON-serialisable dict: ``argv`` for ``commkit.cli.main``,
the ``expect_exit`` code, the ``check`` kind that validates its outputs, and
the parameters that check needs.  Inputs are written by the benchmark's own
writer in the documented dense JSON form, so a change to the program's writer
cannot change what the readers are given.  See README.md beside this file for
why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

GRID = (0.05, 0.1, 0.2, 0.4)

# Fitted log-log slopes of the section norms predicted by the construction:
# |a|, |b| ~ eps**-3 and |nilpotent| ~ eps.
THEORY_SLOPES = {"norm_a": -3.0, "norm_b": -3.0, "norm_n": 1.0}

# A sweep slope further than this from theory fails the correctness gate.
# The seed code fits slopes within 0.015 of theory at every window >= 64.
SLOPE_TOL = 0.1

SIZES = {
    "full": {
        "sweep_window": 512,
        "halmos_window": 128,
        "n": 400,
        "section_window": 256,
        "section_interior": 64,
    },
    "smoke": {
        "sweep_window": 64,
        "halmos_window": 64,
        "n": 20,
        "section_window": 64,
        "section_interior": 16,
    },
}

# The matrix-files workload builds its power-inequality inputs with
# construct-halmos at SECTION_EPS; the second point gives a slope to check.
SECTION_EPS = 0.5
SLOPE_EPS = 0.25
NILPOTENT_DENSITY = 0.01
POWER_N_MAX = 4


def _write_dense(path: Path, a: np.ndarray) -> str:
    obj = {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": a.ravel().tolist()}
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _shuffled_grid(seed: int) -> list[float]:
    grid = list(GRID)
    random.Random(seed).shuffle(grid)
    return grid


def prepare(workload: str, seed: int, size: str, workdir: Path, invoke) -> list[dict]:
    """Write the workload's inputs under ``workdir``; return its pass invocations.

    ``invoke(inv)`` runs and checks one CLI invocation during set-up; the
    matrix-files workload uses it to build halmos sections with the CLI.
    The same seed always gives the same inputs and invocations.
    """
    dims = SIZES[size]
    inp = workdir / "in"
    out = workdir / "out"
    inp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    if workload == "sweep-norms":
        # The seed orders the grid; the fitted slopes do not depend on order.
        grid = _shuffled_grid(seed)
        path = str(out / "sweep.json")
        return [{
            "argv": ["--json", "sweep", "--grid", ",".join(f"{e:g}" for e in grid),
                     "--window", str(dims["sweep_window"]), "--out", path],
            "expect_exit": 0,
            "check": "sweep",
            "grid": grid,
            "out": path,
        }]
    if workload == "halmos-exact":
        return [
            _halmos_invocation(eps, dims["halmos_window"], out / f"halmos-{i}.json")
            for i, eps in enumerate(_shuffled_grid(seed))
        ]
    if workload == "matrix-files":
        return _prepare_matrix_files(seed, dims, inp, out, invoke)
    raise ValueError(f"unknown workload {workload!r}")


def _halmos_invocation(eps: float, window: int, path: Path) -> dict:
    return {
        "argv": ["--json", "construct-halmos", "--eps", f"{eps:g}", "--window", str(window),
                 "--out", str(path)],
        "expect_exit": 0,
        "check": "halmos",
        "eps": eps,
        "window": window,
        "out": str(path),
    }


def _prepare_matrix_files(seed: int, dims: dict, inp: Path, out: Path, invoke) -> list[dict]:
    n = dims["n"]
    rng = np.random.default_rng(seed)
    # Nonnegative nilpotent input: strictly upper-triangular support at 1%
    # density, hidden behind a random permutation.
    upper = np.triu(rng.uniform(0.5, 1.5, (n, n)), 1) * (rng.random((n, n)) < NILPOTENT_DENSITY)
    perm = rng.permutation(n)
    c_nil = _write_dense(inp / "c_nilpotent.json", upper[np.ix_(perm, perm)])
    dense = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(dense, 0.0)
    c_tz = _write_dense(inp / "c_tracezero.json", dense)
    a = rng.uniform(0.0, 1.0, (n, n))
    b = rng.uniform(0.0, 1.0, (n, n))
    # X = I - [A, B] makes the obstruction hypothesis [A, B] >= I - X hold.
    x = np.identity(n) - (a @ b - b @ a)
    a_path = _write_dense(inp / "a.json", a)
    b_path = _write_dense(inp / "b.json", b)
    x_path = _write_dense(inp / "x.json", x)

    window = dims["section_window"]
    for eps in (SLOPE_EPS, SECTION_EPS):
        invoke(_halmos_invocation(eps, window, inp / f"halmos-{eps:g}.json"))
    sections = json.loads((inp / f"halmos-{SECTION_EPS:g}.json").read_text(encoding="utf-8"))
    section_paths = {}
    for key in ("A", "B", "N"):
        path = inp / f"section_{key}.json"
        path.write_text(json.dumps(sections[key]), encoding="utf-8")
        section_paths[key] = str(path)

    fn_out, ft_out = str(out / "factors_nilpotent.json"), str(out / "factors_tracezero.json")
    return [
        {"argv": ["--json", "factor", "nilpotent", "--input", c_nil, "--eps", "1", "--out", fn_out],
         "expect_exit": 0, "check": "factor", "kind": "nilpotent", "eps": 1.0,
         "input": c_nil, "out": fn_out},
        {"argv": ["--json", "factor", "tracezero", "--input", c_tz, "--out", ft_out],
         "expect_exit": 0, "check": "factor", "kind": "tracezero", "input": c_tz, "out": ft_out},
        {"argv": ["--json", "verify", "obstructions", "--input-a", a_path, "--input-b", b_path,
                  "--input-x", x_path],
         "expect_exit": 0, "check": "verify", "verdicts": 4},
        {"argv": ["--json", "verify", "wielandt", "--input-a", a_path, "--input-b", b_path],
         "expect_exit": 0, "check": "verify", "verdicts": 1},
        {"argv": ["--json", "verify", "power", "--input-a", section_paths["A"],
                  "--input-b", section_paths["B"], "--input-x", section_paths["N"],
                  "--n-max", str(POWER_N_MAX), "--interior", str(dims["section_interior"])],
         "expect_exit": 0, "check": "verify", "verdicts": 2 + POWER_N_MAX},
    ]


# -- output checks ------------------------------------------------------------


def _load_matrix(obj: dict) -> np.ndarray:
    return np.array(obj["data"], dtype=float).reshape(int(obj["rows"]), int(obj["cols"]))


def _read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def slope_error(slopes: dict) -> float:
    """Largest distance of a fitted slope from THEORY_SLOPES (inf if one is missing)."""
    return max(abs(slopes.get(k, math.inf) - v) for k, v in THEORY_SLOPES.items())


def fitted_slopes(rows: list[dict]) -> dict:
    """Log-log slopes of the lower norm bounds in halmos report rows against eps."""
    log_eps = np.log([r["eps"] for r in rows])
    return {
        name: float(np.polyfit(log_eps, np.log([r[f"{name}_lower"] for r in rows]), 1)[0])
        for name in THEORY_SLOPES
    }


def check(inv: dict, rc: int, stdout: str) -> tuple[list[str], dict]:
    """Validate one invocation's exit code, report and output files.

    Returns the problems found (empty when correct) and the certificate
    figures the report carried: ``margins`` of the norm lower bound,
    halmos ``rows`` and sweep ``slope_err``.
    """
    figures: dict = {"margins": [], "rows": []}
    if rc != inv["expect_exit"]:
        return [f"exit code {rc}, expected {inv['expect_exit']}"], figures
    if rc != 0:
        return [], figures
    try:
        report = json.loads(stdout)
        problems = [f"verdict {v['claim']} failed" for v in report["verdicts"] if not v["passed"]]
        return problems + _CHECKS[inv["check"]](inv, report, figures), figures
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"], figures


def _check_sweep(inv: dict, report: dict, figures: dict) -> list[str]:
    problems = []
    rows = report["tables"]
    if len(rows) != len(inv["grid"]) or len(report["verdicts"]) != len(inv["grid"]):
        problems.append(f"sweep has {len(rows)} rows and {len(report['verdicts'])} verdicts "
                        f"for {len(inv['grid'])} grid points")
    problems += [f"sweep row eps={r['eps']} did not converge" for r in rows if not r["converged"]]
    err = slope_error(report["slopes"] or {})
    if not err <= SLOPE_TOL:
        problems.append(f"sweep slopes {report['slopes']} are {err:.4g} from theory, "
                        f"tolerance {SLOPE_TOL}")
    figures["slope_err"] = err
    figures["margins"] = [v["margin"] for v in report["verdicts"]]
    written = _read_json(inv["out"])
    if written["verdicts"] != report["verdicts"] or written["slopes"] != report["slopes"]:
        problems.append("sweep report file differs from the printed report")
    return problems


def _check_halmos(inv: dict, report: dict, figures: dict) -> list[str]:
    problems = []
    claims = {v["claim"] for v in report["verdicts"]}
    if claims != {"exact-commutator-identity", "nil-index-three"}:
        problems.append(f"construct-halmos verdicts {sorted(claims)}")
    (row,) = report["tables"]
    if not row["converged"] or not row["margin"] >= 0.0:
        problems.append(f"halmos row eps={row['eps']} converged={row['converged']} "
                        f"margin={row.get('margin')}")
    else:
        figures["margins"] = [row["margin"]]
        figures["rows"] = [row]
    payload = _read_json(inv["out"])
    w = inv["window"]
    a, b, nil = (_load_matrix(payload[k]) for k in ("A", "B", "N"))
    if any(m.shape != (w, w) for m in (a, b, nil)):
        return problems + [f"sections are not {w}x{w}"]
    if a.min() < 0.0 or b.min() < 0.0:
        problems.append("sections of a and b are not entrywise nonnegative")
    # Away from the truncation edge the sections satisfy [A,B] = I + N exactly.
    k = w // 2
    defect = (a @ b - b @ a)[:k, :k] - np.identity(k) - nil[:k, :k]
    tol = 1e-9 * (1.0 + float(np.abs(a).max() * np.abs(b).max()))
    if float(np.abs(defect).max()) > tol:
        problems.append(f"section identity defect {float(np.abs(defect).max()):.3g} > {tol:.3g}")
    return problems


def _check_factor(inv: dict, report: dict, figures: dict) -> list[str]:
    problems = []
    c = _load_matrix(_read_json(inv["input"]))
    pair = _read_json(inv["out"])
    a, b = _load_matrix(pair["A"]), _load_matrix(pair["B"])
    n = c.shape[0]
    if a.shape != (n, n) or b.shape != (n, n):
        return [f"factor shapes {a.shape}, {b.shape} for input {c.shape}"]
    diag = np.diag(a)
    if np.count_nonzero(a - np.diag(diag)):
        problems.append("factor A is not diagonal")
    if inv["kind"] == "tracezero" and not np.array_equal(diag, np.arange(1.0, n + 1.0)):
        problems.append("tracezero factor A is not diag(1..n)")
    if inv["kind"] == "nilpotent":
        if not diag.min() > 0.0:
            problems.append("nilpotent factor A is not positive")
        excess = float((b @ a - inv["eps"] * c).max())
        if excess > 1e-9:
            problems.append(f"BA exceeds eps*C by {excess:.3g}")
    residual = float(np.abs(a @ b - b @ a - c).max())
    tol = 1e-9 * n * max(1.0, float(np.abs(c).max()))
    if residual > tol:
        problems.append(f"reconstruction residual {residual:.3g} > {tol:.3g}")
    return problems


def _check_verify(inv: dict, report: dict, figures: dict) -> list[str]:
    if len(report["verdicts"]) != inv["verdicts"]:
        return [f"{len(report['verdicts'])} verdicts, expected {inv['verdicts']}"]
    return []


_CHECKS = {
    "sweep": _check_sweep,
    "halmos": _check_halmos,
    "factor": _check_factor,
    "verify": _check_verify,
}
