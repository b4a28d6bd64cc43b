"""Mutation gate: each mutant drops one check, and tier-1 must fail without it.

A mutant is a named (file, old text, new text) substitution; the old text
must occur exactly once in its file.  For each mutant the script copies
src/, tests/, pyproject.toml and README.md to a temporary directory, applies
the substitution and runs tier-1 there with -x and a fixed hypothesis seed.
The mutant is caught when tier-1 fails.  The script exits 1 when the copy
fails tier-1 with no mutant applied, when a mutant survives that SURVIVORS
does not list with its reason, when a listed survivor is caught, or when a
substitution does not apply.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

It runs tier-1 once per mutant, so it takes minutes; it is not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")

MATRICES = "src/commkit/matrices.py"
CONSTRUCTIONS = "src/commkit/constructions.py"
VERIFIERS = "src/commkit/verifiers.py"

# name -> (file, old, new).  Each drops one range check, or the np.errstate that
# keeps an overflow from leaking as a RuntimeWarning, unless its name says otherwise.
MUTANTS = {
    "range-commutator": (
        MATRICES, 'return _in_range(a @ b - b @ a, "the commutator AB - BA")',
        "return a @ b - b @ a"),
    "range-commutator-errstate": (
        MATRICES, 'with np.errstate(over="ignore", invalid="ignore"):\n        return _in_range(',
        "with np.errstate():\n        return _in_range("),
    "range-least-entry": (
        MATRICES, "worst = _in_range(float(diff[i, j]), what)", "worst = float(diff[i, j])"),
    "range-entrywise-leq-errstate": (
        MATRICES, 'with np.errstate(over="ignore"):\n        return _least_entry(',
        "with np.errstate():\n        return _least_entry("),
    "range-operator-norm": (
        MATRICES, '_in_range(hi, "the operator norm")', "hi"),
    "range-diagonal-factors": (
        CONSTRUCTIONS, '_in_range(np.concatenate([scale * row_max, col_max * scale]), "B, AB',
        "(np.concatenate([scale * row_max, col_max * scale]), \"B, AB"),
    "range-nilpotent-eps-c": (
        CONSTRUCTIONS, '_in_range(eps * float(c.max()), "eps * C")', "eps * float(c.max())"),
    "range-popa-product": (
        VERIFIERS, 'product = _in_range(norm_a * norm_b, f"norm_a * norm_b = {norm_a} * {norm_b}")',
        "product = norm_a * norm_b"),
    "range-largest": (
        VERIFIERS, "return _in_range(float(np.abs(r, out=r).max()), what)",
        "return float(np.abs(r, out=r).max())"),
    "range-power-commutator": (
        VERIFIERS, 'comm = _in_range(a @ b - b @ a, "the commutator AB - BA")\n'
                   '        verdicts.append(',
        "comm = a @ b - b @ a\n        verdicts.append("),
    "range-power-sum": (
        VERIFIERS, 'tail = _in_range(a @ tail + x @ power, f"the sum R_{n}")',
        "tail = a @ tail + x @ power"),
    "range-power-rhs": (
        VERIFIERS, 'rhs = _in_range(float(n) * power + tail, f"{n} A^{n - 1} + R_{n}")',
        "rhs = float(n) * power + tail"),
    "range-power-power": (
        VERIFIERS, 'power = _in_range(power @ a, f"the power A^{n}")', "power = power @ a"),
    "range-power-lhs": (
        VERIFIERS, 'lhs = _in_range(power @ b - b @ power, f"the commutator [A^{n}, B]")',
        "lhs = power @ b - b @ power"),
    "range-wielandt-commutator": (
        VERIFIERS, 'diff = _in_range(a @ b - b @ a, "the commutator AB - BA")',
        "diff = a @ b - b @ a"),
    "range-obstructions-commutator": (
        VERIFIERS, 'comm = _in_range(a @ b - b @ a, "the commutator AB - BA")\n'
                   '        hyp = ',
        "comm = a @ b - b @ a\n        hyp = "),
    "range-obstructions-trace-lower": (
        VERIFIERS, 'trace_lower = _in_range(math.nextafter(trace_x, -math.inf), "the trace of X")',
        "trace_lower = math.nextafter(trace_x, -math.inf)"),
    "range-factorization-eps-c": (
        VERIFIERS, '_in_range(eps * c_max, "eps * C")', "eps * c_max"),
    "range-factorization-errstate": (
        VERIFIERS, 'with np.errstate(over="ignore"):\n            diff -= b * d',
        "with np.errstate():\n            diff -= b * d"),
    # Not a range check: a caller's non-finite B must stay an input error.
    "input-factorization-b": (
        VERIFIERS, "d, b = np.diagonal(pair.a), _read_only(pair.b)",
        "d, b = np.diagonal(pair.a), pair.b"),
    # Not a range check: 2 * alpha overflows past 8.98e307, where the bound is positive.
    "popa-divide-by-two-alpha": (
        VERIFIERS, "/ alpha / 2.0", "/ (2.0 * alpha)"),
}

# name -> why tier-1 cannot catch it.
SURVIVORS: dict[str, str] = {}


def run(name: str | None, work: Path) -> bool:
    """Whether tier-1 fails on a copy of the tree in the empty directory work, with mutant
    name applied (none for None)."""
    for item in COPIED:
        source = ROOT / item
        if source.is_dir():
            shutil.copytree(source, work / item, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, work / item)
    if name is not None:
        path, old, new = MUTANTS[name]
        text = (work / path).read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise ValueError(f"{name}: the old text occurs {text.count(old)} times in {path}")
        (work / path).write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=1"],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return result.returncode != 0


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:  # a failing copy would make every mutant caught
        if run(None, Path(work)):
            print("the copy fails tier-1 with no mutant applied", file=sys.stderr)
            return 1
    bad = []
    for name in names or list(MUTANTS):
        start = time.perf_counter()
        try:
            with tempfile.TemporaryDirectory() as work:
                caught = run(name, Path(work))
        except ValueError as exc:
            print(f"error   {exc}")
            bad.append(name)
            continue
        verdict = "caught" if caught else "SURVIVED"
        if caught == (name in SURVIVORS):
            bad.append(name)
            verdict += " (listed as a survivor)" if caught else " (not listed)"
        print(f"{verdict:<8} {name}  {time.perf_counter() - start:.1f} s", flush=True)
    print(f"{len(bad)} of {len(names or MUTANTS)} mutants need attention: {', '.join(bad)}"
          if bad else "every mutant is caught or a listed survivor")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
