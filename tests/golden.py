"""The golden identity table: what a fixed set of CLI invocations print, exit with and write.

Each case runs commkit.cli.main in an empty directory that holds only the
inputs of INPUTS that its argv names, under their fixed relative names, so
every path a report echoes is the same on every machine.  The table records, per case:

- the exit code;
- the sha256 of stdout and of stderr, with the report timestamp blanked;
- for each file the case writes, the value hash of its matrices
  (oracles.values_digest), or the sha256 of its text with the timestamp
  blanked when it is a run report.

Cases whose bits come from LAPACK, libm pow or np.power, namely the sweep and
construct-halmos reports and the factor nilpotent files, carry "numpy_bits":
test_golden.py compares them only under the numpy major.minor the table
records, and every other case everywhere.

A change that moves an output regenerates the table, and names each case
that moved, and why, in CHANGES.md:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # one BLAS thread, as the benchmark runs, set before numpy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from commkit.cli import main
from commkit.constructions import halmos_pair_scaled
from commkit.lazyops import compress
from oracles import values_digest

TABLE = Path(__file__).with_name("golden.json")

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _seeded_csv(seed: int, keep) -> str:
    """A 12 x 12 nonnegative CSV from the stdlib generator: entry (i, j) in [0, 1) where keep(i, j)."""
    rng = random.Random(seed)
    return "".join(
        ",".join(repr(rng.random()) if keep(i, j) and rng.random() < 0.5 else "0" for j in range(12))
        + "\n"
        for i in range(12)
    )


def _dense_json(a) -> str:
    return json.dumps({"rows": len(a), "cols": len(a[0]), "data": np.ravel(a).tolist()})


def _matrix_files_inputs(seed: int, n: int = 64) -> dict[str, str]:
    """The matrix-files workload's inputs at size n, from the stdlib generator.

    As in benchmarks/workloads.py: a nilpotent C at 1% density behind a
    permutation, a trace-zero C, A, B and X = I - [A,B], and the sections of
    the scaled pair at eps 0.5.  A and B hold integers below 16, so every
    product a suite forms from A, B and X is exact, whatever the BLAS sums.
    """
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    nil = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.01:
                nil[perm[i]][perm[j]] = rng.uniform(0.5, 1.5)
    tz = [[0.0 if i == j else rng.random() for j in range(n)] for i in range(n)]
    a, b = (np.array([[float(rng.randrange(16)) for _ in range(n)] for _ in range(n)])
            for _ in "ab")
    pair = halmos_pair_scaled()
    return {
        "c_nilpotent.json": _dense_json(nil),
        "c_tracezero.json": _dense_json(tz),
        "a.json": _dense_json(a),
        "b.json": _dense_json(b),
        "x.json": _dense_json(np.identity(n) - (a @ b - b @ a)),
        **{f"section_{key}.json": _dense_json(compress(op, n, 0.5))
           for key, op in (("A", pair.a), ("B", pair.b), ("N", pair.nilpotent))},
    }


# Each case's directory holds the inputs its argv names, and no other.
INPUTS = {
    "m.csv": "0,1\n0,0\n",
    "nil.csv": _seeded_csv(12, lambda i, j: i < j),
    "tz.csv": _seeded_csv(13, lambda i, j: i != j),
    "nan.json": '{"rows": 1, "cols": 1, "data": [NaN]}',
    "trunc.json": '{"rows": 2, "cols": 2, "data": [0, 1,',
    "bad.csv": "0,1_0\n0,0\n",
    # Inputs whose commands leave the double range.
    "big.csv": "1e200,1e200\n1e200,1e200\n",
    "eye.csv": "1,0\n0,1\n",
    "negx.csv": "-1.7e308,0\n0,-1.7e308\n",
    "eps-c.csv": "0,1,0,5e298\n0,0,1,0\n0,0,0,1\n0,0,0,0\n",
    "low.csv": "0,0\n1e308,0\n",
    "tz-big.csv": "0,1.7e308\n1.7e308,0\n",
    **_matrix_files_inputs(64),
}

_ABX = ["--input-a", "m.csv", "--input-b", "m.csv", "--input-x", "m.csv"]


def _cases() -> list[tuple[str, list[str], bool]]:
    """(name, argv, numpy_bits) for every case, in table order."""
    cases = []

    def add(name, argv, numpy_bits=False, both=True):
        cases.append((name, argv, numpy_bits))
        if both:
            cases.append((name + "-json", ["--json", *argv], numpy_bits))

    # The nine forms of test_cli.py::test_report_parameters_are_the_command_flags.
    add("params-construct-halmos",
        ["construct-halmos", "--eps", "0.5", "--window", "16", "--out", "o.json"], True)
    add("params-sweep", ["sweep", "--grid", "0.2,0.4", "--window", "64", "--out", "o.json"], True)
    add("params-nilpotent",
        ["factor", "nilpotent", "--input", "m.csv", "--eps", "1", "--out", "o.json"], True)
    add("params-tracezero", ["factor", "tracezero", "--input", "m.csv", "--out", "o.json"])
    add("params-popa", ["verify", "popa", "--norm-a", "2", "--norm-b", "2", "--eps", "0.5"])
    add("params-popa-alpha",
        ["verify", "popa", "--norm-a", "2", "--norm-b", "2", "--eps", "0.5", "--alpha", "1.5"])
    add("params-obstructions", ["verify", "obstructions", *_ABX])
    add("params-wielandt", ["verify", "wielandt", "--input-a", "m.csv", "--input-b", "m.csv"])
    add("params-power", ["verify", "power", *_ABX])

    for window in ("16", "128"):
        for grid in ("0.05,0.1,0.2,0.4", "2.5e-103,1e-110", "0.3"):
            add(f"sweep-{window}-{grid}",
                ["sweep", "--grid", grid, "--window", window, "--out", "s.json"], True)
        add(f"sweep-{window}-0.5,0.5",
            ["sweep", "--grid", "0.5,0.5", "--window", window, "--out", "s.json"], both=False)
    # The three construct-halmos cases of test_cli.py::TestWrittenValues.
    for eps in ("0.05", "0.4", "1.0"):
        add(f"construct-halmos-{eps}",
            ["construct-halmos", "--eps", eps, "--window", "64", "--out", "h.json"], True)
    add("factor-tracezero", ["factor", "tracezero", "--input", "tz.csv", "--out", "f.json"])
    add("factor-nilpotent",
        ["factor", "nilpotent", "--input", "nil.csv", "--eps", "0.5", "--out", "f.json"], True)
    # The alpha cases of the popa bound: 2 * alpha overflows past 8.98e307.
    for norm, eps, alpha in (("0", "5e-324", "1e308"), ("0", "1e-300", "1.7e308"),
                             ("0", "0.5", "9e307"), ("1", "0.5", "8.99e307"), ("1", "0.5", "3")):
        add(f"popa-{norm}-{eps}-{alpha}",
            ["verify", "popa", "--norm-a", norm, "--norm-b", norm, "--eps", eps, "--alpha", alpha])

    # Refusals: one per flag and bad value, each exit 2 before anything is written.
    def refuse(name, argv):
        add("refuse-" + name, argv, both=False)

    for eps in ("0", "2", "-1", "nan", "inf"):
        refuse(f"construct-halmos-eps-{eps}",
               ["construct-halmos", "--eps", eps, "--window", "16", "--out", "h.json"])
        refuse(f"sweep-grid-{eps}", ["sweep", "--grid", eps, "--window", "16", "--out", "s.json"])
    for eps in ("0", "-1", "nan", "inf"):
        refuse(f"nilpotent-eps-{eps}",
               ["factor", "nilpotent", "--input", "nil.csv", "--eps", eps, "--out", "f.json"])
        refuse(f"popa-eps-{eps}", ["verify", "popa", "--norm-a", "1", "--norm-b", "1", "--eps", eps])
    for window in ("15", "1025", "4097"):
        refuse(f"construct-halmos-window-{window}",
               ["construct-halmos", "--eps", "0.5", "--window", window, "--out", "h.json"])
    for window in ("15", "4097"):
        refuse(f"sweep-window-{window}",
               ["sweep", "--grid", "0.5", "--window", window, "--out", "s.json"])
    for tol in ("-1", "nan", "inf"):
        refuse(f"nilpotent-tol-{tol}", ["factor", "nilpotent", "--input", "nil.csv", "--eps", "0.5",
                                        "--tol", tol, "--out", "f.json"])
        refuse(f"tracezero-tol-{tol}",
               ["factor", "tracezero", "--input", "tz.csv", "--tol", tol, "--out", "f.json"])
        refuse(f"obstructions-tol-{tol}", ["verify", "obstructions", *_ABX, "--tol", tol])
        refuse(f"power-tol-{tol}", ["verify", "power", *_ABX, "--tol", tol])
    for n_max in ("0", "1001"):
        refuse(f"power-n-max-{n_max}", ["verify", "power", *_ABX, "--n-max", n_max])
    for interior in ("0", "3"):  # m.csv is 2 x 2
        refuse(f"power-interior-{interior}", ["verify", "power", *_ABX, "--interior", interior])
    for alpha in ("0.5", "nan"):
        refuse(f"popa-alpha-{alpha}", ["verify", "popa", "--norm-a", "1", "--norm-b", "1",
                                       "--eps", "0.5", "--alpha", alpha])
    for norm in ("-1", "nan", "inf"):
        refuse(f"popa-norm-a-{norm}",
               ["verify", "popa", "--norm-a", norm, "--norm-b", "1", "--eps", "0.5"])
        refuse(f"popa-norm-b-{norm}",
               ["verify", "popa", "--norm-a", "1", "--norm-b", norm, "--eps", "0.5"])
    for path in ("nan.json", "trunc.json", "bad.csv", "absent.csv"):
        refuse(f"read-{path}", ["factor", "tracezero", "--input", path, "--out", "f.json"])

    # Every command path to a result that leaves the double range: exit 2.
    refuse("range-sweep-1e-60", ["sweep", "--grid", "1e-60", "--window", "16", "--out", "s.json"])
    for eps in ("1e-60", "1e-110"):
        refuse(f"range-construct-halmos-{eps}",
               ["construct-halmos", "--eps", eps, "--window", "16", "--out", "h.json"])
    refuse("range-popa",
           ["verify", "popa", "--norm-a", "1e200", "--norm-b", "1e200", "--eps", "0.5"])
    refuse("range-wielandt", ["verify", "wielandt", "--input-a", "big.csv", "--input-b", "big.csv"])
    refuse("range-power", ["verify", "power", "--input-a", "big.csv", "--input-b", "big.csv",
                           "--input-x", "eye.csv"])
    refuse("range-obstructions",
           ["verify", "obstructions", "--input-a", "m.csv", "--input-b", "m.csv",
            "--input-x", "negx.csv"])
    for name, path, eps in (("diagonal", "m.csv", "1e-320"), ("eps-c", "eps-c.csv", "1e10"),
                            ("products", "low.csv", "1")):
        refuse(f"range-nilpotent-{name}",
               ["factor", "nilpotent", "--input", path, "--eps", eps, "--out", "f.json"])
    refuse("range-tracezero", ["factor", "tracezero", "--input", "tz-big.csv", "--out", "f.json"])

    # The benchmark workloads' argv, with --json as they run it; matrix-files at n = 64.
    def workload(name, argv, numpy_bits=False):
        add("workload-" + name, ["--json", *argv], numpy_bits, both=False)

    workload("sweep-norms",
             ["sweep", "--grid", "0.1,0.4,0.05,0.2", "--window", "512", "--out", "s.json"], True)
    for k, eps in enumerate(("0.2", "0.05", "0.4", "0.1")):
        workload(f"halmos-exact-{k}",
                 ["construct-halmos", "--eps", eps, "--window", "128", "--out", f"h{k}.json"], True)
    workload("matrix-files-nilpotent", ["factor", "nilpotent", "--input", "c_nilpotent.json",
                                        "--eps", "1", "--out", "f.json"], True)
    workload("matrix-files-tracezero",
             ["factor", "tracezero", "--input", "c_tracezero.json", "--out", "f.json"])
    workload("matrix-files-obstructions", ["verify", "obstructions", "--input-a", "a.json",
                                           "--input-b", "b.json", "--input-x", "x.json"])
    workload("matrix-files-wielandt",
             ["verify", "wielandt", "--input-a", "a.json", "--input-b", "b.json"])
    workload("matrix-files-power",
             ["verify", "power", "--input-a", "section_A.json", "--input-b", "section_B.json",
              "--input-x", "section_N.json", "--n-max", "4", "--interior", "16"])
    return cases


CASES = _cases()


def _sha(text: str) -> str:
    return hashlib.sha256(_TIMESTAMP.sub('"timestamp": ""', text).encode()).hexdigest()


def run_case(argv: list[str], numpy_bits: bool) -> dict:
    """The table entry of main(argv), run in the current directory, which must be empty."""
    for name, text in INPUTS.items():
        if name in argv:
            Path(name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    files = {}
    for path in sorted(Path(".").iterdir()):
        if path.name not in INPUTS:
            text = path.read_text(encoding="utf-8")
            files[path.name] = _sha(text) if '"timestamp"' in text else values_digest(path)
    return {"argv": argv, "numpy_bits": numpy_bits, "exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue()), "files": files}


def numpy_minor() -> str:
    return ".".join(np.__version__.split(".")[:2])


def build() -> dict:
    entries = {}
    home = os.getcwd()
    for name, argv, numpy_bits in CASES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                entries[name] = run_case(argv, numpy_bits)
            finally:
                os.chdir(home)
    return {"numpy": numpy_minor(), "entries": entries}


if __name__ == "__main__":
    TABLE.write_text(json.dumps(build(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(CASES)} entries to {TABLE}", file=sys.stderr)
