"""One benchmark child process: set up a workload's inputs, or run one pass.

Usage: python3 benchmarks/child.py TASK_JSON

The task file holds ``mode`` ("setup" or "pass"), the workload, seed, size
and work directory, and for a pass the invocations and whether to trace.
The result is printed as one JSON line on stdout.  Each pass runs in a fresh
process, so commkit's module-level memo caches start cold in every pass, as
they do for a user who starts the CLI.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_cli():
    """Import commkit.cli from the checkout's own source tree."""
    sys.path.insert(0, str(SRC))
    import commkit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"commkit was imported from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, inv: dict, tracer=None) -> dict:
    """Run one CLI invocation in-process; the timing covers cli.main only."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.call_root(cli.main, inv["argv"]) if tracer else cli.main(inv["argv"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            rc = f"uncaught {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    stdout = out.getvalue()
    written = len(stdout.encode()) + len(err.getvalue().encode())
    if inv.get("out") and os.path.exists(inv["out"]):
        written += os.path.getsize(inv["out"])
    return {"rc": rc, "seconds": seconds, "bytes": written, "stdout": stdout,
            "stderr": err.getvalue()[-2000:]}


def _checked(workloads, inv: dict, rec: dict, figures: dict) -> list[str]:
    problems, found = workloads.check(inv, rec["rc"], rec["stdout"])
    if problems and rec["stderr"]:
        problems.append(f"stderr: {rec['stderr'].strip()[-500:]}")
    command = " ".join(inv["argv"][1:3])
    problems = [f"{command}: {p}" for p in problems]
    figures["margins"] += found["margins"]
    figures["rows"] += found["rows"]
    if "slope_err" in found:
        figures["slope_err"] = found["slope_err"]
    return problems


def _certificates(workloads, figures: dict) -> dict:
    slope_err = figures.get("slope_err")
    if slope_err is None and len(figures["rows"]) >= 2:
        slope_err = workloads.slope_error(workloads.fitted_slopes(figures["rows"]))
    return {"margins": figures["margins"], "slope_err": slope_err}


def run_setup(task: dict) -> dict:
    start = time.perf_counter()
    cli = import_cli()
    import workloads

    checks_s = 0.0
    figures: dict = {"margins": [], "rows": []}
    setup_problems: list[list[str]] = []

    def setup_invoke(inv: dict) -> None:
        nonlocal checks_s
        rec = invoke(cli, inv)
        check_start = time.perf_counter()
        setup_problems.append(_checked(workloads, inv, rec, figures))
        checks_s += time.perf_counter() - check_start

    invocations = workloads.prepare(
        task["workload"], task["seed"], task["size"], Path(task["workdir"]), setup_invoke)
    setup_s = time.perf_counter() - start - checks_s
    return {
        "setup_s": setup_s,
        "invocations": invocations,
        "problems": setup_problems,
        **_certificates(workloads, figures),
        "environment": environment(),
    }


def run_pass(task: dict) -> dict:
    cli = import_cli()
    import workloads

    tracer = None
    if task["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    records = [invoke(cli, inv, tracer) for inv in task["invocations"]]
    # High-water mark of the CLI work, taken before the checks load outputs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures: dict = {"margins": [], "rows": []}
    problems = [_checked(workloads, inv, rec, figures)
                for inv, rec in zip(task["invocations"], records)]
    return {
        "seconds": [r["seconds"] for r in records],
        "bytes": [r["bytes"] for r in records],
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        **_certificates(workloads, figures),
        "trace": tracer.snapshot() if tracer else None,
    }


# -- machine and environment record ------------------------------------------


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        },
        "machine_settings": "no CPU pinning, cache drop or cgroup change was made; "
                            "the CPUs may be shared with other processes",
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be queried."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    task = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run_setup(task) if task["mode"] == "setup" else run_pass(task)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
