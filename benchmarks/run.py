"""The commkit benchmark: CLI workloads timed end to end, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sweep-norms --seed 1 --seconds 35 --trace 0

Workloads: sweep-norms, halmos-exact, matrix-files (see README.md beside this
file).  The run is a closed loop: one process, one CLI command at a time.
Set-up runs several times (see SETUP_MIN_REPEATS), each in a fresh child
process that imports commkit and writes the seeded inputs.  Then passes run until ``--seconds``
have elapsed; each pass runs every invocation of the workload through
``commkit.cli.main`` in a fresh child process, timed around ``cli.main``,
and checks every output.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and it carries
the per-layer metrics.  The line before it is a JSON record of the samples,
the machine and the environment.  Exit code 0 means every invocation was
correct; 1 means some failed (the result line says how many); 2 means the
benchmark could not run at all.  ``--smoke`` runs toy sizes for tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sweep-norms", "halmos-exact", "matrix-files")
# Set-up repeats at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# have passed (at most SETUP_MAX_REPEATS), so that the import-only set-ups,
# which take ~0.1 s, still give setup_s a median over many samples.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 15
# Every run must end within 180 s; stop starting passes well before that.
RUN_LIMIT_S = 165.0
TAIL_BEYOND = 10
# One BLAS thread per child: with two threads on a shared 2-vCPU machine every
# dense product waits for the slower thread, which doubled the spread of
# pass times between runs.  The record line reports the thread count in use.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MEMO_CACHE_POLICY = (
    "each pass runs in a fresh child process, sequentially, so the unbounded per-column "
    "memo caches of the lazy operators (including the module-level isometry atoms) start "
    "cold in every pass, as for a CLI user; within a pass they are shared between "
    "invocations"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_s_tail": "s",
    "peak_rss_mb": "MB",
    "out_mb": "MB",
    "popa_margin_min": "1",
    "slope_err": "1",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed invocation)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes (window 64, n = 20)")
    return parser.parse_args(argv)


class Runner:
    """Spawns child processes for one benchmark run and enforces its time limit."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.size = "smoke" if args.smoke else "full"
        self.started = time.monotonic()
        self._tasks = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, mode: str, **fields) -> tuple[dict, float]:
        """Run one child task; return its result and its wall time."""
        self._tasks += 1
        task_file = self.workdir / f"task-{self._tasks}.json"
        task = {"mode": mode, "workload": self.args.workload, "seed": self.args.seed,
                "size": self.size, "workdir": str(self.workdir), **fields}
        task_file.write_text(json.dumps(task), encoding="utf-8")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(task_file)],
                capture_output=True, text=True, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                timeout=max(1.0, RUN_LIMIT_S + 10.0 - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the run's time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - start


def setup(runner: Runner, repeat: bool) -> list[dict]:
    """Set up once, or repeatedly; every set-up must produce the same invocations."""
    start = time.monotonic()
    results = [runner.child("setup")[0]]
    while repeat and len(results) < SETUP_MAX_REPEATS and (
            len(results) < SETUP_MIN_REPEATS or time.monotonic() - start < SETUP_MIN_SECONDS):
        results.append(runner.child("setup")[0])
    if any(r["invocations"] != results[0]["invocations"] for r in results):
        raise BenchError("set-ups with one seed produced different inputs")
    return results


def measure(runner: Runner) -> tuple[list[dict], list[dict]]:
    args = runner.args
    setups = setup(runner, repeat=not args.trace)
    invocations = setups[0]["invocations"]
    passes: list[dict] = []
    slowest = 0.0
    measure_start = time.monotonic()
    while (time.monotonic() - measure_start < args.seconds
           or not passes or (args.trace and len(passes) < 2)):
        if passes and runner.elapsed() + 1.5 * slowest > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        result, wall = runner.child("pass", invocations=invocations, trace=traced)
        result["traced"] = traced
        passes.append(result)
        slowest = max(slowest, wall)
        if any(result["problems"]):
            break  # a wrong answer is reported, not timed further
    return setups, passes


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, never below the median.

    Returns (percentile, value).  With fewer than 2 * TAIL_BEYOND + 1 samples
    no order statistic above the median has that many beyond it, and the
    median is returned as the 50th percentile.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - 1 - TAIL_BEYOND
    if 2 * rank <= n - 1:
        return 50.0, statistics.median(xs)
    return 100.0 * rank / (n - 1), xs[rank]


def end_to_end(setups, passes) -> tuple[dict, dict]:
    totals = [sum(p["seconds"]) for p in passes]
    percentile, tail_value = tail(totals)
    margins = [m for r in setups + passes for m in r["margins"]]
    slope_errs = [r["slope_err"] for r in setups + passes if r["slope_err"] is not None]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "pass_s": statistics.median(totals),
        "pass_s_tail": tail_value,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "out_mb": statistics.median(sum(p["bytes"]) for p in passes) / 1e6,
        "popa_margin_min": min(margins) if margins else None,
        "slope_err": max(slope_errs) if slope_errs else None,
    }
    detail = {
        "pass_s_samples": totals,
        "pass_s_tail": {"percentile": percentile, "samples": len(totals),
                        "beyond_at_least": TAIL_BEYOND},
        "setup_s_samples": [r["setup_s"] for r in setups],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, detail


def per_layer(passes) -> tuple[dict, dict]:
    from spans import APPLY, ROOT as ROOT_SPAN, SPANS

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    k = len(traced)
    if not traced or not plain:  # stopped early by a failure
        return {}, {"traced_passes": k, "untraced_passes": len(plain)}

    def mean_self(layer: str) -> float:
        return sum(p["trace"]["self_s"].get(layer, 0.0) for p in traced) / k

    def mean_count(name: str) -> float:
        return sum(p["trace"]["counts"].get(name, 0) for p in traced) / k

    metrics: dict = {}
    for layer in (*SPANS.values(), APPLY):
        metrics[f"{layer}_s"] = (mean_self(layer), "s")
    metrics["cli.self_s"] = (mean_self(ROOT_SPAN), "s")
    for layer in ("matrices.operator_norm", "lazyops.compress", APPLY):
        metrics[f"{layer}_calls"] = (mean_count(f"{layer}_calls"), "count")
    for name in ("scalars.mul_calls", "scalars.add_calls", "scalars.evaluate_calls"):
        metrics[name] = (mean_count(name), "count")
    cols = mean_count("matrices.norm_input_cols")
    metrics["matrices.norm_input_nnz_per_col"] = (
        mean_count("matrices.norm_input_nnz") / cols if cols else 0.0, "nnz/col")
    metrics["matrices.norm_input_dim_max"] = (
        max(p["trace"]["counts"].get("matrices.norm_input_dim_max", 0) for p in traced), "rows")
    metrics["matrices.read_bytes"] = (mean_count("matrices.read_bytes"), "bytes")
    metrics["cli.bytes_written"] = (sum(sum(p["bytes"]) for p in traced) / k, "bytes")
    traced_totals = [sum(p["seconds"]) for p in traced]
    metrics["cli.pass_s"] = (sum(traced_totals) / k, "s")
    metrics["trace_overhead_s"] = (
        statistics.median(traced_totals) - statistics.median(sum(p["seconds"]) for p in plain), "s")
    self_sum = sum(v for name, (v, unit) in metrics.items()
                   if unit == "s" and name not in ("cli.pass_s", "trace_overhead_s"))
    detail = {
        "traced_passes": k,
        "untraced_passes": len(plain),
        "self_time_share_of_traced_pass": self_sum / metrics["cli.pass_s"][0],
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}, detail


def _terminate(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "commkit" / "cli.py").is_file():
        print(f"error: commkit sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, workdir)
    try:
        setups, passes = measure(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    per_run = [r["problems"] for r in setups] + [p["problems"] for p in passes]
    problems = [msgs for run in per_run for msgs in run]
    attempted = len(problems)
    failures = [msgs for msgs in problems if msgs]
    if args.trace:
        metrics, detail = per_layer(passes)
    else:
        metrics, detail = end_to_end(setups, passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": runner.size,
        "trace": args.trace,
        "passes": len(passes),
        "invocations_per_pass": len(passes[0]["seconds"]),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "loop": "closed: one process, one CLI command at a time",
        "memo_cache_policy": MEMO_CACHE_POLICY,
        **detail,
        "environment": setups[0]["environment"],
    }
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
