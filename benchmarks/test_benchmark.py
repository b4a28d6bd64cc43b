"""Smoke tests of the benchmark harness at toy sizes.

Run from the repository root: python3 -m pytest benchmarks
They check the result's shape, names and units and the correctness gate;
they never gate on wall-clock time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = ["--seed", "3", "--seconds", "1", "--smoke"]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_names_units_and_shape(workload, trace):
    proc = _bench("--workload", workload, "--trace", str(trace), *SMOKE)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    detail = json.loads(detail_line)
    env = detail["environment"]
    for key in ("nproc", "python", "numpy", "blas", "machine_settings"):
        assert env[key] is not None
    assert {"name", "version", "threads"} <= set(env["blas"])
    assert detail["fail_ratio"] == 0.0 and detail["memo_cache_policy"]


def test_layer_self_times_account_for_traced_pass():
    proc = _bench("--workload", "matrix-files", "--trace", "1", *SMOKE)
    assert proc.returncode == 0, proc.stderr
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert detail["self_time_share_of_traced_pass"] == pytest.approx(1.0, abs=0.01)


def test_corrupted_expectation_is_reported(monkeypatch, capsys):
    real_setup = run.setup

    def corrupted(runner, repeat):
        results = real_setup(runner, repeat)
        for r in results:
            r["invocations"][0]["expect_exit"] = 1
        return results

    monkeypatch.setattr(run, "setup", corrupted)
    code = run.main(["--workload", "sweep-norms", "--trace", "0", *SMOKE])
    assert code != 0
    *_, detail_line, result_line = capsys.readouterr().out.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"] is False and result["failed"] >= 1
    assert "expected 1" in json.dumps(json.loads(detail_line)["failures"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep-norms", "--trace", "0", *SMOKE, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
