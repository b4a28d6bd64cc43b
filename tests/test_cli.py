"""CLI behavior: commands, exit codes, report schema, file round-trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from commkit import cli, matrices
from commkit.cli import main
from commkit.constructions import (
    FactorPair,
    halmos_pair_scaled,
    nilpotent_commutator_factors,
    trace_zero_commutator_factors,
)
from commkit.lazyops import compress
from commkit.matrices import matrix_from_json_dict, matrix_to_json_dict, read_matrix, write_matrix
from commkit.verifiers import factorization_checks


def run(*argv):
    return main([str(arg) for arg in argv])


class TestConstructHalmos:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "halmos.json"
        code = run("construct-halmos", "--eps", 0.5, "--window", 64, "--out", out)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "PASS exact-commutator-identity" in stdout
        assert "PASS nil-index-three" in stdout
        payload = json.loads(out.read_text())
        assert set(payload) == {"eps", "window", "A", "B", "N"}
        a = matrix_from_json_dict(payload["A"])
        assert a.shape == (64, 64)
        assert a.min() >= 0.0

    def test_payload_is_json_dumps_of_the_dict_form(self, tmp_path):
        out = tmp_path / "h.json"
        assert run("construct-halmos", "--eps", 0.4, "--window", 64, "--out", out) == 0
        pair = halmos_pair_scaled()
        sections = {key: matrix_to_json_dict(compress(op, 64, 0.4))
                     for key, op in (("A", pair.a), ("B", pair.b), ("N", pair.nilpotent))}
        expected = json.dumps({"eps": 0.4, "window": 64, **sections})
        assert out.read_text(encoding="utf-8") == expected

    def test_eps_one_window_64(self, tmp_path):
        out = tmp_path / "h.json"
        assert run("construct-halmos", "--eps", 1, "--window", 64, "--out", out) == 0

    def test_scaled_nilpotent_is_smaller(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        run("--json", "construct-halmos", "--eps", 0.5, "--window", 64, "--out", out)
        small = json.loads(capsys.readouterr().out)["tables"][0]["norm_n_upper"]
        run("--json", "construct-halmos", "--eps", 1.0, "--window", 64, "--out", out)
        full = json.loads(capsys.readouterr().out)["tables"][0]["norm_n_upper"]
        assert small < full

    def test_zero_eps_is_input_error(self, tmp_path, capsys):
        code = run("construct-halmos", "--eps", 0, "--window", 64, "--out", tmp_path / "x.json")
        assert code == 2
        assert "eps" in capsys.readouterr().err

    def test_oversized_window_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run("construct-halmos", "--eps", 0.5, "--window", 1_000_000, "--out", out)
        assert code == 2
        assert "window must be at most 4096" in capsys.readouterr().err
        assert not out.exists()

    def test_payload_window_is_capped_at_1024(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run("construct-halmos", "--eps", 0.5, "--window", 2048, "--out", out) == 2
        assert "window must be at most 1024" in capsys.readouterr().err
        assert not out.exists()

    def test_window_floor_is_16(self, tmp_path, capsys):
        # sweep's floor of 64 is its own: it needs that window to fit slopes.
        out = tmp_path / "x.json"
        assert run("construct-halmos", "--eps", 0.5, "--window", 16, "--out", out) == 0
        assert json.loads(out.read_text())["window"] == 16
        assert run("construct-halmos", "--eps", 0.5, "--window", 15, "--out", tmp_path / "y.json") == 2
        assert "window must be at least 16" in capsys.readouterr().err

    def test_unwritable_path_is_input_error(self, tmp_path):
        code = run("construct-halmos", "--eps", 1, "--window", 16, "--out", tmp_path / "no" / "x.json")
        assert code == 2


class TestFactor:
    def test_nilpotent_example(self, tmp_path, capsys):
        c = tmp_path / "c.json"
        write_matrix(c, np.array([[0.0, 0.0], [1.0, 0.0]]))
        out = tmp_path / "factors.json"
        code = run("factor", "nilpotent", "--input", c, "--eps", 1, "--out", out)
        assert code == 0
        payload = json.loads(out.read_text())
        a = matrix_from_json_dict(payload["A"])
        b = matrix_from_json_dict(payload["B"])
        assert np.diag(a).tolist() == [1.0, 2.0]
        assert b.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert "PASS reconstruction-residual" in capsys.readouterr().out

    def test_tracezero_example(self, tmp_path):
        c = tmp_path / "c.csv"
        c.write_text("0,1\n1,0\n", encoding="utf-8")
        out = tmp_path / "factors.json"
        assert run("factor", "tracezero", "--input", c, "--out", out) == 0
        b = matrix_from_json_dict(json.loads(out.read_text())["B"])
        assert b.tolist() == [[0.0, -1.0], [1.0, 0.0]]

    def test_cycle_is_input_error_with_cycle_message(self, tmp_path, capsys):
        c = tmp_path / "c.csv"
        c.write_text("0,1\n1,0\n", encoding="utf-8")
        code = run("factor", "nilpotent", "--input", c, "--eps", 1, "--out", tmp_path / "o.json")
        assert code == 2
        assert "not nilpotent" in capsys.readouterr().err

    def test_long_cycle_is_input_error_without_recursion(self, tmp_path, capsys):
        # The support 1 -> 2 -> ... -> 3000 -> 1 is one cycle through every
        # index, deeper than Python's default recursion limit.
        n = 3000
        rows = ("0," * ((i + 1) % n) + "1" + ",0" * (n - 1 - (i + 1) % n) for i in range(n))
        c = tmp_path / "cycle.json"
        c.write_text(f'{{"rows": {n}, "cols": {n}, "data": [{",".join(rows)}]}}', encoding="utf-8")
        code = run("factor", "nilpotent", "--input", c, "--eps", 1, "--out", tmp_path / "o.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "not nilpotent" in err
        cycle = "->".join(str(k) for k in [*range(1, n + 1), 1])
        assert f"support cycle {cycle}" in err
        assert "Traceback" not in err

    def test_missing_eps_is_input_error(self, tmp_path, capsys):
        c = tmp_path / "c.json"
        write_matrix(c, np.zeros((2, 2)))
        with pytest.raises(SystemExit) as err:
            run("factor", "nilpotent", "--input", c, "--out", tmp_path / "o.json")
        assert err.value.code == 2
        assert "--eps" in capsys.readouterr().err

    def test_unparseable_matrix_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a\nmatrix\n", encoding="utf-8")
        code = run("factor", "tracezero", "--input", bad, "--out", tmp_path / "o.json")
        assert code == 2

    def test_nilpotent_tolerance_does_not_grow_with_the_diagonal(self, tmp_path, capsys):
        # A 60-chain puts 2**59 on the diagonal at eps = 1; the residual of
        # AB - BA stays at rounding level, so its tolerance must too.
        c = tmp_path / "chain.json"
        write_matrix(c, np.diag(np.ones(59), -1))
        code = run("--json", "factor", "nilpotent", "--input", c, "--eps", 1,
                   "--out", tmp_path / "o.json")
        assert code == 0
        (residual,) = [v for v in json.loads(capsys.readouterr().out)["verdicts"]
                       if v["claim"] == "reconstruction-residual"]
        assert residual["inputs"]["tolerance"] < 1e-6

    def _factor_verdicts(self, tmp_path, capsys, data, eps, *extra):
        n = math.isqrt(len(data))
        c = tmp_path / "c.json"
        c.write_text(json.dumps({"rows": n, "cols": n, "data": data}), encoding="utf-8")
        code = run("--json", "factor", "nilpotent", "--input", c, "--eps", eps,
                   "--out", tmp_path / "o.json", *extra)
        verdicts = {v["claim"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
        return code, verdicts

    def test_ba_tolerance_scales_with_eps_c(self, tmp_path, capsys):
        # BA_12 = c_12 / (d_1/d_2 - 1) misses eps c_12 = 1e8 by a few ulps of
        # (1 + eps) eps c_12, far above an absolute tolerance of 1e-9.
        code, verdicts = self._factor_verdicts(tmp_path, capsys, [0, 1e5, 0, 0], 1000)
        assert code == 0
        assert verdicts["ba-below-eps-c"]["passed"]

    @pytest.mark.parametrize("data, eps, extra", [
        ([0, 1e298, 0, 0], 1e10, ()),
        ([0], 1e308, ("--tol", 0)),  # 1 + 2 eps overflows, and 0 * inf is nan
    ])
    def test_tolerances_stay_finite(self, tmp_path, capsys, data, eps, extra):
        code, verdicts = self._factor_verdicts(tmp_path, capsys, data, eps, *extra)
        assert code == 0
        assert math.isfinite(verdicts["reconstruction-residual"]["inputs"]["tolerance"])
        assert math.isfinite(verdicts["ba-below-eps-c"]["inputs"]["tol"])

    def test_ba_tolerance_still_catches_a_perturbed_b(self, tmp_path, capsys, monkeypatch):
        def perturbed(c, eps):
            pair = nilpotent_commutator_factors(c, eps)
            return FactorPair(a=pair.a, b=pair.b * (1.0 + 1e-6))

        monkeypatch.setattr(cli, "nilpotent_commutator_factors", perturbed)
        code, verdicts = self._factor_verdicts(tmp_path, capsys, [0, 1e5, 0, 0], 1000)
        assert code == 1
        assert not verdicts["ba-below-eps-c"]["passed"]

    @pytest.mark.parametrize("kind, eps", [("nilpotent", 0.5), ("tracezero", None)])
    def test_verdicts_are_the_library_checks(self, tmp_path, capsys, kind, eps):
        c = np.tril(np.random.default_rng(5).uniform(0.0, 1.0, (6, 6)), k=-1)
        c_path = tmp_path / "c.json"
        write_matrix(c_path, c)
        flags = [] if eps is None else ["--eps", eps]
        code = run("--json", "factor", kind, "--input", c_path, *flags, "--tol", 1e-7,
                   "--out", tmp_path / "o.json")
        assert code == 0
        if eps is None:
            pair = trace_zero_commutator_factors(c)
        else:
            pair = nilpotent_commutator_factors(c, eps)
        expected = [vd.to_json_dict() for vd in factorization_checks(c, pair, 1e-7, eps)]
        assert json.loads(capsys.readouterr().out)["verdicts"] == expected

    def test_written_matrices_round_trip(self, tmp_path):
        c_path = tmp_path / "c.json"
        rng = np.random.default_rng(3)
        c = np.tril(rng.uniform(0.0, 1.0, (5, 5)), k=-1)
        write_matrix(c_path, c)
        out = tmp_path / "factors.json"
        assert run("factor", "nilpotent", "--input", c_path, "--eps", 0.5, "--out", out) == 0
        payload = json.loads(out.read_text())
        for key in ("A", "B"):
            m = matrix_from_json_dict(payload[key])
            back = tmp_path / f"{key}.json"
            write_matrix(back, m)
            assert np.array_equal(read_matrix(back), m)


class TestVerify:
    def test_popa_failing_bound_exits_one(self, capsys):
        code = run("verify", "popa", "--norm-a", 1, "--norm-b", 1, "--eps", 0.1)
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL popa-lower-bound" in out
        assert "1.15129" in out  # the failing bound 0.5*ln(10) is reported

    def test_popa_passing_bound_exits_zero(self):
        assert run("verify", "popa", "--norm-a", 2, "--norm-b", 2, "--eps", 0.5) == 0

    def test_popa_norm_product_overflow_is_input_error(self, capsys):
        code = run("--json", "verify", "popa", "--norm-a", 1e200, "--norm-b", 1e200, "--eps", 0.5)
        assert code == 2
        captured = capsys.readouterr()
        assert "error: norm_a * norm_b = 1e+200 * 1e+200 overflows" in captured.err
        assert captured.out == ""

    def test_popa_needs_flags(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("verify", "popa", "--norm-a", 1)
        assert err.value.code == 2
        assert "--norm-b" in capsys.readouterr().err

    def test_obstructions_identity_instance(self, tmp_path):
        zero = tmp_path / "zero.json"
        eye = tmp_path / "eye.json"
        write_matrix(zero, np.zeros((3, 3)))
        write_matrix(eye, np.identity(3))
        code = run(
            "verify", "obstructions",
            "--input-a", zero, "--input-b", zero, "--input-x", eye,
        )
        assert code == 0

    def test_wielandt_witness_expected(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_matrix(a, np.diag([1.0, 2.0]))
        write_matrix(b, np.random.default_rng(0).standard_normal((2, 2)))
        assert run("verify", "wielandt", "--input-a", a, "--input-b", b) == 0
        assert "PASS wielandt-domination-refuted" in capsys.readouterr().out

    def test_power_suite(self, tmp_path):
        rng = np.random.default_rng(1)
        a_mat = np.abs(rng.standard_normal((4, 4)))
        b_mat = rng.standard_normal((4, 4))
        x_mat = a_mat @ b_mat - b_mat @ a_mat - np.identity(4)
        paths = {}
        for name, m in (("a", a_mat), ("b", b_mat), ("x", x_mat)):
            paths[name] = tmp_path / f"{name}.json"
            write_matrix(paths[name], m)
        code = run(
            "verify", "power",
            "--input-a", paths["a"], "--input-b", paths["b"], "--input-x", paths["x"],
            "--n-max", 3, "--tol", 1e-6,
        )
        assert code == 0

    @pytest.mark.parametrize("n_max, code", [(1000, 0), (1001, 2), (100000, 2)])
    def test_n_max_is_bounded(self, tmp_path, capsys, n_max, code):
        zero = tmp_path / "zero.json"
        write_matrix(zero, np.zeros((2, 2)))
        files = ["--input-a", zero, "--input-b", zero, "--input-x", zero]
        assert run("verify", "power", *files, "--n-max", n_max, "--tol", 1.0) == code
        if code == 2:
            assert f"error: n_max must lie in [1, 1000], got {n_max}" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["wielandt", "power"])
    def test_overflow_is_input_error(self, tmp_path, capsys, suite):
        big = tmp_path / "big.json"
        eye = tmp_path / "eye.json"
        write_matrix(big, np.full((2, 2), 1e200))
        write_matrix(eye, np.identity(2))
        x = ["--input-x", eye] if suite == "power" else []
        code = run("verify", suite, "--input-a", big, "--input-b", big, *x)
        assert code == 2
        assert "error: the commutator AB - BA overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, data", [
        (["factor", "nilpotent", "--eps", "1", "--tol", "nan"], [0.0, 1.0, 0.0, 0.0]),
        (["factor", "tracezero", "--tol", "-1"], [0.0, 1.0, 1.0, 0.0]),
        (["verify", "obstructions", "--tol", "inf"], [1.0, 0.0, 0.0, 1.0]),
    ])
    def test_bad_tol_is_input_error(self, tmp_path, capsys, argv, data):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"rows": 2, "cols": 2, "data": data}), encoding="utf-8")
        files = ["--input-a", m, "--input-b", m, "--input-x", m]
        if argv[0] == "factor":
            files = ["--input", m, "--out", tmp_path / "o.json"]
        assert run(*argv, *files) == 2
        assert "error: --tol must be finite and nonnegative" in capsys.readouterr().err


class TestSweep:
    def test_two_point_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = run("--json", "sweep", "--grid", "0.2,0.4", "--window", 64, "--out", out)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert len(report["tables"]) == 2
        assert report["slopes"] is not None
        assert -4.0 < report["slopes"]["norm_a"] < -2.0
        on_disk = json.loads(out.read_text())
        assert on_disk["command"] == "sweep"

    def test_single_point_grid_notes_missing_slopes(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = run("sweep", "--grid", "0.5", "--window", 64, "--out", out)
        assert code == 0
        assert "slopes need at least 2" in capsys.readouterr().out

    def test_rejects_bad_grid(self, tmp_path, capsys):
        assert run("sweep", "--grid", "0.5,2.0", "--window", 64, "--out", tmp_path / "s.json") == 2
        capsys.readouterr()
        assert run("sweep", "--grid", "abc", "--window", 64, "--out", tmp_path / "s.json") == 2
        capsys.readouterr()
        assert run("sweep", "--grid", "0.5,0.5", "--window", 64, "--out", tmp_path / "s.json") == 2
        assert "grid value 0.5 is repeated" in capsys.readouterr().err

    def test_nearly_equal_grid_values(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run("--json", "sweep", "--grid", "0.5,0.5000001", "--window", 64, "--out", out) == 0
        report = json.loads(capsys.readouterr().out)
        claims = [vd["claim"] for vd in report["verdicts"]]
        assert claims == ["certified-popa-eps-0.5", "certified-popa-eps-0.5000001"]
        assert any(note.startswith("slopes are uncertain by up to 5:") for note in report["notes"])

    def test_grid_whose_logs_coincide_has_no_slopes(self, tmp_path, capsys):
        # Two distinct eps whose logarithms round to the same double.
        grid = "1e-05,1.0000000000000002e-05"
        run("--json", "sweep", "--grid", grid, "--window", 64, "--out", tmp_path / "s.json")
        report = json.loads(capsys.readouterr().out)
        assert len(report["verdicts"]) == 2
        assert report["slopes"] is None
        assert report["notes"] == ["slopes need two grid points whose eps differ in log"]

    def test_slopes_match_polyfit(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run("--json", "sweep", "--grid", "0.05,0.1,0.2,0.4", "--window", 64, "--out", out)
        report = json.loads(capsys.readouterr().out)
        log_eps = np.log([row["eps"] for row in report["tables"]])
        for name, slope in report["slopes"].items():
            log_lower = np.log([row[f"{name}_lower"] for row in report["tables"]])
            assert slope == pytest.approx(np.polyfit(log_eps, log_lower, 1)[0], rel=1e-12)

    def test_spread_grid_has_no_slope_note(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run("--json", "sweep", "--grid", "0.05,0.1,0.2,0.4", "--window", 64, "--out", out)
        report = json.loads(capsys.readouterr().out)
        assert [vd["claim"] for vd in report["verdicts"]] == [
            "certified-popa-eps-0.05", "certified-popa-eps-0.1",
            "certified-popa-eps-0.2", "certified-popa-eps-0.4",
        ]
        assert report["notes"] == []

    def test_json_stdout_is_the_file(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run("--json", "sweep", "--grid", "0.2,0.4", "--window", 64, "--out", out) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())

    def test_rejects_small_window(self, tmp_path):
        assert run("sweep", "--grid", "0.5", "--window", 32, "--out", tmp_path / "s.json") == 2

    def test_rejects_oversized_window(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run("sweep", "--grid", "0.5", "--window", 1_000_000, "--out", out) == 2
        assert "window must be at most 4096" in capsys.readouterr().err
        assert not out.exists()


class TestReportContract:
    def test_json_report_schema(self, capsys):
        code = run("--json", "verify", "popa", "--norm-a", 1, "--norm-b", 1, "--eps", 0.5)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for key in ("schema_version", "command", "parameters", "verdicts", "timestamp", "version"):
            assert key in report
        verdict = report["verdicts"][0]
        assert set(verdict) == {"claim", "passed", "witness", "margin", "inputs"}

    def test_determinism_modulo_timestamp(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        reports = []
        for _ in range(2):
            run("--json", "construct-halmos", "--eps", 0.25, "--window", 32, "--out", out)
            report = json.loads(capsys.readouterr().out)
            report.pop("timestamp")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run("verify", "unknown-suite")
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "popa", "--norm-a", "1", "--norm-b", "1", "--eps", "0.5", "--tol", "1"],
        ["verify", "popa", "--norm-a", "1", "--norm-b", "1", "--eps", "0.5", "--input-a", "{m}"],
        ["verify", "wielandt", "--input-a", "{m}", "--input-b", "{m}", "--input-x", "{m}"],
        ["verify", "power", "--input-a", "{m}", "--input-b", "{m}", "--input-x", "{m}",
         "--alpha", "2"],
        ["factor", "tracezero", "--input", "{m}", "--out", "{out}", "--eps", "1"],
    ], ids=["popa-tol", "popa-input-a", "wielandt-input-x", "power-alpha", "tracezero-eps"])
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, capsys, argv):
        m = tmp_path / "m.json"
        write_matrix(m, np.zeros((2, 2)))
        with pytest.raises(SystemExit) as err:
            run(*(arg.format(m=m, out=tmp_path / "o.json") for arg in argv))
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_closed_stdout_keeps_the_verdict_exit_code(self, tmp_path):
        # A reader that stops early (`| head`) must not turn passing verdicts into exit 1.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        argv = ["--json", "construct-halmos", "--eps", "0.5", "--window", "64", "--out", str(tmp_path / "h.json")]
        proc = subprocess.Popen(
            [sys.executable, "-m", "commkit.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert (tmp_path / "h.json").exists()


@pytest.mark.parametrize("argv", [
    ["construct-halmos", "--eps", "1e-110", "--window", "16"],
    ["sweep", "--grid", "1e-110,0.5", "--window", "64"],
], ids=["construct-halmos", "sweep"])
def test_eps_whose_entries_overflow_is_input_error_naming_eps(tmp_path, capsys, argv):
    out = tmp_path / "o.json"
    assert run(*argv, "--out", out) == 2
    assert "at eps=1e-110 is outside the double range" in capsys.readouterr().err
    assert not out.exists()


def test_huge_eps_is_input_error_naming_eps(tmp_path, capsys):
    c = tmp_path / "c.json"
    write_matrix(c, np.array([[0.0, 0.0], [1.0, 0.0]]))
    code = run("factor", "nilpotent", "--input", c, "--eps", 1e17, "--out", tmp_path / "o.json")
    assert code == 2
    assert "error: eps=1e+17 is too large" in capsys.readouterr().err


finite_numbers = st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | finite_numbers | st.text(max_size=3),
    lambda kids: (
        st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=2), kids, max_size=3)
    ),
    max_leaves=8,
)
dims = st.integers(-1, 4) | json_values
# Arbitrary rows/cols/data, and square matrices up to 4x4 whose data fits.
square_fields = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n), st.just(n), st.lists(finite_numbers, min_size=n * n, max_size=n * n)
    )
)
matrix_fields = (
    st.tuples(dims, dims, st.lists(finite_numbers, max_size=16) | json_values) | square_fields
)
# Nonnegative n x n data, n up to 4, as (n, flat row-major list).
nonnegative_square = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.floats(0.0, 1e308), min_size=n * n, max_size=n * n))
)

# Three n x n matrices A, B, X, n up to 3, as (n, [flat A, flat B, flat X]).
obstruction_triples = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.floats(-1e308, 1e308), min_size=n * n, max_size=n * n),
        min_size=3, max_size=3,
    ))
)


class TestMalformedMatrixInput:
    @pytest.mark.parametrize("rows", [2.7, "2", True])
    def test_non_integer_dimensions_are_input_error(self, tmp_path, capsys, rows):
        c = tmp_path / "m.json"
        c.write_text(json.dumps({"rows": rows, "cols": 2, "data": [0, 1, 0, 0]}), encoding="utf-8")
        code = run("factor", "tracezero", "--input", c, "--out", tmp_path / "o.json")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: matrix JSON")

    @pytest.mark.parametrize("data", [5, None, {"a": 1}, [{"a": 1}], "12", [[1.0], [2.0]]])
    def test_non_flat_data_is_input_error(self, tmp_path, capsys, data):
        c = tmp_path / "m.json"
        cols = 2 if isinstance(data, list) else 1
        c.write_text(json.dumps({"rows": 1, "cols": cols, "data": data}), encoding="utf-8")
        code = run("factor", "tracezero", "--input", c, "--out", tmp_path / "o.json")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: matrix JSON")

    @pytest.mark.parametrize("argv", [
        ["factor", "tracezero", "--input", "{a}", "--out", "{out}"],
        ["verify", "wielandt", "--input-a", "{a}", "--input-b", "{a}"],
    ], ids=["factor", "verify"])
    @pytest.mark.parametrize("depth", [1_000, 100_000])
    def test_deeply_nested_data_is_input_error(self, tmp_path, capsys, argv, depth):
        a = tmp_path / "deep.json"
        # json.dumps cannot build this nesting, so the text is written directly.
        a.write_text('{"rows": 1, "cols": 1, "data": ' + "[" * depth + "]" * depth + "}")
        code = run(*(arg.format(a=a, out=tmp_path / "o.json") for arg in argv))
        assert code == 2
        assert "nests too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [["0", True, "0", 0], [0, True, 0, 0], [0, "1", 0, 0],
                                      [0, None, 0, 0], [0, [1], 0, 0]])
    def test_non_number_entries_are_input_error(self, tmp_path, capsys, data):
        c = tmp_path / "m.json"
        c.write_text(json.dumps({"rows": 2, "cols": 2, "data": data}), encoding="utf-8")
        out = tmp_path / "o.json"
        assert run("factor", "nilpotent", "--input", c, "--eps", 1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: matrix JSON data must be a flat list of numbers")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0,1_0\n0,0\n", "0,inf\n0,0\n", "0,\u0661\n0,0\n"])
    def test_csv_cell_that_is_not_a_decimal_is_input_error(self, tmp_path, capsys, text):
        c = tmp_path / "m.csv"
        c.write_text(text, encoding="utf-8")
        out = tmp_path / "o.json"
        assert run("factor", "nilpotent", "--input", c, "--eps", 1, "--out", out) == 2
        assert "CSV line 1, cell 2 is not a decimal number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["factor", "tracezero", "--input", "{a}", "--out", "{out}"],
        ["verify", "wielandt", "--input-a", "{a}", "--input-b", "{a}"],
    ], ids=["factor", "verify"])
    def test_oversized_file_is_input_error(self, tmp_path, capsys, monkeypatch, argv):
        a = tmp_path / "a.json"
        write_matrix(a, np.zeros((2, 2)))
        limit = a.stat().st_size - 1
        monkeypatch.setattr(matrices, "MAX_MATRIX_BYTES", limit)
        assert run(*(arg.format(a=a, out=tmp_path / "o.json") for arg in argv)) == 2
        assert capsys.readouterr().err == f"error: {a} is larger than {limit} bytes\n"

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=st.text(alphabet="0123456789.,eE+-_ \t\n", max_size=30) | st.text(max_size=20))
    @example(text="1,2\n3,4")
    @example(text="0,1e999\n0,0")
    def test_arbitrary_csv_never_raises(self, tmp_path, text):
        c = tmp_path / "m.csv"
        c.write_text(text, encoding="utf-8")
        code = main(["factor", "tracezero", "--input", str(c), "--out", str(tmp_path / "o.json")])
        assert code in (0, 1, 2)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(fields=matrix_fields)
    @example(fields=(1, 1, None))
    @example(fields=(1, 1, 5))
    @example(fields=(1, 1, {"a": 1}))
    @example(fields=(1, 1, [{"a": 1}]))
    @example(fields=(1, 2, [[0.0], [0.0]]))
    @example(fields=(2, 2, [0.0, 1e308, 1e308, 0.0]))
    def test_arbitrary_matrix_json_never_raises(self, tmp_path, fields):
        rows, cols, data = fields
        c = tmp_path / "m.json"
        c.write_text(json.dumps({"rows": rows, "cols": cols, "data": data}), encoding="utf-8")
        code = main(["factor", "tracezero", "--input", str(c), "--out", str(tmp_path / "o.json")])
        assert code in (0, 1, 2)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(square=nonnegative_square, eps=st.floats(1e-300, 1e300))
    @example(square=(2, [0.0, 0.0, 1e300, 0.0]), eps=1e10)
    @example(square=(4, [0, 1, 0, 5e298, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0]), eps=1e10)
    def test_factor_nilpotent_eps_never_raises(self, tmp_path, square, eps):
        n, data = square
        c = tmp_path / "m.json"
        c.write_text(json.dumps({"rows": n, "cols": n, "data": data}), encoding="utf-8")
        argv = ["factor", "nilpotent", "--input", str(c), "--eps", repr(eps),
                "--out", str(tmp_path / "o.json")]
        assert main(argv) in (0, 1, 2)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(triple=obstruction_triples)
    @example(triple=(2, [[0.0] * 4, [0.0] * 4, [1e308, 0.0, 0.0, 1e308]]))  # trace of X
    @example(triple=(2, [[1e200] * 4, [1e200] * 4, [1.0, 0.0, 0.0, 1.0]]))  # commutator
    @example(triple=(2, [[0.0] * 4, [0.0] * 4, [1.0, 1e308, 1e308, 1.0]]))  # X X
    def test_verify_obstructions_never_raises(self, tmp_path, triple):
        n, matrices = triple
        argv = ["verify", "obstructions"]
        for name, data in zip("abx", matrices):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"rows": n, "cols": n, "data": data}), encoding="utf-8")
            argv += [f"--input-{name}", str(path)]
        assert main(argv) in (0, 1, 2)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(triple=obstruction_triples, suite=st.sampled_from(["wielandt", "power"]))
    @example(triple=(2, [[1e200] * 4, [1e200] * 4, [1.0, 0.0, 0.0, 1.0]]), suite="wielandt")
    @example(triple=(2, [[1e200] * 4, [1e200] * 4, [1.0, 0.0, 0.0, 1.0]]), suite="power")
    def test_verify_wielandt_and_power_never_raise(self, tmp_path, triple, suite):
        n, matrices = triple
        argv = ["verify", suite]
        for name, data in zip("abx" if suite == "power" else "ab", matrices):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"rows": n, "cols": n, "data": data}), encoding="utf-8")
            argv += [f"--input-{name}", str(path)]
        assert main(argv) in (0, 1, 2)
