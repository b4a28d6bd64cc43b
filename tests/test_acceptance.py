"""Acceptance suite: one test per criterion, at the stated tolerance and
runtime budget.  Each test prints a PASS line with its elapsed time; run
with `pytest -s tests/test_acceptance.py` to see them live."""

import math
import time

import numpy as np

from commkit.constructions import (
    halmos_pair_scaled,
    nilpotent_commutator_factors,
    trace_zero_commutator_factors,
)
from commkit.lazyops import compress
from commkit.matrices import commutator, entrywise_leq, operator_norm
from commkit.verifiers import (
    exact_commutator_identity_check,
    finite_dim_obstructions,
    nil_index_three_check,
    popa_bound,
    power_inequality_report,
    wielandt_violation_witness,
)
from oracles import delta_threshold

COLUMN_DEPTH = 2000


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.started = time.perf_counter()

    def done(self) -> None:
        elapsed = time.perf_counter() - self.started
        ok = elapsed < self.seconds
        status = "PASS" if ok else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
        assert ok, f"{self.name} exceeded its {self.seconds}s budget"


def test_criterion_1_exact_commutator_identity():
    budget = _Budget("criterion-1 exact commutator identity", 5.0)
    defect = halmos_pair_scaled().commutator_defect()
    for g in range(1, COLUMN_DEPTH + 1):
        assert defect.apply(g) == {}  # exact polynomial identity in eps, so at eps = 1 too
    budget.done()


def test_criterion_2_nil_index_three():
    budget = _Budget("criterion-2 nil-index three", 5.0)
    nil = halmos_pair_scaled().nilpotent
    cube = nil @ nil @ nil
    for g in range(1, COLUMN_DEPTH + 1):
        assert cube.apply(g) == {}
    square = nil @ nil
    assert any(square.apply(g) for g in range(1, 65))
    budget.done()


def test_criteria_1_and_2_on_every_column():
    budget = _Budget("criteria 1-2 on every column by residue classes", 5.0)
    pair = halmos_pair_scaled()
    for vd in (exact_commutator_identity_check(pair), nil_index_three_check(pair)):
        assert vd.passed
        assert vd.inputs["residue_modulus"] == vd.inputs["residue_classes"] == 8
    budget.done()


def test_criterion_3_norm_scaling_laws():
    budget = _Budget("criterion-3 norm scaling slopes", 60.0)
    pair = halmos_pair_scaled()
    grid = [0.05, 0.1, 0.2, 0.4]
    norms = {"a": [], "b": [], "n": []}
    for eps in grid:
        norms["a"].append(operator_norm(compress(pair.a, 512, eps), rel_tol=1e-6).lower)
        norms["b"].append(operator_norm(compress(pair.b, 512, eps), rel_tol=1e-6).lower)
        norms["n"].append(operator_norm(compress(pair.nilpotent, 512, eps), rel_tol=1e-6).lower)
    log_eps = np.log(grid)
    slope_a = float(np.polyfit(log_eps, np.log(norms["a"]), 1)[0])
    slope_b = float(np.polyfit(log_eps, np.log(norms["b"]), 1)[0])
    slope_n = float(np.polyfit(log_eps, np.log(norms["n"]), 1)[0])
    assert -3.3 <= slope_a <= -2.7, slope_a
    assert -3.3 <= slope_b <= -2.7, slope_b
    assert 0.7 <= slope_n <= 1.3, slope_n
    budget.done()


def test_criterion_4_nilpotent_factorization():
    budget = _Budget("criterion-4 nilpotent factorization", 30.0)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 31))
        density = rng.uniform(0.1, 0.9)
        c = np.tril(rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density), k=-1)
        perm = rng.permutation(n)
        c = c[np.ix_(perm, perm)]
        for eps in (0.1, 1.0):
            pair = nilpotent_commutator_factors(c, eps)
            kappa = ((1.0 + eps) / eps) ** (n - 1)
            residual = np.abs(pair.a @ pair.b - pair.b @ pair.a - c).max()
            assert residual <= 1e-9 * (1.0 + np.abs(c).max()) * kappa
            assert entrywise_leq(pair.b @ pair.a, eps * c, 1e-9).passed
    budget.done()


def test_criterion_5_trace_zero_factorization():
    budget = _Budget("criterion-5 trace-zero factorization", 10.0)
    rng = np.random.default_rng(2025)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        c = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 0.9))
        np.fill_diagonal(c, 0.0)
        pair = trace_zero_commutator_factors(c)
        residual = np.abs(pair.a @ pair.b - pair.b @ pair.a - c).max()
        assert residual <= 1e-9 * n * max(np.abs(c).max(), 1.0)
        assert pair.a.min() >= 0.0
    budget.done()


def test_criterion_6_obstructions():
    budget = _Budget("criterion-6 finite-dimensional obstructions", 60.0)
    rng = np.random.default_rng(2026)
    for _ in range(500):
        n = int(rng.integers(2, 11))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        p = np.abs(rng.standard_normal((n, n)))
        x = np.identity(n) - commutator(a, b) + p
        hyp, trace_vd, spec_vd, _ = finite_dim_obstructions(a, b, x)
        assert hyp.passed
        assert float(np.trace(x)) >= n - 1e-9
        assert trace_vd.passed
        assert spec_vd.witness["spectral_radius_lower"] >= 1.0 - 1e-6
        assert spec_vd.witness["spectral_radius_lower"] <= np.abs(np.linalg.eigvals(x)).max()
        assert spec_vd.passed
    # idempotent branch
    for n in (2, 5):
        zero = np.zeros((n, n))
        verdicts = finite_dim_obstructions(zero, zero, np.identity(n))
        assert all(v.passed for v in verdicts)
        x = np.diag([1.0] * (n - 1) + [0.0])
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        hyp, _, _, idem = finite_dim_obstructions(a, b, x)
        genuinely_passed_idem = idem.passed and not idem.witness.get("vacuous")
        assert not (hyp.passed and genuinely_passed_idem)
    budget.done()


def test_criterion_7_wielandt_refuter():
    budget = _Budget("criterion-7 domination refuter", 30.0)
    rng = np.random.default_rng(2027)
    for _ in range(10_000):
        n = int(rng.integers(2, 21))
        a = np.abs(rng.standard_normal((n, n)))
        b = rng.standard_normal((n, n))
        assert wielandt_violation_witness(a, b).passed
    budget.done()


def test_criterion_8_power_inequality_engine():
    budget = _Budget("criterion-8 power inequality engine", 30.0)
    pair = halmos_pair_scaled()
    a = compress(pair.a, 256, 1.0)
    b = compress(pair.b, 256, 1.0)
    x = compress(pair.nilpotent, 256, 1.0)
    verdicts = power_inequality_report(a, b, x, n_max=4, tol=1e-9, interior=64)
    assert all(v.passed for v in verdicts), [v.claim for v in verdicts if not v.passed]
    rng = np.random.default_rng(2028)
    for _ in range(100):
        am = rng.standard_normal((5, 5))
        bm = rng.standard_normal((5, 5))
        for n in range(1, 6):
            lhs = commutator(np.linalg.matrix_power(am, n + 1), bm)
            rhs = am @ commutator(np.linalg.matrix_power(am, n), bm)
            rhs = rhs + commutator(am, bm) @ np.linalg.matrix_power(am, n)
            assert np.abs(lhs - rhs).max() <= 1e-9 * max(np.abs(lhs).max(), 1.0)
    budget.done()


def test_criterion_9_popa_delta_duality():
    budget = _Budget("criterion-9 threshold duality", 1.0)
    rng = np.random.default_rng(2029)
    norm_a = rng.uniform(0.0, 4.0, 10_000)
    norm_b = rng.uniform(0.0, 4.0, 10_000)
    alpha = rng.uniform(1.0, 5.0, 10_000)
    for na, nb, al in zip(norm_a, norm_b, alpha):
        delta = delta_threshold(na, nb, al)
        assert not popa_bound(na, nb, 0.99 * delta, al).passed
        wide = popa_bound(na, nb, 1.01 * math.exp(-2.0 * al * na * nb) / al, al)
        assert wide.passed  # the bound drops to at most the product
    budget.done()


def test_criterion_10_monotone_norm():
    budget = _Budget("criterion-10 monotone norm", 30.0)
    rng = np.random.default_rng(2030)
    for _ in range(500):
        n = int(rng.integers(2, 51))
        a = rng.uniform(0.0, 1.0, (n, n))
        b = a + rng.uniform(0.05, 1.0, (n, n))
        cert_a = operator_norm(a)
        cert_b = operator_norm(b)
        assert cert_a.upper <= cert_b.upper + 1e-9
        assert cert_a.lower <= cert_b.lower + 1e-9
    budget.done()
