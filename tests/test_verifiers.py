"""Inequality checkers: lower bounds, refuters, obstructions."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from commkit import lazyops, verifiers
from commkit.cli import main
from commkit.constructions import (
    FactorPair,
    HalmosPair,
    halmos_pair_scaled,
    nilpotent_commutator_factors,
    trace_zero_commutator_factors,
)
from commkit.lazyops import block4, compress, even_isometry, identity_op, pair_swap, zero_op
from commkit.matrices import DynamicRangeError, commutator, entrywise_leq
from commkit.verdict import Verdict
from commkit.verifiers import (
    MAX_POWER,
    construct_halmos_checks,
    exact_commutator_identity_check,
    factorization_checks,
    finite_dim_obstructions,
    nil_index_three_check,
    popa_bound,
    power_inequality_report,
    sweep_checks,
    wielandt_violation_witness,
)
from oracles import delta_threshold, dense_factor_products, float_bits

norms = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
alphas = st.floats(min_value=1.0, max_value=4.0, allow_nan=False)


class TestPopaBound:
    def test_passes_with_zero_margin(self):
        vd = popa_bound(2.0, 1.0, math.exp(-4.0), 1.0)
        assert vd.passed
        assert abs(vd.margin) <= 1e-12

    def test_fails_below_bound(self):
        vd = popa_bound(0.5, 1.0, math.exp(-4.0), 1.0)
        assert not vd.passed
        assert vd.witness["bound"] == pytest.approx(2.0)

    def test_trivial_for_large_eps(self):
        assert popa_bound(0.0, 0.0, 1.0, 1.0).passed
        assert popa_bound(0.0, 0.0, 2.0, 1.5).passed

    def test_half_log_ten(self):
        vd = popa_bound(1.0, 1.0, 0.1, 1.0)
        assert not vd.passed
        assert vd.witness["bound"] == pytest.approx(0.5 * math.log(10.0))

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            popa_bound(1.0, 1.0, 0.5, 0.9)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            popa_bound(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("norm, message", [
        (math.nan, r"norm_a must lie in \[0, inf\), got nan"),
        (math.inf, r"norm_a must lie in \[0, inf\), got inf"),
        (-1.0, r"norm_a must lie in \[0, inf\), got -1.0"),
    ])
    def test_rejects_bad_norm(self, norm, message):
        with pytest.raises(ValueError, match=message):
            popa_bound(norm, 1.0, 0.5)

    def test_subnormal_eps_keeps_a_finite_bound(self):
        # 1 / 1e-320 overflows; the bound is ln(1e320) / 2, about 368.4
        vd = popa_bound(20.0, 20.0, 1e-320)
        assert vd.passed
        assert vd.margin == pytest.approx(400.0 - 160.0 * math.log(10.0))

    def test_alpha_whose_double_overflows_keeps_a_positive_bound(self):
        # 2 * 1e308 overflows; the bound is ln(1 / (1e308 * 5e-324)) / 2e308, about 1.7622e-307
        vd = popa_bound(0.0, 0.0, 5e-324, 1e308)
        assert not vd.passed
        assert vd.witness["bound"] == pytest.approx(1.7622e-307, rel=1e-4)
        argv = ["verify", "popa", "--norm-a", "0", "--norm-b", "0", "--eps", "5e-324",
                "--alpha", "1e308"]
        assert main(argv) == 1

    def test_norm_product_overflow_is_a_range_error(self):
        with pytest.raises(DynamicRangeError, match="overflows"):
            popa_bound(1e200, 1e200, 0.5)


class TestDeltaThreshold:
    # delta_threshold is the test oracle's exclusion radius.
    def test_unit_norms(self):
        assert delta_threshold(1.0, 1.0) == pytest.approx(math.exp(-2.0))

    def test_zero_norm(self):
        assert delta_threshold(0.0, 3.0, 2.0) == pytest.approx(0.5)

    @given(norms, norms, alphas)
    def test_duality_with_popa_bound(self, norm_a, norm_b, alpha):
        delta = delta_threshold(norm_a, norm_b, alpha)
        assert not popa_bound(norm_a, norm_b, 0.99 * delta, alpha).passed
        assert popa_bound(norm_a, norm_b, 1.01 * delta, alpha).passed


class TestPowerInequality:
    def _exact_instance(self, rng, n=4):
        # choosing x := [a,b] - I makes the hypothesis hold with equality
        a = np.abs(rng.standard_normal((n, n)))
        b = rng.standard_normal((n, n))
        x = commutator(a, b) - np.identity(n)
        return a, b, x

    def test_base_case_equals_hypothesis(self):
        rng = np.random.default_rng(3)
        a, b, x = self._exact_instance(rng)
        verdicts = power_inequality_report(a, b, x, n_max=1, tol=1e-9)
        hypothesis = verdicts[1]
        base = verdicts[2]
        assert hypothesis.passed and base.passed
        # at n = 1 the two checks compare the same quantities
        assert base.margin == pytest.approx(hypothesis.margin, abs=1e-12)

    def test_all_orders_pass_on_exact_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b, x = self._exact_instance(rng)
            scale = max(np.abs(a).max(), 1.0) ** 6 * max(np.abs(x).max(), 1.0)
            verdicts = power_inequality_report(a, b, x, n_max=5, tol=1e-9 * scale)
            assert all(v.passed for v in verdicts)

    def test_no_failures_when_preconditions_verify(self):
        # randomized counterexample search: slack instances x := [a,b] - I - p
        # with p >= 0 keep the hypothesis true with strict margin, and the
        # induction must then hold at every order
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = np.abs(rng.standard_normal((n, n)))
            b = rng.standard_normal((n, n))
            p = np.abs(rng.standard_normal((n, n)))
            x = commutator(a, b) - np.identity(n) - p
            scale = max(np.abs(a).max(), 1.0) ** 6 * max(np.abs(x).max(), 1.0)
            verdicts = power_inequality_report(a, b, x, n_max=5, tol=1e-9 * scale)
            assert verdicts[0].passed and verdicts[1].passed
            assert all(v.passed for v in verdicts[2:])

    def test_proof_identity_holds(self):
        # [a^(n+1), b] = a [a^n, b] + [a, b] a^n, checked by direct multiplication
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            for n in range(1, 6):
                lhs = commutator(np.linalg.matrix_power(a, n + 1), b)
                rhs = a @ commutator(np.linalg.matrix_power(a, n), b)
                rhs = rhs + commutator(a, b) @ np.linalg.matrix_power(a, n)
                scale = max(np.abs(lhs).max(), 1.0)
                assert np.abs(lhs - rhs).max() <= 1e-9 * scale

    def test_failed_precondition_is_reported_not_raised(self):
        a = np.array([[1.0, -2.0], [0.0, 1.0]])
        b = np.zeros((2, 2))
        x = np.zeros((2, 2))
        verdicts = power_inequality_report(a, b, x, n_max=2)
        assert not verdicts[0].passed  # a is not nonnegative
        assert verdicts[0].witness == {"row": 1, "col": 2, "value": -2.0}
        assert not verdicts[1].passed  # [a,b] = 0 does not dominate I
        assert len(verdicts) == 4

    def test_interior_restricts_the_window(self):
        rng = np.random.default_rng(11)
        a, b, x = self._exact_instance(rng, n=6)
        # poison an entry outside the interior window
        a2 = a.copy()
        a2[5, 5] = -1.0
        full = power_inequality_report(a2, b, x, n_max=1)
        windowed = power_inequality_report(a2, b, x, n_max=1, interior=5)
        assert not full[0].passed
        assert windowed[0].passed

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            power_inequality_report(np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            power_inequality_report(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), n_max=0)
        with pytest.raises(ValueError, match=r"n_max must lie in \[1, 1000\], got 1001"):
            power_inequality_report(
                np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), n_max=MAX_POWER + 1
            )
        with pytest.raises(ValueError):
            power_inequality_report(
                np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), interior=3
            )


class TestWielandtWitness:
    def test_diagonal_positive_a(self):
        vd = wielandt_violation_witness(np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert vd.passed
        assert vd.witness["value"] < 0.0

    def test_zero_a(self):
        vd = wielandt_violation_witness(np.zeros((2, 2)), np.ones((2, 2)))
        assert vd.passed
        assert vd.witness == {"row": 1, "col": 1, "value": -1.0}

    def test_negative_b_is_accepted_as_signed(self):
        vd = wielandt_violation_witness(np.ones((2, 2)), -np.ones((2, 2)))
        assert vd.passed

    def test_random_trials_always_find_witness(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(2, 21))
            a = np.abs(rng.standard_normal((n, n)))
            b = rng.standard_normal((n, n))
            vd = wielandt_violation_witness(a, b)
            assert vd.passed
            # The witness is the least entry of the dense [A,B] - I, first in row-major order.
            diff = commutator(a, b) - np.identity(n)
            i, j = np.unravel_index(int(diff.argmin()), diff.shape)
            assert float_bits(vd.witness) == float_bits(
                {"row": int(i) + 1, "col": int(j) + 1, "value": float(diff[i, j])})

    def test_rejects_unsigned_pair(self):
        mixed = np.array([[1.0, -1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            wielandt_violation_witness(mixed, mixed)


class TestFiniteDimObstructions:
    def test_identity_x_passes_everything(self):
        n = 3
        zero = np.zeros((n, n))
        verdicts = finite_dim_obstructions(zero, zero, np.identity(n))
        assert [v.passed for v in verdicts] == [True, True, True, True]
        assert verdicts[3].witness["identity_defect"] == 0.0

    def test_failed_hypothesis_marks_rest_vacuous(self):
        zero = np.zeros((2, 2))
        x = np.diag([2.0, 0.0])
        verdicts = finite_dim_obstructions(zero, zero, x)
        hyp, trace_vd, spec_vd, idem_vd = verdicts
        assert not hyp.passed
        assert hyp.witness == {"row": 2, "col": 2, "value": -1.0}
        for vd in (trace_vd, spec_vd, idem_vd):
            assert vd.passed
            assert vd.witness.get("vacuous") is True

    def test_generated_instances(self):
        rng = np.random.default_rng(17)
        instances = []
        for _ in range(25):
            n = int(rng.integers(2, 8))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            p = np.abs(rng.standard_normal((n, n)))
            instances.append((a, b, np.identity(n) - commutator(a, b) + p, True, 1e-9))
        # With A = B = 0 the hypothesis is X >= I entrywise.  Negative trace;
        # eigenvalues 1 +- 2i; a strongly non-normal X, all of whose
        # eigenvalues are 1, that satisfies the hypothesis; and X = I, where
        # tr X = n is tight, with a tolerance far below n^2 u.
        for x, holds, tol in (
            (-(np.identity(3) + np.abs(rng.standard_normal((3, 3)))), False, 1e-9),
            (np.array([[2.0, -5.0], [1.0, 0.0]]), False, 1e-9),
            (np.identity(4) + np.triu(np.full((4, 4), 1e6), 1), True, 1e-9),
            (np.identity(400), True, 1e-12),
        ):
            instances.append((np.zeros_like(x), np.zeros_like(x), x, holds, tol))
        # Tight with large diagonal entries: X = I - [A,B] = diag(1 - 1e8, 1 + 1e8),
        # every value exact and the hypothesis met with margin 0.
        a = np.array([[0.0, 1e4], [0.0, 0.0]])
        instances.append((a, a.T, np.identity(2) - commutator(a, a.T), True, 1e-9))
        for a, b, x, holds, tol in instances:
            hyp, trace_vd, spec_vd, _ = finite_dim_obstructions(a, b, x, tol)
            # The certified lower sides against independent oracles.
            radius = np.abs(np.linalg.eigvals(x)).max()
            assert spec_vd.witness["spectral_radius_lower"] <= radius
            assert radius <= np.linalg.svd(x, compute_uv=False)[0]
            exact_trace = sum(map(Fraction, np.diagonal(x).tolist()))
            assert Fraction(trace_vd.witness["trace_lower"]) <= exact_trace
            r_lower = Fraction(spec_vd.witness["spectral_radius_lower"])
            assert r_lower * x.shape[0] <= abs(exact_trace)
            assert hyp.passed == holds
            assert trace_vd.passed
            assert spec_vd.passed

    def test_defective_idempotent_never_satisfies_hypothesis(self):
        rng = np.random.default_rng(19)
        x = np.diag([1.0, 1.0, 0.0])
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            hyp, _, _, idem = finite_dim_obstructions(a, b, x)
            assert not (hyp.passed and idem.passed and not idem.witness.get("vacuous"))
            assert not hyp.passed  # trace forces a violation for every a, b

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            finite_dim_obstructions(np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 3)))


class TestCertifiedCheck:
    """The certified norm row of construct_halmos_checks and the verdicts of sweep_checks."""

    def test_eps_one_is_trivial(self):
        rows, (vd,), _, _ = sweep_checks([1.0], 64)
        assert vd.passed
        assert rows[0]["bound"] < 0.0

    def test_small_eps_passes_with_positive_margin(self):
        rows, (vd,), _, _ = sweep_checks([0.1], 128)
        assert vd.passed
        assert vd.margin > 0.0
        assert rows[0]["norm_a_lower"] > 100.0

    def test_margin_behaves_across_grid(self):
        _, verdicts, _, _ = sweep_checks([0.4, 0.2, 0.1], 128)
        assert all(vd.passed for vd in verdicts)
        margins = [vd.margin for vd in verdicts]
        assert margins == sorted(set(margins))

    @pytest.mark.parametrize("entry", [
        construct_halmos_checks,
        lambda eps, window: sweep_checks([eps], window),
    ], ids=["construct_halmos_checks", "sweep_checks"])
    @pytest.mark.parametrize("eps, window, message", [
        (0.0, 512, r"eps must lie in \(0, 1\]"),
        (1.5, 512, r"eps must lie in \(0, 1\]"),
        (0.5, 8, r"window must lie in \[16, \d+\], got 8"),
    ], ids=["eps-0", "eps-1.5", "window-8"])
    def test_validates_inputs(self, entry, eps, window, message):
        with pytest.raises(ValueError, match=message):
            entry(eps, window)

    @pytest.mark.parametrize("entry", [
        construct_halmos_checks,
        lambda eps, window: sweep_checks([eps], window),
    ], ids=["construct_halmos_checks", "sweep_checks"])
    def test_rejects_oversized_window(self, entry):
        with pytest.raises(ValueError, match=r"window must lie in \[16, \d+\], got 4097"):
            entry(0.5, 4097)


class TestCommandEntries:
    def test_construct_halmos_reports_the_two_exact_claims(self):
        verdicts, row, sections = construct_halmos_checks(0.2, 64)
        # The benchmark refuses a construct-halmos report with any other claims.
        assert [vd.claim for vd in verdicts] == ["exact-commutator-identity", "nil-index-three"]
        assert all(vd.passed for vd in verdicts)
        rows, _, _, _ = sweep_checks([0.2], 64)
        assert row == rows[0]
        pair = halmos_pair_scaled()
        assert list(sections) == ["A", "B", "N"]
        for section, op in zip(sections.values(), (pair.a, pair.b, pair.nilpotent)):
            assert np.array_equal(section, compress(op, 64, 0.2))

    def test_sweep_rows_and_verdicts_are_the_certified_checks(self):
        rows, verdicts, slopes, notes = sweep_checks([0.4, 0.1], 64)
        assert len(rows) == len(verdicts) == 2
        for eps, row, vd in zip((0.4, 0.1), rows, verdicts):
            _, alone, _ = construct_halmos_checks(eps, 64)
            assert row == alone
            assert list(row) == ["eps", "window", "converged", "norm_a_lower", "norm_b_lower",
                                 "norm_n_lower", "norm_n_upper", "bound", "margin"]
            popa = popa_bound(row["norm_a_lower"], row["norm_b_lower"], row["norm_n_upper"])
            assert vd == dataclasses.replace(popa, claim=f"certified-popa-eps-{eps!r}",
                                             inputs={"eps": eps, "window": 64})
            assert vd.passed and vd.margin == row["margin"]
        assert set(slopes) == {"norm_a", "norm_b", "norm_n"}
        assert notes == []

    @pytest.mark.parametrize("window", [16, 128, 512])
    @pytest.mark.parametrize("grid", [[0.05, 0.1, 0.2, 0.4], [0.4, 1.0, 0.999, 0.05]],
                             ids=["workload", "one"])
    def test_batched_rows_are_the_one_point_rows_bit_for_bit(self, grid, window):
        def bits(row):
            return {key: value.hex() if isinstance(value, float) else value
                    for key, value in row.items()}

        rows, _, _, _ = sweep_checks(grid, window)
        for eps, row in zip(grid, rows):
            _, alone, _ = construct_halmos_checks(eps, window)
            assert list(row) == list(alone)
            assert bits(row) == bits(alone)

    @pytest.mark.parametrize("entry, eps, window, message", [
        (construct_halmos_checks, 0.0, 16, r"eps must lie in \(0, 1\], got 0.0"),
        (construct_halmos_checks, math.nan, 2048, r"eps must lie in \(0, 1\], got nan"),
        (construct_halmos_checks, 0.5, 15, r"window must lie in \[16, 1024\], got 15"),
        (construct_halmos_checks, 0.5, 1025, r"window must lie in \[16, 1024\], got 1025"),
        (construct_halmos_checks, 0.5, 4097, r"window must lie in \[16, 1024\], got 4097"),
        (sweep_checks, [], 64, "grid is empty"),
        (sweep_checks, [0.5, 2.0], 32, r"eps must lie in \(0, 1\], got 2.0"),
        (sweep_checks, [0.5, 0.2, 0.5], 64, "grid value 0.5 is repeated"),
        (sweep_checks, [0.5], 15, r"window must lie in \[16, 4096\], got 15"),
        (sweep_checks, [0.5], 4097, r"window must lie in \[16, 4096\], got 4097"),
    ])
    def test_arguments_are_checked_before_any_section_is_listed(
        self, monkeypatch, entry, eps, window, message
    ):
        def listed(*args):
            raise AssertionError("a section was listed")

        monkeypatch.setattr(verifiers, "_section_entries", listed)
        with pytest.raises(ValueError, match=message):
            entry(eps, window)

    @pytest.mark.parametrize("entry, eps, window", [
        (sweep_checks, [0.1, 0.2], 64.0),
        (sweep_checks, [0.1, 0.2], "64"),
        (construct_halmos_checks, 0.1, 64.5),
        (construct_halmos_checks, 0.1, 100.5),
        (construct_halmos_checks, 0.1, None),
        (sweep_checks, [0.1, 0.2], None),
    ])
    def test_window_that_is_not_an_integer_is_refused(self, monkeypatch, entry, eps, window):
        def listed(*args):
            raise AssertionError("a section was listed")

        monkeypatch.setattr(verifiers, "_section_entries", listed)
        message = f"window must be an integer, got {re.escape(repr(window))}"
        with pytest.raises(ValueError, match=message):
            entry(eps, window)

    @pytest.mark.parametrize("eps", [True, False, "0.1", None, Fraction(1, 10)])
    @pytest.mark.parametrize("entry", [
        lambda eps: compress(halmos_pair_scaled().a, 64, eps),
        lambda eps: sweep_checks([0.1, eps], 64),
        lambda eps: construct_halmos_checks(eps, 64),
    ], ids=["compress", "sweep_checks", "construct_halmos_checks"])
    def test_eps_that_is_not_a_real_number_is_refused(self, monkeypatch, entry, eps):
        def listed(*args):
            raise AssertionError("a section was listed")

        monkeypatch.setattr(lazyops, "_section_entries", listed)
        monkeypatch.setattr(verifiers, "_section_entries", listed)
        message = f"eps must be a real number, got {re.escape(repr(eps))}"
        with pytest.raises(ValueError, match=message):
            entry(eps)

    def test_numpy_float_and_int_eps_are_accepted(self):
        a = halmos_pair_scaled().a
        assert np.array_equal(compress(a, 16, np.float64(0.5)), compress(a, 16, 0.5))
        assert np.array_equal(compress(a, 16, np.float32(0.5)), compress(a, 16, 0.5))
        assert np.array_equal(compress(a, 16, 1), compress(a, 16, 1.0))


class TestExactChecks:
    def test_scaled_pair_passes_both(self):
        pair = halmos_pair_scaled()
        identity_vd = exact_commutator_identity_check(pair)
        assert identity_vd.passed and identity_vd.claim == "exact-commutator-identity"
        assert identity_vd.inputs == {"residue_modulus": 8, "residue_classes": 8}
        nil_vd = nil_index_three_check(pair)
        assert nil_vd.passed and nil_vd.claim == "nil-index-three"
        assert nil_vd.inputs["residue_modulus"] == 8
        assert 1 <= nil_vd.inputs["square_nonzero_column"] <= 64

    def test_wrong_nilpotent_breaks_the_identity(self):
        pair = halmos_pair_scaled()
        broken = HalmosPair(pair.a, pair.b, zero_op())
        vd = exact_commutator_identity_check(broken)
        assert not vd.passed
        assert set(vd.witness) == {"column", "basis_index", "value"}

    def test_identity_is_not_nilpotent(self):
        pair = halmos_pair_scaled()
        vd = nil_index_three_check(HalmosPair(pair.a, pair.b, identity_op()))
        assert not vd.passed
        assert vd.witness == {"cube_column": 1, "support": [1]}

    def test_square_acting_first_past_column_64(self):
        # N^2 maps slot 3 into slot 1 through (U*)^6, so it acts only on the slot-3
        # columns whose index within the slot is a multiple of 64; the first is 255.
        z, i, us = zero_op(), identity_op(), even_isometry().adjoint()
        nil = block4([[z, i, z, z], [z, z, us @ us @ us @ us @ us @ us, z], [z] * 4, [z] * 4])
        pair = halmos_pair_scaled()
        vd = nil_index_three_check(HalmosPair(pair.a, pair.b, nil))
        assert vd.passed
        assert vd.inputs["square_nonzero_column"] == 255
        square = nil @ nil
        assert not any(square.apply(g) for g in range(1, 255)) and square.apply(255)

    def test_zero_square_is_an_inconsistency(self):
        pair = halmos_pair_scaled()
        vd = nil_index_three_check(HalmosPair(pair.a, pair.b, zero_op()))
        assert not vd.passed
        assert "inconsistency" in vd.witness


def _swap_in_block_44(nil):
    z = zero_op()
    return nil + block4([[z] * 4, [z] * 4, [z] * 4, [z, z, z, pair_swap()]])


class TestResidueProof:
    """The proofs' witnesses against a concrete scan of the first 64 columns."""

    def test_swap_mutant_fails_at_column_4(self):
        pair = halmos_pair_scaled()
        mutant = HalmosPair(pair.a, pair.b, _swap_in_block_44(pair.nilpotent))
        vd = exact_commutator_identity_check(mutant)
        assert not vd.passed
        assert vd.witness == {"column": 4, "basis_index": 8, "value": "EpsScalar(-1)"}
        assert vd.inputs == {"residue_modulus": 8, "residue_classes": 6}

    @pytest.mark.parametrize("mutate", [
        _swap_in_block_44,
        lambda nil: 2 * nil,
        lambda nil: nil + identity_op(),
        lambda nil: nil @ pair_swap(),
    ], ids=["swap-in-block-44", "doubled", "plus-identity", "times-swap"])
    def test_witnesses_are_the_first_nonzero_columns(self, mutate):
        pair = halmos_pair_scaled()
        mutant = HalmosPair(pair.a, pair.b, mutate(pair.nilpotent))
        defect = mutant.commutator_defect()
        g = next(g for g in range(1, 65) if defect.apply(g))
        idx, value = next(iter(defect.apply(g).items()))
        vd = exact_commutator_identity_check(mutant)
        assert vd.witness == {"column": g, "basis_index": idx, "value": repr(value)}
        nil = mutant.nilpotent
        cube = nil @ nil @ nil
        nil_vd = nil_index_three_check(mutant)
        g = next((g for g in range(1, 65) if cube.apply(g)), None)
        if g is None:
            assert nil_vd.passed
        else:
            assert nil_vd.witness == {"cube_column": g, "support": sorted(cube.apply(g))}


class TestFactorizationChecks:
    nilpotent_c = np.tril(np.random.default_rng(3).uniform(0.0, 1.0, (5, 5)), k=-1)

    def test_nilpotent_factors_pass(self):
        pair = nilpotent_commutator_factors(self.nilpotent_c, 0.5)
        verdicts = factorization_checks(self.nilpotent_c, pair, eps=0.5)
        assert [vd.claim for vd in verdicts] == ["reconstruction-residual", "ba-below-eps-c"]
        assert all(vd.passed for vd in verdicts)

    def test_trace_zero_factors_pass(self):
        c = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [4.0, 5.0, 0.0]])
        (vd,) = factorization_checks(c, trace_zero_commutator_factors(c))
        assert vd.claim == "reconstruction-residual"
        assert vd.passed

    def test_b_scaled_up_fails_ba_below_eps_c(self):
        c = np.array([[0.0, 1e5], [0.0, 0.0]])
        pair = nilpotent_commutator_factors(c, 1000.0)
        assert all(vd.passed for vd in factorization_checks(c, pair, eps=1000.0))
        scaled = FactorPair(a=pair.a, b=pair.b * (1.0 + 1e-6))
        ba = factorization_checks(c, scaled, eps=1000.0)[1]
        assert ba.claim == "ba-below-eps-c"
        assert not ba.passed
        assert (ba.witness["row"], ba.witness["col"]) == (1, 2)

    def test_ba_allows_for_rounding_at_tol_zero(self):
        # BA_12 = c_12 / (d_1/d_2 - 1) exceeds eps c_12 = 1e8 by about 1.1e-5 here.
        c = np.array([[0.0, 1e5], [0.0, 0.0]])
        pair = nilpotent_commutator_factors(c, 1000.0)
        verdicts = {vd.claim: vd for vd in factorization_checks(c, pair, tol=0.0, eps=1000.0)}
        assert verdicts["ba-below-eps-c"].passed
        assert verdicts["ba-below-eps-c"].margin < 0.0

    @pytest.mark.parametrize("eps", [0.5, None])
    def test_residual_allows_for_rounding_at_tol_zero(self, eps):
        c = self.nilpotent_c
        pair = nilpotent_commutator_factors(c, eps) if eps else trace_zero_commutator_factors(c)
        residual = factorization_checks(c, pair, tol=0.0, eps=eps)[0]
        assert residual.claim == "reconstruction-residual"
        assert residual.passed and residual.inputs["residual"] > 0.0
        # A C that differs from AB - BA by twice the allowance fails.
        off = c.copy()
        off[4, 0] += 2.0 * residual.inputs["tolerance"]
        assert max(off.max(), 1.0) == max(c.max(), 1.0)  # the allowance scales with max C
        above = factorization_checks(off, pair, tol=0.0, eps=eps)[0]
        assert not above.passed
        assert above.witness["residual"] > above.inputs["tolerance"]

    @pytest.mark.parametrize("eps, index", [(None, (3, 0)), (0.5, (0, 3))],
                             ids=["tracezero", "nilpotent"])
    def test_residual_allows_for_underflow_at_tol_zero(self, eps, index):
        # b = 5e-324 / (d_i - d_j) underflows to 0, and the relative term
        # gamma_4 (1 + spread) max C is 0 in floating point.
        c = np.zeros((4, 4))
        c[index] = 5e-324
        pair = nilpotent_commutator_factors(c, eps) if eps else trace_zero_commutator_factors(c)
        residual = factorization_checks(c, pair, tol=0.0, eps=eps)[0]
        assert residual.passed and residual.inputs["residual"] == 5e-324
        assert residual.inputs["tolerance"] <= 64 * 5e-324  # a few dozen least subnormals
        # A C that differs from AB - BA by twice the allowance fails.
        off = c.copy()
        off[index] += 2.0 * residual.inputs["tolerance"]
        above = factorization_checks(off, pair, tol=0.0, eps=eps)[0]
        assert not above.passed
        assert above.inputs["tolerance"] == residual.inputs["tolerance"]

    def test_residual_allows_for_underflow_times_the_diagonal_gap(self):
        # b_21 = 1e-290 / (d_2 - d_1) = 1e-320 is subnormal and off by up to 2**-1075, which
        # AB - BA multiplies by d_2 - d_1 = 1e30: the residual is about 1e-295.
        c = np.array([[0.0, 0.0], [1e-290, 0.0]])
        pair = nilpotent_commutator_factors(c, 1e-30)
        residual = factorization_checks(c, pair, tol=0.0, eps=1e-30)[0]
        assert residual.passed and residual.inputs["residual"] > 1e-300

    def test_trace_zero_residual_needs_the_spread_factor(self):
        # At n = 50 the residual of a correct factorization is 7.75 times
        # 2 gamma_4 max C, so a rounding term whose (1 + spread) factor were
        # the constant 2 would fail it at tol=0.
        c = np.random.default_rng(0).uniform(0.0, 1.0, (50, 50))
        np.fill_diagonal(c, 0.0)
        (residual,) = factorization_checks(c, trace_zero_commutator_factors(c), tol=0.0)
        assert residual.passed
        assert residual.inputs["residual"] > 7.0 * 2.0 * verifiers._gamma(4) * c.max()

    # Entries of C: zeros of both signs, subnormals, and normal numbers of every scale.
    _entries = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 2.0**-1022]) | st.floats(
        min_value=1e-300, max_value=1e300)

    @given(n=st.integers(1, 6), data=st.data(), eps=st.sampled_from([None, 1e-30, 0.01, 0.5, 1.0, 1e3]))
    def test_diagonal_products_give_the_dense_verdicts(self, n, data, eps):
        # Nilpotent C: strictly upper-triangular behind a permutation; trace-zero
        # C: any entries off a diagonal of signed zeros.
        entries = np.array(data.draw(st.lists(self._entries, min_size=n * n, max_size=n * n)))
        c = entries.reshape(n, n)
        if eps is None:
            c[range(n), range(n)] = data.draw(st.lists(st.sampled_from([0.0, -0.0]),
                                                       min_size=n, max_size=n))
        else:
            perm = np.array(data.draw(st.permutations(range(n))), dtype=int)
            c = np.triu(c, 1)[np.ix_(perm, perm)]
        try:
            pair = (trace_zero_commutator_factors(c) if eps is None
                    else nilpotent_commutator_factors(c, eps))
        except (DynamicRangeError, ValueError):  # beyond the double range, or eps too large
            assume(False)
        verdicts = factorization_checks(c, pair, tol=0.0, eps=eps)
        residual, ba = dense_factor_products(c, pair)
        tolerance = verdicts[0].inputs["tolerance"]
        passed = residual <= tolerance
        expected = [Verdict(passed, "reconstruction-residual",
                            None if passed else {"residual": residual}, tolerance - residual,
                            {"residual": residual, "tolerance": tolerance})]
        if eps is not None:
            vd = entrywise_leq(ba, eps * c, verdicts[1].inputs["tol"])
            expected.append(dataclasses.replace(vd, claim="ba-below-eps-c"))
        assert [float_bits(dataclasses.asdict(vd)) for vd in verdicts] == [
            float_bits(dataclasses.asdict(vd)) for vd in expected]

    def test_a_with_an_entry_off_the_diagonal_is_refused(self):
        pair = nilpotent_commutator_factors(self.nilpotent_c, 0.5)
        a = pair.a.copy()
        a[0, 1] = 1e-300
        with pytest.raises(ValueError, match="A must be diagonal"):
            factorization_checks(self.nilpotent_c, FactorPair(a=a, b=pair.b), eps=0.5)

    def test_a_with_a_negative_zero_off_the_diagonal_is_diagonal(self):
        # A @ B reads -0.0 as zero, and so do the checks.
        pair = nilpotent_commutator_factors(self.nilpotent_c, 0.5)
        a = pair.a.copy()
        a[0, 1] = a[4, 2] = -0.0
        signed = factorization_checks(self.nilpotent_c, FactorPair(a=a, b=pair.b), eps=0.5)
        assert signed == factorization_checks(self.nilpotent_c, pair, eps=0.5)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_bad_tol(self, tol):
        # The trace-zero checks call no entrywise_leq, which would also reject it.
        pair = trace_zero_commutator_factors(self.nilpotent_c)
        with pytest.raises(ValueError, match=re.escape(f"tol must lie in [0, inf), got {tol}")):
            factorization_checks(self.nilpotent_c, pair, tol=tol)

    @pytest.mark.parametrize("eps", [-0.75, -1.0])
    def test_rejects_bad_eps(self, eps):
        # Unchecked, -0.75 made a negative internal BA tolerance, and -1 returned verdicts.
        pair = nilpotent_commutator_factors(self.nilpotent_c, 0.5)
        with pytest.raises(ValueError, match=re.escape(f"eps must lie in (0, inf), got {eps}")):
            factorization_checks(self.nilpotent_c, pair, eps=eps)

    def test_rejects_shapes_that_differ(self):
        pair = trace_zero_commutator_factors(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="differ in shape"):
            factorization_checks(np.zeros((1, 1)), pair)


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_obstructions_reject_bad_tol(self, tol):
        eye = np.identity(2)
        with pytest.raises(ValueError, match=re.escape(f"tol must lie in [0, inf), got {tol}")):
            finite_dim_obstructions(eye, eye, eye, tol=tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_power_report_rejects_bad_tol(self, tol):
        eye = np.identity(2)
        with pytest.raises(ValueError, match=re.escape(f"tol must lie in [0, inf), got {tol}")):
            power_inequality_report(eye, eye, eye, n_max=2, tol=tol)

