"""Matrix core: arithmetic, order, spectral quantities, file formats."""

import json
import math

import numpy as np
import pytest

from commkit.constructions import halmos_nilpotent_majorant, halmos_pair_scaled
from commkit.lazyops import compress
from commkit.matrices import (
    UnconvergedError,
    _component_blocks,
    _dense_certificate,
    as_matrix,
    commutator,
    entrywise_leq,
    identity,
    matrix_from_json_dict,
    nilpotency_index,
    operator_norm,
    permutation_triangularization,
    read_matrix,
    trace,
    write_matrix,
)


# -- independent oracle: exact spectral norm for sizes <= 4 ------------------
# Closed form at 2x2; bisection with a Cholesky PSD test on the Gram matrix
# otherwise.  No power iteration, no library SVD.


def _is_psd(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return False


def exact_spectral_norm(a) -> float:
    a = np.asarray(a, dtype=float)
    gram = a.T @ a
    n = gram.shape[0]
    if n == 1:
        return math.sqrt(gram[0, 0])
    if n == 2:
        t = gram[0, 0] + gram[1, 1]
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        disc = max(t * t - 4.0 * det, 0.0)
        return math.sqrt((t + math.sqrt(disc)) / 2.0)
    lo, hi = 0.0, float(np.abs(gram).sum(axis=1).max()) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _is_psd(mid * np.identity(n) - gram):
            hi = mid
        else:
            lo = mid
    return math.sqrt(hi)


def test_oracle_agrees_with_closed_form():
    # diag(3, 1, 2) has top singular value 3; checks the bisection branch
    assert math.isclose(exact_spectral_norm(np.diag([3.0, 1.0, 2.0])), 3.0, rel_tol=1e-12)


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[float("inf")]])

    def test_copies_input(self):
        src = np.ones((2, 2))
        out = as_matrix(src)
        out[0, 0] = 5.0
        assert src[0, 0] == 1.0


class TestIdentityTrace:
    def test_identity_one(self):
        assert identity(1).tolist() == [[1.0]]

    def test_identity_two(self):
        assert identity(2).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_identity_trace(self):
        assert trace(identity(3)) == 3.0
        assert trace(identity(4)) == 4.0

    def test_trace_off_diagonal(self):
        assert trace([[0.0, 1.0], [1.0, 0.0]]) == 0.0

    def test_identity_rejects_bad_size(self):
        with pytest.raises(ValueError):
            identity(0)

    def test_trace_rejects_rectangular(self):
        with pytest.raises(ValueError):
            trace(np.ones((2, 3)))


class TestCommutator:
    def test_identity_commutes(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.all(commutator(identity(2), b) == 0.0)

    def test_frozen_2x2(self):
        # direct multiplication: diag(1,2)@E12 = E12, E12@diag(1,2) = 2*E12
        got = commutator(np.diag([1.0, 2.0]), [[0.0, 1.0], [0.0, 0.0]])
        assert got.tolist() == [[0.0, -1.0], [0.0, 0.0]]

    def test_trace_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            bound = 1e-9 * np.abs(a).max() * np.abs(b).max() * 5
            assert abs(trace(commutator(a, b))) <= max(bound, 1e-12)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            commutator(np.ones((2, 3)), np.ones((2, 3)))


class TestEntrywiseLeq:
    def test_zero_below_identity(self):
        assert entrywise_leq(np.zeros((2, 2)), identity(2), 0.0).passed

    def test_identity_not_below_zero(self):
        vd = entrywise_leq(identity(2), np.zeros((2, 2)), 0.0)
        assert not vd.passed
        assert vd.witness == {"row": 1, "col": 1, "value": -1.0}

    def test_reflexive(self):
        a = np.random.default_rng(0).standard_normal((3, 4))
        assert entrywise_leq(a, a, 0.0).passed

    def test_tolerance_band(self):
        a = np.array([[0.0, 1e-10]])
        assert entrywise_leq(a, np.zeros((1, 2)), 1e-9).passed
        assert not entrywise_leq(a, np.zeros((1, 2)), 0.0).passed

    def test_margin_is_worst_slack(self):
        vd = entrywise_leq(np.array([[2.0, 0.0]]), np.array([[1.0, 3.0]]), 10.0)
        assert vd.margin == -1.0

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            entrywise_leq(np.ones((2, 2)), np.ones((3, 3)))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-300])
    def test_rejects_non_finite_or_negative_tol(self, tol):
        # nan would fail equal matrices and inf would pass any pair
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            entrywise_leq(np.zeros((2, 2)), np.zeros((2, 2)), tol)


class TestOperatorNorm:
    def test_diagonal(self):
        cert = operator_norm(np.diag([3.0, 1.0]))
        assert math.isclose(cert.lower, 3.0, rel_tol=1e-9)
        assert math.isclose(cert.upper, 3.0, rel_tol=1e-9)

    def test_single_singular_value(self):
        cert = operator_norm([[0.0, 1.0], [0.0, 0.0]])
        assert math.isclose(cert.lower, 1.0, rel_tol=1e-12)
        assert math.isclose(cert.upper, 1.0, rel_tol=1e-12)

    def test_zero_matrix(self):
        cert = operator_norm(np.zeros((3, 3)))
        assert cert.lower == cert.upper == 0.0
        assert cert.upper_method == "exact"

    def test_method_tags(self):
        cert = operator_norm(np.diag([2.0, 1.0]))
        assert cert.lower_method == "column-norm"
        assert cert.upper_method == "norm-cap"
        cert = operator_norm([[1.0, 2.0], [3.0, 4.0]])
        assert cert.lower_method == "eigenvector"
        assert cert.upper_method == "weyl-enclosure"

    def test_bracket_contains_exact_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            a = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
            cert = operator_norm(a)
            truth = exact_spectral_norm(a)
            slack = 1e-9 * max(truth, 1.0)
            assert cert.lower <= truth + slack
            assert truth <= cert.upper + slack
            assert cert.upper - cert.lower <= 1e-10 * cert.upper + 1e-300

    def test_all_ones_stagnation_is_escaped(self):
        # Gram matrix [[2,-1],[-1,2]] fixes the all-ones vector exactly while
        # the top eigenpair lives at (1,-1); the probe restart must find it.
        a = np.array([[math.sqrt(2.0), -1.0 / math.sqrt(2.0)], [0.0, math.sqrt(1.5)]])
        assert np.allclose(a.T @ a, [[2.0, -1.0], [-1.0, 2.0]])
        cert = operator_norm(a)
        assert math.isclose(cert.lower, math.sqrt(3.0), rel_tol=1e-10)
        assert math.isclose(cert.upper, math.sqrt(3.0), rel_tol=1e-10)

    def test_unconverged_carries_bracket(self):
        a = np.random.default_rng(3).standard_normal((6, 6))
        with pytest.raises(UnconvergedError) as err:
            operator_norm(a, rel_tol=1e-17)
        assert 0.0 <= err.value.data["lower"] <= err.value.data["upper"]

    def test_rejects_bad_rel_tol(self):
        with pytest.raises(ValueError):
            operator_norm(identity(2), rel_tol=0.0)

    @pytest.mark.parametrize("values", [
        [[1.0, float("nan")]],
        np.array([[1.0], [float("inf")]]),
        np.zeros((0, 3)),
        [],
        5.0,
        np.ones((2, 2, 2)),
        [[1.0, 2.0], [3.0]],
    ])
    def test_rejects_what_as_matrix_rejects(self, values):
        with pytest.raises(ValueError):
            operator_norm(values)

    def test_reads_lists_and_vectors_as_as_matrix_does(self):
        assert operator_norm([3.0, 4.0]) == operator_norm(as_matrix([[3.0, 4.0]]))
        assert operator_norm([[1, 2], [3, 4]]) == operator_norm(np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("a", [
        np.array([[3.0, 1.0], [1.0, 2.0]]),
        np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]]),
    ], ids=["connected", "split"])
    def test_leaves_its_argument_unchanged(self, a):
        before = a.copy()
        cert = operator_norm(a)
        assert np.array_equal(a, before)
        assert cert.components == (1 if a.shape == (2, 2) else 2)

    def test_order_monotonicity_smoke(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            a = rng.uniform(0.0, 1.0, (n, n))
            b = a + rng.uniform(0.05, 1.0, (n, n))
            ca, cb = operator_norm(a), operator_norm(b)
            assert ca.upper <= cb.upper + 1e-9
            assert ca.lower <= cb.lower + 1e-9


class TestOperatorNormSvdOracle:
    """Brackets against LAPACK's SVD, an independent algorithm."""

    @staticmethod
    def assert_tight_bracket(m):
        cert = operator_norm(m)
        truth = np.linalg.svd(m, compute_uv=False)[0]
        assert cert.lower <= truth <= cert.upper
        assert (cert.upper - cert.lower) / cert.upper <= 1e-10

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.4])
    @pytest.mark.parametrize("name", ["a", "b", "nilpotent"])
    def test_halmos_sections(self, name, eps):
        section = compress(getattr(halmos_pair_scaled(), name), 128, eps)
        self.assert_tight_bracket(section)

    def test_signed_wide_dynamic_range(self):
        rng = np.random.default_rng(7)
        signs = rng.choice([-1.0, 1.0], (40, 30))
        m = signs * 10.0 ** rng.uniform(-6.0, 6.0, (40, 30))
        assert np.abs(m).min() < 1e-5 and np.abs(m).max() > 1e5
        self.assert_tight_bracket(m)

    # LAPACK's SVD is backward stable, not exact: on the b section at eps
    # 0.2, window 512, it lands 11 ulps above the section's exact norm, the
    # 1x1 block fl(0.2**-3), and 3 ulps above the certified upper bound.
    # The oracle is given 32 ulps either way, still far inside the 1e-10 gap.
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.4])
    @pytest.mark.parametrize("name, components", [("a", 192), ("b", 256), ("nilpotent", 128)])
    def test_halmos_sections_window_512(self, name, components, eps):
        section = compress(getattr(halmos_pair_scaled(), name), 512, eps)
        cert = operator_norm(section)
        truth = np.linalg.svd(section, compute_uv=False)[0]
        slack = 32.0 * np.spacing(truth)
        assert cert.lower <= truth + slack and truth - slack <= cert.upper
        assert (cert.upper - cert.lower) / cert.upper <= 1e-10
        assert cert.components == components

    def test_b_section_window_2048_is_eps_cubed(self):
        # |b| = eps**-3 on the section; SVD overshoots it by 2e-15 relative.
        cert = operator_norm(compress(halmos_pair_scaled().b, 2048, 0.4))
        exact = 0.4**-3
        slack = 4.0 * np.spacing(exact)
        assert cert.lower <= exact + slack and exact - slack <= cert.upper
        assert (cert.upper - cert.lower) / cert.upper <= 1e-10
        assert cert.components == 1024


def _permuted_block_diagonal(blocks, zero_rows, zero_cols, rng):
    """Direct sum of ``blocks`` plus zero rows and columns, rows and columns shuffled."""
    m = sum(b.shape[0] for b in blocks) + zero_rows
    n = sum(b.shape[1] for b in blocks) + zero_cols
    out = np.zeros((m, n))
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out[np.ix_(rng.permutation(m), rng.permutation(n))]


class TestOperatorNormComponents:
    """The block-by-block certificate against per-block SVD and the dense helper."""

    def test_permuted_block_diagonal(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            blocks = []
            for _ in range(int(rng.integers(2, 12))):
                p, q = int(rng.integers(1, 7)), int(rng.integers(1, 7))
                signs = rng.choice([-1.0, 1.0], (p, q))
                block = signs * rng.uniform(0.1, 1.0, (p, q)) * 10.0 ** rng.uniform(-3.0, 3.0)
                blocks.append(block)
                if rng.random() < 0.3:  # an exact repeat, certified once
                    blocks.append(block.copy())
            zero_rows, zero_cols = (int(k) for k in rng.integers(0, 4, 2))
            a = _permuted_block_diagonal(blocks, zero_rows, zero_cols, rng)
            cert = operator_norm(a)
            truth = max(np.linalg.svd(b, compute_uv=False)[0] for b in blocks)
            assert cert.lower <= truth <= cert.upper
            assert (cert.upper - cert.lower) / cert.upper <= 1e-10
            assert cert.components == len(blocks)

    @pytest.mark.parametrize(
        "corner, methods",
        [(9.0, ("column-norm", "norm-cap")), (2.0, ("eigenvector", "weyl-enclosure"))],
    )
    def test_tags_come_from_the_winning_block(self, corner, methods):
        # |[[1, 2], [3, 4]]| = 5.46...: the 1x1 block wins at 9 and loses at 2.
        blocks = [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[corner]])]
        cert = operator_norm(_permuted_block_diagonal(blocks, 1, 2, np.random.default_rng(2)))
        assert (cert.lower_method, cert.upper_method) == methods
        assert cert.lower <= max(corner, exact_spectral_norm(blocks[0])) <= cert.upper
        assert cert.components == 2

    @pytest.mark.parametrize("name", ["dense", "majorant", "zero-rows"])
    def test_single_component_is_the_dense_certificate(self, name):
        rng = np.random.default_rng(5)
        if name == "dense":
            m = rng.choice([-1.0, 1.0], (40, 30)) * rng.uniform(0.1, 10.0, (40, 30))
        elif name == "majorant":
            m = halmos_nilpotent_majorant(0.1)
        else:
            m = np.zeros((9, 7))
            m[2:6, 1:4] = rng.uniform(0.5, 1.0, (4, 3))
        cert = operator_norm(m)
        assert cert == _dense_certificate(as_matrix(m))
        assert cert.components == 1

    def test_zero_matrix_has_one_component(self):
        assert operator_norm(np.zeros((4, 2))).components == 1

    def test_unconverged_bracket_is_the_combined_one(self):
        a = _permuted_block_diagonal(
            [np.random.default_rng(3).standard_normal((6, 6)), np.identity(2)], 0, 0,
            np.random.default_rng(4),
        )
        with pytest.raises(UnconvergedError) as err:
            operator_norm(a, rel_tol=1e-17)
        assert 0.0 <= err.value.data["lower"] <= err.value.data["upper"]

    def test_long_chain_is_one_component(self):
        # A bidiagonal support is one path through all 8192 rows and columns.
        chain = np.identity(4096) + np.diag(np.full(4095, 0.5), 1)
        assert _component_blocks(chain, chain != 0.0)[0] == 1

    def test_cut_chain_splits_in_two(self):
        rng = np.random.default_rng(8)
        chain = np.identity(512) + np.diag(np.full(511, 0.5), 1)
        chain[200, 201] = 0.0
        chain = chain[np.ix_(rng.permutation(512), rng.permutation(512))]
        count, blocks = _component_blocks(chain, chain != 0.0)
        assert count == 2
        assert sorted(b.shape for b in blocks) == [(201, 201), (311, 311)]


class TestNilpotencyIndex:
    def test_zero_matrix(self):
        assert nilpotency_index(np.zeros((4, 4))) == 1

    def test_jordan_block(self):
        j = np.diag(np.ones(2), k=1)
        assert nilpotency_index(j) == 3

    def test_identity_is_not_nilpotent(self):
        assert nilpotency_index(identity(5)) is None

    def test_explicit_flat_tolerance(self):
        a = np.array([[0.0, 1e-6], [0.0, 0.0]])
        assert nilpotency_index(a, tol=1e-3) == 1
        assert nilpotency_index(a, tol=0.0) == 2


def random_nonneg_nilpotent(rng, n, density=0.4):
    m = np.tril(rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < density), k=-1)
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


class TestPermutationTriangularization:
    def test_already_upper(self):
        perm = permutation_triangularization([[0.0, 1.0], [0.0, 0.0]])
        assert perm.tolist() == [0, 1]

    def test_lower_becomes_swap(self):
        perm = permutation_triangularization([[0.0, 0.0], [1.0, 0.0]])
        assert perm.tolist() == [1, 0]

    def test_cycle_returns_none(self):
        assert permutation_triangularization([[0.0, 1.0], [1.0, 0.0]]) is None

    def test_self_loop_returns_none(self):
        assert permutation_triangularization([[0.5]]) is None

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            permutation_triangularization([[0.0, -1.0], [0.0, 0.0]])

    def test_result_is_strictly_upper(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            c = random_nonneg_nilpotent(rng, int(rng.integers(2, 20)))
            perm = permutation_triangularization(c)
            assert perm is not None
            reordered = c[np.ix_(perm, perm)]
            assert np.all(np.tril(reordered) == 0.0)

    def test_cross_oracle_with_nilpotency_index(self):
        # triangularizability and nilpotency must agree on nonnegative input
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(2, 15))
            c = random_nonneg_nilpotent(rng, n)
            if rng.random() < 0.5:
                i, j = rng.integers(0, n, 2)
                c[i, j] += 0.5
                c[j, i] += 0.5  # 2-cycle (or self-loop when i == j)
            has_perm = permutation_triangularization(c) is not None
            is_nilpotent = nilpotency_index(c) is not None
            assert has_perm == is_nilpotent


class TestMatrixFiles:
    def test_json_round_trip(self, tmp_path):
        a = np.array([[1.5, -2.0], [0.0, 3e-12]])
        path = tmp_path / "m.json"
        write_matrix(path, a)
        assert np.array_equal(read_matrix(path), a)

    def test_csv_with_scientific_notation(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2e-3\n-4E+1,0.5\n", encoding="utf-8")
        assert read_matrix(path).tolist() == [[1.0, 0.002], [-40.0, 0.5]]

    def test_csv_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_csv_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,two\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_json_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json_dict({"rows": 2, "cols": 2, "data": [1.0, 2.0]})

    def test_json_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 1, "data": [1.0]}), encoding="utf-8")
        with pytest.raises(ValueError):
            read_matrix(path)
