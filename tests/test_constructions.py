"""Witness pairs and finite-dimensional commutator factorizations."""

import numpy as np
import pytest

from commkit.constructions import (
    halmos_nilpotent_majorant,
    halmos_pair_scaled,
    nilpotent_commutator_factors,
    trace_zero_commutator_factors,
)
from commkit.lazyops import _Affine, _residue_columns, compress, even_isometry, identity_op
from commkit.matrices import (
    DynamicRangeError,
    entrywise_leq,
    max_abs,
    operator_norm,
)
from commkit.scalars import EpsScalar
from oracles import nilpotency_index, unscaled_halmos_pair


def _class_labels(op):
    """(r, label, scalar) for every label of op's residue columns r = 1..M."""
    _, columns = _residue_columns(op)
    return [(r, label, value)
            for r, column in enumerate(columns, 1) for label, value in column.items()]


def _negative(labels):
    return [entry for entry in labels if any(c < 0 for c in entry[2].terms.values())]


class TestHalmosPair:
    def test_commutator_is_identity_plus_nilpotent(self):
        defect = unscaled_halmos_pair().commutator_defect()
        assert all(defect.apply(g) == {} for g in range(1, 65))

    @pytest.mark.parametrize("name", ["a", "b", "nilpotent"])
    def test_eps_one_member_is_the_unscaled_pair(self, name):
        scaled, plain = getattr(halmos_pair_scaled(), name), getattr(unscaled_halmos_pair(), name)
        for m in (1, 7, 64, 129):
            assert np.array_equal(compress(scaled, m, 1.0), compress(plain, m, 1.0))

    def test_scaled_commutator_identity_is_symbolic(self):
        defect = halmos_pair_scaled().commutator_defect()
        assert all(defect.apply(g) == {} for g in range(1, 65))

    def test_nilpotent_cubes_to_zero(self):
        nil = halmos_pair_scaled().nilpotent
        cube = nil @ nil @ nil
        assert all(cube.apply(g) == {} for g in range(1, 65))

    def test_nilpotent_square_is_nonzero(self):
        # the square's column at slot-4 internal 1: the (1,4) block sends it
        # through swap-even-swap to slot-1 internal 3 with weight 8*eps**3,
        # the (2,4) block through even^2-swap to slot-2 internal 8 with -8*eps**2
        nil = halmos_pair_scaled().nilpotent
        square = nil @ nil
        assert square.apply(4) == {9: EpsScalar.monomial(8, 3), 30: EpsScalar.monomial(-8, 2)}

    @pytest.mark.parametrize("name, labels", [("a", 12), ("b", 6)])
    def test_members_are_nonnegative_on_every_column_for_every_eps(self, name, labels):
        # Every column M*t + r is class r's labels at t, and where two labels
        # name the same row their scalars add.  So nonnegative coefficients on
        # every label make every entry nonnegative at every eps > 0.
        found = _class_labels(getattr(halmos_pair_scaled(), name))
        assert len(found) == labels
        assert _negative(found) == []

    def test_positivity_check_finds_a_negative_label(self):
        found = _class_labels(halmos_pair_scaled().a - identity_op())
        assert (1, _Affine(8, 1), EpsScalar.integer(-1)) in _negative(found)

    def test_scaled_corner_blocks(self):
        a = halmos_pair_scaled().a
        # slot-1 internal 1: only the odd-adjoint block (3,1) with eps**-2 hits it
        assert a.apply(1) == {3: EpsScalar.monomial(1, -2)}
        # slot-1 internal 2: only the even-adjoint block (4,1) with eps**-3
        assert a.apply(5) == {4: EpsScalar.monomial(1, -3)}

    def test_scaled_nilpotent_column(self):
        nil = halmos_pair_scaled().nilpotent
        # slot-3 internal 1: block (1,3) = -2 eps^2 swap, block (2,3) = 2 eps even
        assert nil.apply(3) == {5: EpsScalar.monomial(-2, 2), 6: EpsScalar.monomial(2, 1)}

    def test_compressed_nilpotent_has_index_three(self):
        nc = compress(halmos_pair_scaled().nilpotent, 64, 1.0)
        assert nilpotency_index(nc) == 3

    def test_majorant_entries(self):
        m = halmos_nilpotent_majorant(0.5)
        assert m[0, 2] == 2 * 0.5**2
        assert m[0, 3] == 4 * 0.5**3
        assert m[1, 2] == 2 * 0.5
        assert m[1, 3] == 2 * 0.5**2
        assert m[2, 3] == 4 * 0.5
        assert np.count_nonzero(m) == 5

    def test_majorant_dominates_compression_norm(self):
        pair = halmos_pair_scaled()
        for eps in (0.1, 0.4, 1.0):
            lower = operator_norm(compress(pair.nilpotent, 128, eps), rel_tol=1e-8).lower
            upper = operator_norm(halmos_nilpotent_majorant(eps), rel_tol=1e-12).upper
            assert lower <= upper + 1e-9

    def test_nilpotent_norm_scales_linearly(self):
        pair = halmos_pair_scaled()
        for eps in (0.1, 0.4):
            lower = operator_norm(compress(pair.nilpotent, 128, eps), rel_tol=1e-8).lower
            assert 1.0 <= lower / eps <= 10.0


def self_commutator_isometry():
    """(t, t*t - tt*) for the even isometry t: the projection onto the odd basis vectors."""
    t = even_isometry()
    ts = t.adjoint()
    return t, ts @ t - t @ ts


class TestSelfCommutatorIsometry:
    def test_projection_columns(self):
        _, proj = self_commutator_isometry()
        assert proj.apply(1) == {1: EpsScalar.one()}
        assert proj.apply(2) == {}

    def test_square_is_itself(self):
        _, proj = self_commutator_isometry()
        squared = proj @ proj
        for g in range(1, 101):
            assert squared.apply(g) == proj.apply(g)

    def test_factor_is_an_isometry_realizing_it(self):
        t, proj = self_commutator_isometry()
        ts = t.adjoint()
        self_comm = ts @ t - t @ ts
        for g in range(1, 101):
            assert self_comm.apply(g) == proj.apply(g)


def check_factorization(c, pair, eps=None, residual_scale=1.0):
    c = np.asarray(c, dtype=float)
    recon = pair.a @ pair.b - pair.b @ pair.a
    assert np.abs(recon - c).max() <= 1e-9 * (1.0 + np.abs(c).max()) * residual_scale
    diag = np.diag(pair.a)
    assert np.all(diag > 0.0)
    assert np.count_nonzero(pair.a - np.diag(diag)) == 0
    if eps is not None:
        assert entrywise_leq(pair.b @ pair.a, eps * c, 1e-9).passed


class TestNilpotentFactorization:
    def test_frozen_2x2(self):
        c = np.array([[0.0, 0.0], [1.0, 0.0]])
        pair = nilpotent_commutator_factors(c, 1.0)
        assert np.diag(pair.a).tolist() == [1.0, 2.0]
        assert pair.b.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        # BA equals C here, so the eps = 1 inequality is tight
        assert np.array_equal(pair.b @ pair.a, c)
        check_factorization(c, pair, eps=1.0)

    def test_zero_matrix(self):
        pair = nilpotent_commutator_factors(np.zeros((3, 3)), 0.7)
        assert np.count_nonzero(pair.b) == 0
        check_factorization(np.zeros((3, 3)), pair, eps=0.7)

    def test_3x3_all_ones_lower(self):
        c = np.tril(np.ones((3, 3)), k=-1)
        pair = nilpotent_commutator_factors(c, 0.5)
        assert np.diag(pair.a).tolist() == [1.0, 3.0, 9.0]
        check_factorization(c, pair, eps=0.5, residual_scale=9.0)

    def test_strictly_upper_input_is_permuted(self):
        c = np.array([[0.0, 1.0], [0.0, 0.0]])
        pair = nilpotent_commutator_factors(c, 1.0)
        check_factorization(c, pair, eps=1.0, residual_scale=2.0)
        assert sorted(np.diag(pair.a).tolist()) == [1.0, 2.0]

    def test_random_inputs(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            density = rng.uniform(0.1, 0.9)
            mask = rng.random((n, n)) < density
            c = np.tril(rng.uniform(0.0, 1.0, (n, n)) * mask, k=-1)
            perm = rng.permutation(n)
            c = c[np.ix_(perm, perm)]
            eps = float(rng.choice([0.1, 0.5, 1.0, 10.0]))
            pair = nilpotent_commutator_factors(c, eps)
            kappa = ((1.0 + eps) / eps) ** (n - 1)
            check_factorization(c, pair, eps=eps, residual_scale=kappa)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            nilpotent_commutator_factors([[0.0, -1.0], [0.0, 0.0]], 1.0)

    def test_rejects_cycle_with_witness(self):
        with pytest.raises(ValueError, match=r"support cycle 1->2->1"):
            nilpotent_commutator_factors([[0.0, 1.0], [1.0, 0.0]], 1.0)

    def test_rejects_overflowing_dynamic_range(self):
        c = np.tril(np.ones((50, 50)), k=-1)
        with pytest.raises(DynamicRangeError):
            nilpotent_commutator_factors(c, 1e-10)

    def test_rejects_entries_that_overflow_the_products(self):
        # A = diag(1, 2) and b_21 = 1e308, so (AB)_21 = 2e308.
        with pytest.raises(DynamicRangeError, match="B, AB or BA overflows"):
            nilpotent_commutator_factors([[0.0, 0.0], [1e308, 0.0]], 1.0)

    def test_rejects_eps_times_c_out_of_range(self):
        # The products stay below 1.7e308, but eps * c_14 = 5e308.
        c = np.diag([1.0, 1.0, 1.0], 1)
        c[0, 3] = 5e298
        with pytest.raises(DynamicRangeError, match="eps \\* C overflows"):
            nilpotent_commutator_factors(c, 1e10)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            nilpotent_commutator_factors(np.zeros((2, 2)), 0.0)


class TestTraceZeroFactorization:
    def test_frozen_2x2(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        pair = trace_zero_commutator_factors(c)
        assert np.diag(pair.a).tolist() == [1.0, 2.0]
        assert pair.b.tolist() == [[0.0, -1.0], [1.0, 0.0]]
        check_factorization(c, pair)

    def test_zero_matrix(self):
        pair = trace_zero_commutator_factors(np.zeros((4, 4)))
        assert np.count_nonzero(pair.b) == 0

    def test_single_entry(self):
        c = np.zeros((3, 3))
        c[2, 0] = 6.0
        pair = trace_zero_commutator_factors(c)
        assert pair.b[2, 0] == 3.0
        check_factorization(c, pair)

    def test_random_inputs(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            c = rng.uniform(0.0, 2.0, (n, n))
            np.fill_diagonal(c, 0.0)
            pair = trace_zero_commutator_factors(c)
            recon = pair.a @ pair.b - pair.b @ pair.a
            assert np.abs(recon - c).max() <= 1e-9 * n * max(max_abs(c), 1.0)
            assert np.all(pair.a >= 0.0)

    def test_cyclic_support_forces_negative_entry_in_b(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            c = rng.uniform(0.1, 1.0, (n, n))
            np.fill_diagonal(c, 0.0)  # full off-diagonal support always has a cycle
            pair = trace_zero_commutator_factors(c)
            assert pair.b.min() < 0.0

    def test_rejects_negative_entries_that_overflow_the_products(self):
        # A = diag(1, 2) and b_12 = 1e308 / (1 - 2) = -1e308, so (BA)_12 = -2e308.
        with pytest.raises(DynamicRangeError, match="B, AB or BA overflows"):
            trace_zero_commutator_factors([[0.0, 1e308], [0.0, 0.0]])

    def test_rejects_nonzero_trace(self):
        with pytest.raises(ValueError):
            trace_zero_commutator_factors([[1e-6, 1.0], [1.0, 0.0]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            trace_zero_commutator_factors([[0.0, -1.0], [1.0, 0.0]])


def test_nilpotent_rejects_eps_whose_diagonal_collapses():
    # (1 + 1e17) / 1e17 rounds to 1, so every diagonal entry of A would be 1
    # and every divisor a_ii - a_jj zero.
    with pytest.raises(ValueError, match=r"eps=1e\+17 is too large"):
        nilpotent_commutator_factors([[0.0, 0.0], [1.0, 0.0]], 1e17)


def test_trace_zero_rejects_a_diagonal_whose_sum_overflows():
    c = np.diag([8.98846567431158e307, 8.988465674311579e307])
    with pytest.raises(ValueError, match="trace must vanish"):
        trace_zero_commutator_factors(c)


def test_trace_zero_rejects_entries_that_overflow_the_products():
    c = np.array([[0.0, 1e308], [1e308, 0.0]])
    with pytest.raises(DynamicRangeError, match="overflow"):
        trace_zero_commutator_factors(c)
