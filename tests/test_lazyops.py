"""Lazy operator engine: atoms, combinators, block assembly, compression."""

import functools
import gc
import operator
import tracemalloc

import numpy as np
import pytest

from commkit.constructions import halmos_pair_scaled
from commkit.lazyops import (
    _Affine,
    _residue_columns,
    _section_entries,
    block4,
    compress,
    even_isometry,
    identity_op,
    odd_isometry,
    pair_swap,
    zero_op,
)
from commkit.matrices import write_json
from commkit.scalars import CoefficientOverflow, EpsScalar
from oracles import unscaled_halmos_pair

ONE = EpsScalar.one()
U = even_isometry()
V = odd_isometry()
US = U.adjoint()
VS = V.adjoint()
W = pair_swap()
I = identity_op()
Z = zero_op()


class TestAtoms:
    def test_even_column(self):
        assert U.apply(3) == {6: ONE}

    def test_odd_column(self):
        assert V.apply(1) == {1: ONE}

    def test_even_adjoint_kills_odd(self):
        assert US.apply(5) == {}
        assert US.apply(6) == {3: ONE}

    def test_odd_adjoint_kills_even(self):
        assert VS.apply(4) == {}
        assert VS.apply(5) == {3: ONE}

    def test_identity_and_zero(self):
        assert I.apply(9) == {9: ONE}
        assert Z.apply(9) == {}

    def test_index_validation(self):
        with pytest.raises(ValueError):
            U.apply(0)
        with pytest.raises(ValueError):
            U.apply(-2)


class TestPairSwap:
    def test_odd_to_even(self):
        assert W.apply(1) == {2: ONE}

    def test_even_to_odd(self):
        assert W.apply(4) == {3: ONE}

    def test_involution(self):
        ww = W @ W
        for n in (1, 2, 7, 100):
            assert ww.apply(n) == {n: ONE}

    def test_self_adjoint(self):
        wt = W.adjoint()
        for n in range(1, 50):
            assert wt.apply(n) == W.apply(n)


class TestIsometryIdentities:
    def test_isometry_and_orthogonality(self):
        usu = US @ U
        vsv = VS @ V
        usv = US @ V
        vsu = VS @ U
        for n in range(1, 10_001):
            assert usu.apply(n) == {n: ONE}
            assert vsv.apply(n) == {n: ONE}
            assert usv.apply(n) == {}
            assert vsu.apply(n) == {}

    def test_completeness(self):
        total = U @ US + V @ VS
        for n in range(1, 10_001):
            assert total.apply(n) == {n: ONE}


class TestCombinators:
    def test_cancellation_to_zero(self):
        op = U + (-1) * U
        assert op.apply(12) == {}

    def test_scaling_by_eps_monomial(self):
        op = EpsScalar.monomial(2, 3) * U
        assert op.apply(1) == {2: EpsScalar.monomial(2, 3)}

    def test_subtraction_and_negation(self):
        assert (U - U).apply(4) == {}
        assert (-U).apply(1) == {2: EpsScalar.integer(-1)}

    def test_adjoint_of_composition_reverses(self):
        op = (U @ VS).adjoint()
        ref = V @ US
        for n in range(1, 40):
            assert op.apply(n) == ref.apply(n)

    def test_double_adjoint_acts_identically(self):
        op = 2 * (U @ W) + EpsScalar.monomial(1, -1) * VS
        dd = op.adjoint().adjoint()
        for n in range(1, 60):
            assert dd.apply(n) == op.apply(n)

    def test_apply_returns_fresh_dicts(self):
        col = W.apply(1)
        col[99] = ONE
        assert W.apply(1) == {2: ONE}

    @pytest.mark.parametrize("op", [
        U,
        VS,
        I,
        Z,
        W,
        2 * (U @ W) + VS,
        block4([[U, Z, Z, Z], [Z, VS, Z, Z], [Z, Z, I, Z], [Z, Z, Z, W]]),
        halmos_pair_scaled().a,
    ], ids=["even", "odd-adjoint", "identity", "zero", "swap", "linear", "block4", "scaled-a"])
    def test_mutating_a_column_leaves_the_next_apply_unchanged(self, op):
        for n in range(1, 17):
            expected = op.apply(n)
            col = op.apply(n)
            col[10**6] = ONE
            for key in list(col)[:-1]:
                col[key] = ONE + ONE
            assert op.apply(n) == expected

    def test_apply_retains_no_memory(self):
        a = halmos_pair_scaled().a
        a.apply(1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for g in range(1, 20_001):
                a.apply(g)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1_000_000

    def test_repeated_application_is_deterministic(self):
        op = U @ W + 3 * VS
        first = [op.apply(n) for n in range(1, 30)]
        second = [op.apply(n) for n in range(1, 30)]
        assert first == second

    def test_coefficient_overflow_is_detected(self):
        op = (2**62) * ((2**62) * U)
        with pytest.raises(CoefficientOverflow):
            op.apply(1)


class TestBlock4:
    def test_block_identity(self):
        op = block4([[I if r == c else Z for c in range(4)] for r in range(4)])
        for g in (1, 2, 3, 4, 5, 17, 40):
            assert op.apply(g) == {g: ONE}

    def test_single_block_shuffles_slots(self):
        grid = [[Z] * 4 for _ in range(4)]
        grid[0][1] = I  # block (1,2): slot 2 -> slot 1
        op = block4(grid)
        # slot-2 internal n sits at 4(n-1)+2; image is slot-1 internal n
        assert op.apply(2) == {1: ONE}
        assert op.apply(6) == {5: ONE}
        assert op.apply(1) == {}

    def test_column_of_fourth_slot(self):
        # column 4 holding (2U, 0, 2V, 0): slot-4 internal 1 maps to
        # 2*U e1 = 2 e2 in slot 1 and 2*V e1 = 2 e1 in slot 3
        grid = [[Z] * 4 for _ in range(4)]
        grid[0][3] = 2 * U
        grid[2][3] = 2 * V
        op = block4(grid)
        assert op.apply(4) == {5: EpsScalar.integer(2), 3: EpsScalar.integer(2)}

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            block4([[I] * 4] * 3)
        with pytest.raises(TypeError):
            block4([[I, I, I, 1]] + [[Z] * 4] * 3)


class TestConjugation:
    def test_compression_matches_diagonal_conjugation(self):
        # numeric cross-check: the scaled family is the unscaled pair conjugated
        # by diag(e^3, e^2, e, 1), so compressing a scaled member equals
        # D * compression * D^-1 for the evaluated diagonal
        plain, scaled = unscaled_halmos_pair(), halmos_pair_scaled()
        exponents = np.array([3, 2, 1, 0], dtype=float)
        for name in ("a", "b", "nilpotent"):
            for m in (4, 32, 129):
                for eps in (0.05, 0.3, 1.0):
                    d = eps ** exponents[np.arange(m) % 4]
                    op = compress(getattr(plain, name), m, eps)
                    expected = np.diag(d) @ op @ np.diag(1.0 / d)
                    got = compress(getattr(scaled, name), m, eps)
                    scale = np.abs(expected).max()
                    assert np.abs(got - expected).max() <= 1e-12 * scale, (name, m, eps)

    def test_scaled_blocks_carry_their_eps_power(self):
        # column 4 is slot 4 of internal index 1: block (1,4) = 3*1 gains
        # eps**3 and block (3,4) = 2*w gains eps, and w sends e1 to e2
        col = halmos_pair_scaled().a.apply(4)
        assert col == {1: EpsScalar.monomial(3, 3), 7: EpsScalar.monomial(2, 1)}


def _adjoint_cases():
    mixed = block4([
        [Z, VS, Z, 3 * I],
        [Z, US, I, Z],
        [VS, Z, US, 2 * W],
        [US, Z, VS, Z],
    ])
    cases = [
        ("even", U), ("odd", V), ("even-adjoint", US), ("swap", W), ("identity", I),
        ("zero", Z), ("linear", 2 * (U @ W) + VS), ("block4", mixed),
    ]
    for name, make in (("plain", unscaled_halmos_pair), ("scaled", halmos_pair_scaled)):
        pair = make()
        cases += [
            (f"{name}-a", pair.a),
            (f"{name}-b", pair.b),
            (f"{name}-N", pair.nilpotent),
            (f"{name}-defect", pair.commutator_defect()),
        ]
    return [pytest.param(op, id=name) for name, op in cases]


class TestCompress:
    def test_even_isometry_corner(self):
        expected = [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
        assert compress(U, 4, 1.0).tolist() == expected

    def test_odd_isometry_corner(self):
        expected = [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
        assert compress(V, 4, 1.0).tolist() == expected

    def test_identity_any_eps(self):
        assert np.array_equal(compress(I, 5, 0.25), np.identity(5))

    def test_pair_swap_corner(self):
        assert compress(W, 2, 1.0).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_sum_consistency(self):
        m = 16
        assert np.array_equal(compress(U + V, m, 1.0), compress(U, m, 1.0) + compress(V, m, 1.0))

    def test_product_consistency_when_supports_stay_inside(self):
        # W moves an index by at most one, so for even windows every
        # intermediate column stays inside and compression commutes with
        # the product; same for V composed with its adjoint.
        m = 16
        ww = compress(W @ W, m, 1.0)
        assert np.array_equal(ww, compress(W, m, 1.0) @ compress(W, m, 1.0))
        vvs = compress(V @ VS, m, 1.0)
        assert np.array_equal(vvs, compress(V, m, 1.0) @ compress(VS, m, 1.0))

    def test_product_consistency_fails_when_supports_escape(self):
        # the even isometry pushes half the window outside, so the finite
        # sections no longer compose: P U* P U P != P U*U P
        m = 8
        lazy = compress(US @ U, m, 1.0)
        sectioned = compress(US, m, 1.0) @ compress(U, m, 1.0)
        assert not np.array_equal(lazy, sectioned)
        assert np.array_equal(lazy, np.identity(m))

    def test_eps_window_validation(self):
        with pytest.raises(ValueError):
            compress(U, 0, 1.0)
        with pytest.raises(ValueError):
            compress(U, 4, 0.0)
        with pytest.raises(ValueError):
            compress(U, 4, 1.5)
        with pytest.raises(TypeError):
            compress("nope", 4, 1.0)

    @pytest.mark.parametrize("make", [unscaled_halmos_pair, halmos_pair_scaled])
    @pytest.mark.parametrize("m", [1, 7, 64, 129, 512])
    def test_halmos_sections_match_the_column_loop(self, make, m):
        pair = make()
        for op in (pair.a, pair.b, pair.nilpotent):
            for eps in (0.05, 0.1, 0.4, 1.0):
                assert np.array_equal(compress(op, m, eps), _column_loop(op, m, eps))

    @pytest.mark.parametrize("m", [64, 128])
    def test_halmos_sections_write_the_column_loop_bytes(self, tmp_path, m):
        # Equal written bytes also tell -0.0 from 0.0, which array_equal does not.
        pair = halmos_pair_scaled()
        got, expected = tmp_path / "got.json", tmp_path / "expected.json"
        for op in (pair.a, pair.b, pair.nilpotent):
            for eps in (0.05, 0.1, 0.2, 0.4, 1.0):
                write_json(got, compress(op, m, eps))
                write_json(expected, _column_loop(op, m, eps))
                assert got.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("op", [I + V, I - V, W @ W, functools.reduce(operator.matmul, [VS] * 13)])
    @pytest.mark.parametrize("m", [1, 9, 64])
    def test_entries_list_each_position_once(self, op, m):
        rows, cols, values = _section_entries(op, m, [1.0])
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size == cols.size
        assert values.shape == (1, rows.size)
        section = np.zeros((m, m))
        section[rows, cols] = values[0]
        assert np.array_equal(section, _column_loop(op, m, 1.0))

    @pytest.mark.parametrize("sign, corner", [(1, 2.0), (-1, 0.0)])
    def test_coincident_labels_are_summed_exactly(self, sign, corner):
        # I and V meet at column 1 only: I e1 = V e1 = e1.
        op = I + sign * V
        got = compress(op, 9, 1.0)
        assert got[0, 0] == corner
        assert np.array_equal(got, _column_loop(op, 9, 1.0))

    @pytest.mark.parametrize("m", [100, 4097])
    def test_modulus_beyond_the_window_or_cap_evaluates_columns(self, m):
        nested = functools.reduce(operator.matmul, [VS] * 13)
        got = compress(nested, m, 1.0)
        assert np.array_equal(got, _column_loop(nested, m, 1.0))
        assert got[0, 0] == 1.0 and np.count_nonzero(got) == 1

    @pytest.mark.parametrize("op", _adjoint_cases())
    @pytest.mark.parametrize("m", [1, 7, 64, 129])
    def test_adjoint_section_is_the_transpose(self, op, m):
        for eps in (0.1, 1.0):
            assert np.array_equal(compress(op.adjoint(), m, eps), compress(op, m, eps).T)

    def test_isometry_corner_has_unit_norm(self):
        # unit columns force the lower bound to 1; the isometry caps it at 1
        from commkit.matrices import operator_norm

        cert = operator_norm(compress(U, 8, 1.0))
        assert cert.lower == pytest.approx(1.0, abs=1e-12)
        assert cert.upper == pytest.approx(1.0, abs=1e-12)


def _column_loop(op, m, eps):
    """The finite section built one concrete column at a time: the reference for compress."""
    out = np.zeros((m, m))
    for j in range(1, m + 1):
        for i, value in op.apply(j).items():
            if i <= m:
                out[i - 1, j - 1] = value.evaluate(eps)
    return out


def _at(col, t):
    """A symbolic column with t substituted into every label, coinciding labels summed."""
    out = {}
    for label, value in col.items():
        n = label.alpha * t + label.beta
        total = out.get(n, EpsScalar()) + value
        if total.is_zero:
            out.pop(n, None)
        else:
            out[n] = total
    return out


class TestResidueClasses:
    @pytest.mark.parametrize("make", [unscaled_halmos_pair, halmos_pair_scaled])
    def test_symbolic_columns_match_concrete_ones(self, make):
        pair = make()
        defect = pair.commutator_defect()
        modulus, columns = _residue_columns(defect)
        assert modulus == 8 and columns == [{}] * 8
        for op in (pair.a, pair.b, pair.nilpotent, defect):
            for r in range(1, modulus + 1):
                col = op.apply(_Affine(modulus, r))
                for t in range(21):
                    assert _at(col, t) == op.apply(modulus * t + r)

    def test_classes_follow_the_floor_divisions(self):
        assert _residue_columns(U) == (1, [{_Affine(2, 2): ONE}])
        assert _residue_columns(VS) == (2, [{_Affine(1, 1): ONE}, {}])
        assert _residue_columns(block4([[I] * 4] * 4))[0] == 4

    def test_modulus_above_the_cap_is_an_error(self):
        nested = functools.reduce(operator.matmul, [VS] * 13)
        with pytest.raises(ValueError, match="residue modulus"):
            _residue_columns(nested)


def test_concurrent_apply_is_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    op = (2 * (U @ W) + EpsScalar.monomial(1, -1) * VS) @ (V + U)
    expected = [op.apply(n) for n in range(1, 200)]
    fresh = (2 * (U @ W) + EpsScalar.monomial(1, -1) * VS) @ (V + U)

    def worker(n):
        return fresh.apply(n)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(1, 200)))
    assert results == expected
