"""Matrix core: arithmetic, order, spectral quantities, file formats."""

import json
import math
import os
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from commkit import matrices
from commkit.constructions import (
    halmos_nilpotent_majorant,
    halmos_pair_scaled,
    nilpotent_commutator_factors,
)
from commkit.lazyops import _section_entries, compress
from commkit.matrices import (
    DynamicRangeError,
    UnconvergedError,
    _component_blocks,
    _dense_certificate,
    _entries_norm,
    _family_blocks,
    _labels,
    _listed,
    commutator,
    entrywise_leq,
    max_abs,
    NormCertificate,
    matrix_from_json_dict,
    operator_norm,
    read_matrix,
    write_json,
)
from oracles import (
    at_or_above_top_root,
    bracket_contains_norm,
    float_bits,
    gram_charpoly,
    json_matrix,
    matrix_to_json_dict,
    nilpotency_index,
    strict_json_loads,
    support_components,
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
        with pytest.raises(ValueError, match="nonempty"):
            max_abs(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            max_abs([[1.0, float("nan")]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            max_abs([[float("inf")]])


class TestMaxAbs:
    @pytest.mark.parametrize("a", [[[-3.0, 2.0]], [[1.0, -0.5], [0.25, 0.0]], [[5e-324, -0.0]]])
    def test_is_the_largest_absolute_entry(self, a):
        assert float_bits(max_abs(a)) == float_bits(float(np.abs(a).max()))

    @pytest.mark.parametrize("a", [[[-0.0]], [[0.0, -0.0]], [[-0.0, 0.0], [-0.0, -0.0]]])
    def test_zero_matrix_gives_positive_zero(self, a):
        assert float_bits(max_abs(a)) == float_bits(0.0)


class TestCommutator:
    def test_identity_commutes(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.all(commutator(np.identity(2), b) == 0.0)

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
            assert abs(np.trace(commutator(a, b))) <= max(bound, 1e-12)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            commutator(np.ones((2, 3)), np.ones((2, 3)))


class TestEntrywiseLeq:
    def test_zero_below_identity(self):
        assert entrywise_leq(np.zeros((2, 2)), np.identity(2), 0.0).passed

    def test_identity_not_below_zero(self):
        vd = entrywise_leq(np.identity(2), np.zeros((2, 2)), 0.0)
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
        with pytest.raises(ValueError, match=re.escape(f"tol must lie in [0, inf), got {tol}")):
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
            operator_norm(np.identity(2), rel_tol=0.0)

    @pytest.mark.parametrize("a", [np.identity(2), np.zeros((2, 2))], ids=["nonzero", "zero"])
    def test_rejects_nan_rel_tol(self, a):
        with pytest.raises(ValueError, match="rel_tol"):
            operator_norm(a, rel_tol=math.nan)
        with pytest.raises(ValueError, match="rel_tol"):
            _family_norm(a.shape, _entries(a), math.nan)

    def test_norm_beyond_the_double_range_is_refused(self):
        with pytest.raises(DynamicRangeError, match="double range"):
            operator_norm(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("values", [
        [[1.0, float("nan")]],
        np.array([[1.0], [float("inf")]]),
        np.zeros((0, 3)),
        [],
        5.0,
        np.ones((2, 2, 2)),
        [[1.0, 2.0], [3.0]],
    ])
    def test_rejects_invalid_matrices(self, values):
        with pytest.raises(ValueError):
            operator_norm(values)

    def test_reads_lists_and_vectors_as_rows(self):
        assert operator_norm([3.0, 4.0]) == operator_norm(np.array([[3.0, 4.0]]))
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

    def test_memory_layout_does_not_matter(self):
        # Connected, signed, with -0.0 entries.  Certifying the array as stored
        # gave its Fortran-ordered copy a lower bound one ulp above the
        # C-ordered one (numpy 2.4, OpenBLAS).  Listing the entries certifies
        # both from the same C-ordered bits, the dense certificate of a.
        rng = np.random.default_rng(3)
        m, n = (int(d) for d in rng.integers(2, 9, 2))
        a = rng.standard_normal((m, n))
        a[rng.random((m, n)) < 0.1] = -0.0
        assert np.signbit(a[a == 0.0]).all() and (a == 0.0).any()
        cert, fortran = operator_norm(a), operator_norm(np.asfortranarray(a))
        assert cert.components == 1
        assert cert == fortran == _certificate(a)
        assert (fortran.lower.hex(), fortran.upper.hex()) == (cert.lower.hex(), cert.upper.hex())

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
        op = getattr(halmos_pair_scaled(), name)
        section = compress(op, 512, eps)
        cert = operator_norm(section)
        truth = np.linalg.svd(section, compute_uv=False)[0]
        slack = 32.0 * np.spacing(truth)
        assert cert.lower <= truth + slack and truth - slack <= cert.upper
        assert (cert.upper - cert.lower) / cert.upper <= 1e-10
        assert cert.components == components
        # The sweep's certificate, from the listed entries, is the dense one, tags and all.
        for window in (64, 512, 2048):
            dense = cert if window == 512 else operator_norm(compress(op, window, eps))
            entries = _section_entries(op, window, [eps])
            assert _family_norm((window, window), entries, 1e-10) == [dense]

    def test_b_section_window_2048_is_eps_cubed(self):
        # |b| = eps**-3 on the section; SVD overshoots it by 2e-15 relative.
        cert = operator_norm(compress(halmos_pair_scaled().b, 2048, 0.4))
        exact = 0.4**-3
        slack = 4.0 * np.spacing(exact)
        assert cert.lower <= exact + slack and exact - slack <= cert.upper
        assert (cert.upper - cert.lower) / cert.upper <= 1e-10
        assert cert.components == 1024


# Entries of extreme blocks: zeros, the least subnormals, subnormals, and
# magnitudes up to the largest double, drawn from one scale or mixed.
_TINY = st.sampled_from([0.0, 5e-324, -5e-324]) | st.floats(-(2.0**-1022), 2.0**-1022)
_HUGE = st.floats(2.0**1000, sys.float_info.max) | st.floats(-sys.float_info.max, -(2.0**1000))
_ANY = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _extreme_blocks(draw):
    p = draw(st.integers(1, 7))
    q = draw(st.integers(1, 8 - p))
    entries = draw(st.sampled_from([_TINY, _HUGE | _TINY, _ANY | _TINY]))
    return np.array(draw(st.lists(entries, min_size=p * q, max_size=p * q))).reshape(p, q)


def _distinct_blocks(section):
    """operator_norm's distinct component blocks of section."""
    _, row_label, col_label = _split(section)
    rows, cols = np.nonzero(section)
    stacks = _component_blocks(row_label, col_label, rows, cols, section[None, rows, cols])
    return [block for blocks, _ in stacks for block in blocks]


def _family_norm(shape, entries, rel_tol):
    """_entries_norm of the one family (shape, entries, rel_tol)."""
    (certs,) = _entries_norm([(shape, entries, rel_tol)])
    return certs


def _certificate(block):
    """The stacked certificate of block alone, as a NormCertificate."""
    lower, upper, by_column, by_cap = (x[0].item() for x in _dense_certificate(block[None]))
    return NormCertificate(lower, upper, "column-norm" if by_column else "eigenvector",
                           "norm-cap" if by_cap else "weyl-enclosure")


class TestOperatorNormExactOracle:
    """Brackets against the exact rational norm of oracles.py, with no ulp of slack."""

    @pytest.mark.parametrize("window, grid", [
        (512, (0.05, 0.1, 0.2, 0.4)),
        (128, (0.05, 0.1, 0.2, 0.4, 1.0)),
    ], ids=["sweep", "construct-halmos"])
    def test_section_blocks(self, window, grid):
        pair = halmos_pair_scaled()
        blocks = {}
        for eps in grid:
            for op in (pair.a, pair.b, pair.nilpotent):
                for block in _distinct_blocks(compress(op, window, eps)):
                    blocks[block.shape, block.tobytes()] = block
        assert len(blocks) >= 4 * len(grid)
        for block in blocks.values():
            assert sum(block.shape) <= 8
            cert = _certificate(block)
            assert bracket_contains_norm(block, cert.lower, cert.upper), block

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.4, 0.5, 1.0])
    def test_majorants(self, eps):
        majorant = halmos_nilpotent_majorant(eps)
        cert = operator_norm(majorant, rel_tol=1e-12)
        assert bracket_contains_norm(majorant, cert.lower, cert.upper)

    @given(_extreme_blocks())
    @settings(max_examples=300, deadline=None)
    @example(np.array([[-5e-324], [5e-324], [5e-324]]))  # norm sqrt(3) * 5e-324, between subnormals
    @example(np.array([[0.0, 5e-324, -3.44035e-318]]))  # norm a hair above a subnormal
    def test_extreme_blocks(self, a):
        for certify in (operator_norm, _certificate):
            if certify is _certificate and not a.any():
                continue  # the dense certificate takes a nonzero matrix
            try:
                cert = certify(a)
                lower, upper = cert.lower, cert.upper
            except UnconvergedError as err:
                lower, upper = err.data["lower"], err.data["upper"]
            except DynamicRangeError:
                # Refused only when the norm is within 2**-30 of the double range's top.
                top = Fraction(sys.float_info.max * (1.0 - 2.0**-30))
                assert not at_or_above_top_root(gram_charpoly(a), top**2)
                continue
            assert bracket_contains_norm(a, lower, upper)

    @pytest.mark.parametrize("a, lower, upper", [
        ([[3.0]], 3.0, 3.0),
        ([[1.0, 1.0]], math.nextafter(math.sqrt(2.0), 0.0), math.sqrt(2.0)),
        ([[-5e-324], [5e-324], [5e-324]], 5e-324, 1e-323),
        (np.zeros((2, 3)), 0.0, 0.0),
    ], ids=["three", "root-two", "subnormal", "zero"])
    def test_one_ulp_inward_is_rejected(self, a, lower, upper):
        assert bracket_contains_norm(a, lower, upper)
        assert not bracket_contains_norm(a, math.nextafter(lower, math.inf), upper)
        if upper > 0.0:
            assert not bracket_contains_norm(a, lower, math.nextafter(upper, 0.0))

    @pytest.mark.parametrize("perturb", ["values-low", "vectors-long"])
    @pytest.mark.parametrize("blocks", [
        [np.array([[1.0, 2.0], [3.0, 4.0]])],
        [np.array([[2.0, 1.0], [1.0, 2.0]])],
        [np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 1.0]])],
        [np.random.default_rng(7).uniform(0.0, 1.0, (4, 4))],
        "sweep",
        "construct-halmos",
    ], ids=["2x2", "symmetric", "3x2-signed", "4x4-positive", "sweep", "construct-halmos"])
    def test_inaccurate_eigh_is_enclosed(self, monkeypatch, blocks, perturb):
        # The enclosure trusts no output of eigh.  Eigenvalues 1e-6 low leave a
        # residual R = G - V diag(lam) V^T that only |R|_F covers; eigenvectors
        # 1e-6 long with eigenvalues shrunk to match leave R near 0, and only
        # the (1 + eta) factor, eta >= |V^T V - I|, covers them.
        if isinstance(blocks, str):
            window, grid = {"sweep": (512, (0.05, 0.1, 0.2, 0.4)),
                            "construct-halmos": (128, (0.05, 0.1, 0.2, 0.4, 1.0))}[blocks]
            pair = halmos_pair_scaled()
            blocks = [block for eps in grid for op in (pair.a, pair.b, pair.nilpotent)
                      for block in _distinct_blocks(compress(op, window, eps))]
        delta = 1e-6
        eigh = np.linalg.eigh

        def inaccurate(gram):
            lam, vecs = eigh(gram)
            if perturb == "values-low":
                return lam * (1.0 - delta), vecs
            return lam / (1.0 + delta) ** 2, vecs * (1.0 + delta)

        monkeypatch.setattr(np.linalg, "eigh", inaccurate)
        for block in blocks:
            cert = _certificate(block)
            assert bracket_contains_norm(block, cert.lower, cert.upper), block


def _split(a):
    """The component labels of a's support, from the union-find oracle."""
    return support_components(a != 0.0)


class _Split(Exception):
    """Raised with the labels _family_blocks found, before it builds any block."""


def _hooked_split(shape, entries):
    """The (count, row_label, col_label) that _family_blocks finds for a listed family."""

    def labels(*args):
        raise _Split(_labels(*args))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrices, "_labels", labels)
        with pytest.raises(_Split) as split:
            _family_blocks(shape, entries)
    return split.value.args[0]


def _assert_same_split(found, expected):
    assert found[0] == expected[0]
    assert np.array_equal(found[1], expected[1]) and np.array_equal(found[2], expected[2])


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
        assert cert == _certificate(np.array(m, dtype=float))
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
        assert _split(chain)[0] == 1
        _assert_same_split(_hooked_split(chain.shape, _listed(chain[None])), _split(chain))

    def test_cut_chain_splits_in_two(self):
        rng = np.random.default_rng(8)
        chain = np.identity(512) + np.diag(np.full(511, 0.5), 1)
        chain[200, 201] = 0.0
        chain = chain[np.ix_(rng.permutation(512), rng.permutation(512))]
        count, row_label, col_label = _split(chain)
        assert count == 2
        _assert_same_split(_hooked_split(chain.shape, _listed(chain[None])), _split(chain))
        rows, cols = np.nonzero(chain)
        stacks = _component_blocks(row_label, col_label, rows, cols, chain[None, rows, cols])
        assert [blocks.shape for blocks, _ in stacks] == [(1, 201, 201), (1, 311, 311)]


class TestSupportComponents:
    """The component split of _family_blocks against the union-find oracle."""

    @given(
        st.integers(1, 12), st.integers(1, 12), st.integers(1, 3), st.floats(0.0, 0.6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    @example(4, 5, 1, 0.0, 0)  # no edge at all
    @example(12, 12, 2, 0.1, 1)  # many small components
    def test_count_and_labels_match_the_oracle(self, m, n, k, density, seed):
        rng = np.random.default_rng(seed)
        family = rng.standard_normal((k, m, n)) * (rng.random((k, m, n)) < density)
        family[:, rng.random(m) < 0.2, :] = 0.0  # empty rows
        family[:, :, rng.random(n) < 0.2] = -0.0  # empty columns, their -0.0 entries listed
        expected = support_components(family.any(axis=0))
        rows, cols, values = _listed(family)
        order = rng.permutation(rows.size)  # any listing order
        entries = rows[order], cols[order], values[:, order]
        _assert_same_split(_hooked_split((m, n), entries), expected)
        assert _family_blocks((m, n), entries)[0] == expected[0]


def _entries(a):
    """Every position of a as a listed entry, zeros included, in a shuffled order: a family of one."""
    rows, cols = np.indices(a.shape)
    order = np.random.default_rng(a.size).permutation(a.size)
    return rows.ravel()[order], cols.ravel()[order], a.ravel()[None, order]


class TestEntriesNorm:
    """operator_norm from listed entries against operator_norm of the scattered matrix."""

    @given(
        st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1)
    )
    @settings(max_examples=150, deadline=None)
    @example(3, 4, 0.0, 0)  # the zero matrix
    @example(12, 12, 0.15, 1)  # many small components
    @example(6, 5, 1.0, 2)  # connected: certified whole, zero rows and columns included
    def test_equals_the_dense_certificate(self, m, n, density, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
        a[rng.random((m, n)) < 0.1] = -0.0  # listed zeros, with their sign, are no edges
        a[rng.random((m, n)) < 0.1] = 0.0
        rows, cols, values = _entries(a)
        listed = rng.random(a.size) < 0.5  # any subset that holds every nonzero
        listed |= values[0].view(np.int64) != 0
        expected = operator_norm(a)
        assert expected.components == max(_split(a)[0], 1)
        entries = rows[listed], cols[listed], values[:, listed]
        assert _family_norm((m, n), entries, 1e-10) == [expected]

    def test_permuted_block_diagonal_with_repeats(self):
        rng = np.random.default_rng(11)
        blocks = [rng.uniform(0.5, 2.0, (p, q)) for p, q in [(1, 1), (2, 3), (3, 2), (1, 4)]]
        a = _permuted_block_diagonal(blocks + blocks[:2], 3, 1, rng)
        (cert,) = _family_norm(a.shape, _entries(a), 1e-10)
        assert cert == operator_norm(a)
        assert cert.components == 6

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            _family_norm((2, 2), (np.array([0]), np.array([1]), np.array([[math.inf]])), 1e-10)

    def test_unconverged_carries_the_bracket(self):
        a = _permuted_block_diagonal(
            [np.random.default_rng(3).standard_normal((6, 6)), np.identity(2)], 0, 0,
            np.random.default_rng(4),
        )
        (err,) = _family_norm(a.shape, _entries(a), 1e-17)
        with pytest.raises(UnconvergedError) as dense:
            operator_norm(a, rel_tol=1e-17)
        assert isinstance(err, UnconvergedError)
        assert (str(err), err.data) == (str(dense.value), dense.value.data)


def _random_stack(rng, k, p, q, kind):
    """k random p x q blocks: signed, with signed zeros, with zero rows, or subnormal."""
    stack = rng.standard_normal((k, p, q)) * (rng.random((k, p, q)) < 0.8)
    if kind == "signed-zeros":
        stack[rng.random((k, p, q)) < 0.3] = -0.0
    elif kind == "zero-rows":
        stack[:, rng.random(p) < 0.4, :] = 0.0
    elif kind == "subnormal":
        stack = np.ldexp(stack, -1060)
    stack[:, 0, 0] = 1.0 if kind != "subnormal" else 5e-324  # no zero block
    return stack


class TestStackedCertificate:
    """The certificate of a stack is that of each block alone, and exact-oracle sound."""

    @pytest.mark.parametrize("kind", ["signed", "signed-zeros", "zero-rows", "subnormal"])
    @pytest.mark.parametrize("seed", range(6))
    def test_stack_is_each_block_alone(self, kind, seed):
        rng = np.random.default_rng(seed)
        p, q = (int(d) for d in rng.integers(1, 5, 2))
        stack = _random_stack(rng, int(rng.integers(2, 7)), p, q, kind)
        lower, upper, by_column, by_cap = _dense_certificate(stack)
        for i, block in enumerate(stack):
            alone = _dense_certificate(block[None])
            assert np.array([lower[i], upper[i]]).tobytes() == np.concatenate(alone[:2]).tobytes()
            assert (by_column[i], by_cap[i]) == (alone[2][0], alone[3][0])
            assert math.copysign(1.0, lower[i]) == 1.0
            assert bracket_contains_norm(block, lower[i], upper[i]), block

    def test_signed_zeros_are_distinct_blocks(self):
        # Distinct bytes are certified apart: [1, -0.0] and [1, 0.0] stay two blocks.
        family = np.array([[1.0, 2.0], [1.0, -0.0], [1.0, 0.0], [1.0, 2.0]])
        (stack,) = _component_blocks(np.array([0]), np.array([0, 0]), np.array([0, 0]),
                                     np.array([0, 1]), family)
        blocks, index = stack
        assert blocks.shape == (3, 1, 2)
        assert sorted(blocks[:, 0, 1].view(np.int64).tolist()) == sorted(
            np.array([2.0, -0.0, 0.0]).view(np.int64).tolist())
        assert index[0, 0] == index[3, 0] and len(set(index[:3, 0].tolist())) == 3
        for row, i in zip(family, index[:, 0]):
            assert np.array_equal(blocks[i, 0].view(np.int64), row.view(np.int64))


class TestEntriesNormFamily:
    """A family of listed matrices gets each matrix's own certificate."""

    def test_each_row_is_its_scattered_matrix(self):
        rng = np.random.default_rng(12)
        blocks = [rng.uniform(0.5, 2.0, (p, q)) for p, q in [(1, 2), (2, 2), (3, 1), (2, 2)]]
        base = _permuted_block_diagonal(blocks, 2, 1, rng)
        rows, cols = np.nonzero(base)
        family = base[rows, cols] * rng.uniform(0.5, 2.0, (5, rows.size))
        family[2] = 0.0  # a zero matrix in the family
        family[3] = -0.0
        family[4, :3] = family[0, :3]  # blocks shared between rows are certified once
        certs = _family_norm(base.shape, (rows, cols, family), 1e-10)
        for values, cert in zip(family, certs):
            matrix = np.zeros(base.shape)
            matrix[rows, cols] = values
            expected = operator_norm(matrix)
            assert cert == (expected if values.any() else NormCertificate(0.0, 0.0, "exact", "exact"))
        assert certs[0].components == 4

    def test_a_wide_row_fails_alone(self):
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((2, 6, 6))
        widths = [(c.upper - c.lower) / c.upper for c in map(operator_norm, (a, b))]
        assert widths[0] != widths[1]
        rel_tol = math.sqrt(widths[0] * widths[1])
        entries = (*np.indices((6, 6)).reshape(2, -1), np.stack([a, b]).reshape(2, -1))
        certs = _family_norm((6, 6), entries, rel_tol)
        wide = int(widths[1] > widths[0])
        assert isinstance(certs[wide], UnconvergedError)
        with pytest.raises(UnconvergedError) as err:
            operator_norm((a, b)[wide], rel_tol)
        assert (str(certs[wide]), certs[wide].data) == (str(err.value), err.value.data)
        assert certs[1 - wide] == operator_norm((a, b)[1 - wide], rel_tol)

    @pytest.mark.parametrize("eps", [0.05, 1.0])
    def test_families_certified_together_are_each_alone(self, eps):
        # The sections' blocks share shapes, and so share kernel calls.
        pair = halmos_pair_scaled()
        majorant = halmos_nilpotent_majorant(eps)
        families = [((128, 128), _section_entries(op, 128, [eps, 0.4]), 1e-6)
                    for op in (pair.a, pair.b, pair.nilpotent)]
        families.append(((4, 4), (*np.indices((4, 4)).reshape(2, -1), majorant.reshape(1, -1)),
                         1e-12))
        together = _entries_norm(families)
        assert together == [_family_norm(*family) for family in families]
        assert together[3] == [operator_norm(majorant, rel_tol=1e-12)]

    def test_zero_rows_beside_a_connected_support(self):
        whole = np.arange(1.0, 7.0).reshape(2, 3)
        entries = (*np.indices((2, 3)).reshape(2, -1), np.stack([whole.ravel(), np.zeros(6)]))
        assert _family_norm((2, 3), entries, 1e-10) == [
            operator_norm(whole), NormCertificate(0.0, 0.0, "exact", "exact")]


class TestNilpotencyIndex:
    def test_zero_matrix(self):
        assert nilpotency_index(np.zeros((4, 4))) == 1

    def test_jordan_block(self):
        j = np.diag(np.ones(2), k=1)
        assert nilpotency_index(j) == 3

    def test_identity_is_not_nilpotent(self):
        assert nilpotency_index(np.identity(5)) is None

    def test_explicit_flat_tolerance(self):
        a = np.array([[0.0, 1e-6], [0.0, 0.0]])
        assert nilpotency_index(a, tol=1e-3) == 1
        assert nilpotency_index(a, tol=0.0) == 2


def random_nonneg_nilpotent(rng, n, density=0.4):
    m = np.tril(rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < density), k=-1)
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


def _factor_diagonal(c) -> list[float]:
    return np.diag(nilpotent_commutator_factors(c, 1.0).a).tolist()


class TestPermutationTriangularization:
    """The topological order of the support, seen through nilpotent_commutator_factors.

    Sorting the indices by decreasing diagonal of A makes C strictly upper, so
    the diagonal must fall along every arc i -> j of C, and the factorization
    must refuse exactly the inputs that no permutation triangularizes.
    """

    def test_already_upper(self):
        assert _factor_diagonal([[0.0, 1.0], [0.0, 0.0]]) == [2.0, 1.0]

    def test_lower_becomes_swap(self):
        assert _factor_diagonal([[0.0, 0.0], [1.0, 0.0]]) == [1.0, 2.0]

    def test_cycle_returns_none(self):
        with pytest.raises(ValueError, match="not nilpotent"):
            _factor_diagonal([[0.0, 1.0], [1.0, 0.0]])

    def test_self_loop_returns_none(self):
        with pytest.raises(ValueError, match="not nilpotent"):
            _factor_diagonal([[0.5]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _factor_diagonal([[0.0, -1.0], [0.0, 0.0]])

    def test_result_is_strictly_upper(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            c = random_nonneg_nilpotent(rng, int(rng.integers(2, 20)))
            d = np.array(_factor_diagonal(c))
            rows, cols = np.nonzero(c)
            assert np.all(d[rows] > d[cols])

    def test_cross_oracle_with_nilpotency_index(self):
        # triangularizability and nilpotency must agree on nonnegative input
        rng = np.random.default_rng(29)
        cycles = 0
        for _ in range(60):
            n = int(rng.integers(2, 15))
            c = random_nonneg_nilpotent(rng, n)
            if rng.random() < 0.5:
                i, j = rng.integers(0, n, 2)
                c[i, j] += 0.5
                c[j, i] += 0.5  # 2-cycle (or self-loop when i == j)
            if nilpotency_index(c) is None:
                cycles += 1
                with pytest.raises(ValueError, match="not nilpotent"):
                    nilpotent_commutator_factors(c, 1.0)
            else:
                nilpotent_commutator_factors(c, 1.0)
        assert 0 < cycles < 60


class TestMatrixFiles:
    def test_json_round_trip(self, tmp_path):
        a = np.array([[1.5, -2.0], [0.0, 3e-12]])
        path = tmp_path / "m.json"
        write_json(path, a)
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


# -- the JSON reader against json.loads --------------------------------------
# read_matrix parses the data list with orjson in chunks and leaves every
# file that path declines to json.loads.  Either way it must read what
# json.loads and matrix_from_json_dict read, bit for bit, or raise the same
# error.


def _halfway(e: int, m: int) -> str:
    """The integer halfway between the doubles m 2^(e-52) and (m + 1) 2^(e-52), 2^52 <= m < 2^53."""
    return str((2 * m + 1) << (e - 53))


def _decimal(sign: str, digits: str, exp: int) -> str:
    """sign d.ddd...e<exp>: under 10^(exp + 1) in magnitude, so finite for exp <= 300."""
    return f"{sign}{digits[0]}{'.' + digits[1:] if digits[1:] else ''}e{exp}"


# Number literals that orjson parses: float reprs, 17- to 25-digit forms of
# floats, integers from -2^63 up to 10^300 (orjson gives a float past
# 2^64 - 1), integers halfway between two doubles, and decimals with 1- to
# 25-digit mantissas, from 10^301 down into and below the subnormals.
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(16, 24)).map(
        lambda xk: f"{xk[0]:.{xk[1]}e}"
    ),
    st.integers(-(2**63), 10**300).map(str),
    st.builds(_halfway, st.integers(53, 1000), st.integers(2**52, 2**53 - 1)),
    st.builds(
        _decimal,
        st.sampled_from(["", "-"]),
        st.integers(1, 25).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1)).map(str),
        st.integers(-345, 300),
    ),
)
# Entries json.loads reads and orjson refuses, or that are not numbers.
_bad_entries = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "-1e309", "1" + "0" * 400, "true", "false", "null",
    '"1"', "[]", "{}", '{"data": [1]}',
])
# Values of rows or cols that are not a positive integer json.loads reads as such.
_bad_sizes = st.sampled_from(["0", "-1", "18446744073709551616", "1.0", "1e0", "true", '"2"', "null"])
# Extra keys, each with its value, that leave the top-level data key alone or not.
_extra_keys = st.sampled_from([
    '"note": "\\ud800"', '"note": "ok"', '"meta": {"data": [1, 2]}', '"meta": {"data": []}',
    '"data": []', '"data": [7]', '"d\\u0061ta": []', '"d\\u0061ta": [8]', '"x\\"data": [9]',
])


@st.composite
def json_matrix_texts(draw):
    """(text, fast): a dense-form JSON text, and whether the orjson path must read it.

    fast holds for the dense form itself, in any key order and with any JSON
    whitespace.  A text with one of the mutations may be read by either path.
    """
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = draw(st.lists(_numbers, min_size=rows * cols, max_size=rows * cols))
    sep = draw(st.sampled_from([", ", ",", ",\n", " ,\t", "\r\n, "]))
    colon = draw(st.sampled_from([": ", ":", " :\n "]))
    mutation = draw(st.none() | st.sampled_from(
        ["entry", "count", "trailing", "leading", "empty", "size", "extra", "extra-first"]
    ))
    sizes = [str(rows), str(cols)]
    if mutation == "entry":
        entries[draw(st.integers(0, len(entries) - 1))] = draw(_bad_entries)
    elif mutation == "count":
        entries = entries[1:] if draw(st.booleans()) else entries + ["0"]
    elif mutation == "size":
        sizes[draw(st.integers(0, 1))] = draw(_bad_sizes)
    data = {"trailing": sep.join(entries) + ",", "leading": "," + sep.join(entries), "empty": ""}
    fields = [
        f'"rows"{colon}{sizes[0]}',
        f'"cols"{colon}{sizes[1]}',
        f'"data"{colon}[{data.get(mutation, sep.join(entries))}]',
    ]
    fields = draw(st.permutations(fields))
    if mutation == "extra":
        fields.insert(draw(st.integers(0, len(fields))), draw(_extra_keys))
    elif mutation == "extra-first":
        fields.insert(0, draw(_extra_keys))
    return "{" + draw(st.sampled_from([", ", ",\n"])).join(fields) + "}", mutation is None


# Pinned cases: (text, fast), fast as for json_matrix_texts.
_READER_CASES = [
    # 17- to 25-digit mantissas, and integers halfway between two doubles.
    ('{"rows": 1, "cols": 4, "data": [0.10000000000000000555, 1.234567890123456789012345e-5, '
     '9007199254740993, 18446744073709553664]}', True),
    # Subnormals, the halfway point below the least one, and signed zeros.
    ('{"rows": 2, "cols": 3, "data": [5e-324, 2.4703282292062327e-324, 2.4703282292062328e-324, '
     '1e-400, -0, -0.0]}', True),
    ('{"rows": 1, "cols": 2, "data": [1e400, 0]}', False),
    # Integers of 2^64 and more, in the data and as rows.
    ('{"rows": 1, "cols": 3, "data": [18446744073709551616, -18446744073709551617, 1' + "0" * 300 + ']}',
     True),
    ('{"rows": 18446744073709551616, "cols": 1, "data": [1]}', False),
    ('{"rows": 1, "cols": 2, "data": [NaN, 1]}', False),
    ('{"rows": 1, "cols": 2, "data": [Infinity, -Infinity]}', False),
    # A lone surrogate in an extra key: orjson refuses the text, json.loads reads it.
    ('{"note": "\\ud800", "rows": 1, "cols": 1, "data": [1]}', False),
    # A nested data key before the top-level one, and duplicate data keys.
    ('{"meta": {"data": [1, 2]}, "rows": 1, "cols": 1, "data": [3]}', False),
    ('{"meta": {"data": []}, "rows": 1, "cols": 1, "data": []}', False),
    ('{"rows": 1, "cols": 1, "data": [5], "data": []}', False),
    ('{"rows": 1, "cols": 1, "data": [], "data": [5]}', False),
    ('{"rows": 1, "cols": 1, "data": [5], "data": [6]}', False),
    ('{"rows": 1, "cols": 1, "data": [5], "d\\u0061ta": []}', False),
    ('{"rows": 1, "cols": 1, "data": [5], "x": "\\"data\\": [6]"}', False),
    ('{"rows": 1, "cols": 1, "data": []}', False),
    ('{"rows": 1, "cols": 2, "data": [1, 2,]}', False),
    ('{"rows": 1, "cols": 1, "data": [true]}', False),
    ('{"rows": 1, "cols": 2, "data": [0, false]}', False),
    ('{"rows": 1, "cols": 2, "data": [0, {}]}', False),
    # Whitespace and newlines inside the list, and an upper-case exponent.
    ('{"rows": 2, "cols": 2, "data": [\n  1,\n\t2 ,\r\n 1E+2\n,4\n]\n}', True),
]


def _outcome(read):
    """(shape, entry bits) of the matrix that read() returns, or (error class, message)."""
    try:
        a = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return a.shape, a.view(np.int64).tolist()


def _check_reader(path, text: str, fast: bool, chunk: int) -> None:
    """read_matrix of text equals json_matrix of it, without json.loads if fast."""
    path.write_text(text, encoding="utf-8")

    def oracle():
        try:
            return json_matrix(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid matrix JSON in {path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"invalid matrix JSON in {path}: nests too deeply") from None

    expected = _outcome(oracle)
    loads = mock.Mock(wraps=json.loads)
    with mock.patch.object(matrices, "_CHUNK_CHARS", chunk), mock.patch.object(json, "loads", loads):
        assert _outcome(lambda: read_matrix(path)) == expected
    if fast:
        loads.assert_not_called()


class TestJsonReader:
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=json_matrix_texts(), chunk=st.sampled_from([64, matrices._CHUNK_CHARS]))
    def test_reads_what_json_loads_reads(self, tmp_path, case, chunk):
        text, fast = case
        _check_reader(tmp_path / "m.json", text, fast, chunk)

    @pytest.mark.parametrize("text, fast", _READER_CASES)
    def test_pinned_cases(self, tmp_path, text, fast):
        _check_reader(tmp_path / "m.json", text, fast, matrices._CHUNK_CHARS)

    # orjson takes nesting that json.loads refuses, and orjson 3.8 crashed
    # the process on a document nested 150,000 deep.
    @pytest.mark.parametrize("text", [
        '{"x": ' + "[" * 5000 + "]" * 5000 + ', "rows": 1, "cols": 1, "data": [1]}',
        '{"x": ' + "[" * 200_000 + "]" * 200_000 + ', "rows": 1, "cols": 1, "data": [1]}',
        '{"rows": 1, "cols": 1, "data": [' + "[" * 200_000 + "1]}",
    ], ids=["outside-5000", "outside-200000", "inside-200000"])
    def test_deep_nesting(self, tmp_path, text):
        _check_reader(tmp_path / "m.json", text, False, matrices._CHUNK_CHARS)
        with pytest.raises(ValueError, match="nests too deeply"):
            read_matrix(tmp_path / "m.json")

    def test_list_over_several_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        data = ",\n".join(map(repr, rng.standard_normal(40).tolist()))
        text = f'{{"rows": 5, "cols": 8, "data": [{data}]}}'
        for chunk in (40, 64, 100):  # each a few entries, cut at the comma after it
            _check_reader(tmp_path / "m.json", text, True, chunk)

    def test_array_is_bounded_by_the_listed_entries(self, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 100000, "cols": 100000, "data": [1, 2]}', encoding="utf-8")

        def empty(*args, **kwargs):
            raise AssertionError(f"np.empty{args} was called")

        monkeypatch.setattr(matrices.np, "empty", empty)
        with pytest.raises(ValueError, match=r"data length 2 != rows\*cols = 10000000000"):
            read_matrix(path)

    def test_written_file_is_read_without_json_loads(self, tmp_path, monkeypatch):
        a = np.random.default_rng(6).standard_normal((30, 20))
        a[a < 0] = 0.0
        write_json(tmp_path / "m.json", a)

        def loads(*args, **kwargs):
            raise AssertionError("json.loads was called")

        monkeypatch.setattr(json, "loads", loads)
        back = read_matrix(tmp_path / "m.json")
        assert np.array_equal(back.view(np.int64), a.view(np.int64))


# Entries weighted towards zero runs and the edges of float64: signed zeros,
# the smallest subnormal and the largest finite magnitude.
_EDGE_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
encoder_entries = st.just(0.0) | st.sampled_from(_EDGE_ENTRIES) | st.floats(
    allow_nan=False, allow_infinity=False
)
# (matrix, transposed): a transposed matrix is Fortran-ordered in memory.
encoder_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        encoder_entries, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda data: np.array(data).reshape(shape))
)


def _written_bits(path, obj):
    """float_bits of strict json.loads of what write_json writes of obj."""
    write_json(path, obj)
    return float_bits(strict_json_loads(path.read_text(encoding="utf-8")))


class TestJsonEncoder:
    # The written text is orjson's; these tests pin its values, never its bytes.
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(a=encoder_matrices, transpose=st.booleans())
    @example(a=np.array([[-0.0]]), transpose=False)
    @example(a=np.array([[0.0, -0.0, 5e-324, 0.0, 0.0, 1.7976931348623157e308]]), transpose=True)
    def test_values_are_the_dense_form(self, tmp_path, a, transpose):
        if transpose:
            a = a.T
        assert _written_bits(tmp_path / "m.json", a) == float_bits(matrix_to_json_dict(a))

    @pytest.mark.parametrize("a", [
        np.zeros((1, 1)),
        np.ones((1, 1)),
        np.zeros((5, 7)),
        np.full((3, 4), -2.5),
        np.array([[0.0, 0.0, 1.5, 0.0, -1.7976931348623157e308, 0.0, 0.0]]),
        np.array([[0.0], [5e-324], [0.0], [0.0]]),
        np.asfortranarray(np.arange(12.0).reshape(3, 4) % 3),
        np.array([[-0.0, 0.0], [0.0, -0.0]]),
    ], ids=["zero-1x1", "one-1x1", "all-zero", "zero-free", "1xn", "nx1", "fortran", "signed-zero"])
    def test_shapes_and_orders(self, tmp_path, a):
        assert _written_bits(tmp_path / "m.json", a) == float_bits(matrix_to_json_dict(a))

    def test_nested_dicts_and_scalars_keep_their_values(self, tmp_path):
        a, b = np.array([[0.0, 2.0], [0.0, 0.0]]), np.identity(3)
        obj = {"eps": 0.1, "window": 64, "A": a, "meta": {"B": b, "tags": ["x", None, True]}}
        reference = {**obj, "A": matrix_to_json_dict(a),
                     "meta": {**obj["meta"], "B": matrix_to_json_dict(b)}}
        assert _written_bits(tmp_path / "m.json", obj) == float_bits(reference)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_rejected(self, tmp_path, bad):
        a = np.array([[0.0, bad], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            write_json(tmp_path / "m.json", a)
        assert not (tmp_path / "m.json").exists()

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(a=encoder_matrices, transpose=st.booleans())
    def test_round_trip_is_bit_equal(self, tmp_path, a, transpose):
        if transpose:
            a = a.T
        path = tmp_path / "m.json"
        write_json(path, a)
        back = read_matrix(path)
        assert back.shape == a.shape
        assert np.array_equal(back.view(np.int64), np.ascontiguousarray(a).view(np.int64))


class TestCsvCells:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        style=st.sampled_from(["{!r}", "{:.25e}", "{:.3f}", " {!r}\t"]),
    )
    def test_decimals_parse_as_float_does(self, tmp_path, values, style):
        cells = [style.format(v) for v in values]
        path = tmp_path / "m.csv"
        path.write_text(",".join(cells) + "\n" + ",".join(reversed(cells)), encoding="utf-8")
        expected = np.array([[float(c) for c in cells], [float(c) for c in reversed(cells)]])
        assert np.array_equal(read_matrix(path).view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("cell", ["+1", "-.5", "5.", "2E+03", "0e0", "  7  ", "\t3"])
    def test_plain_decimals_are_accepted(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"{cell},0\n", encoding="utf-8")
        assert read_matrix(path).tolist() == [[float(cell), 0.0]]

    @pytest.mark.parametrize("cell", [
        "1_0", "inf", "-Infinity", "nan", "0x10", "1e", "1.2.3", "", " ", "1 2", "--1", "e5",
        "\u0661", "\u00a01",
    ])
    def test_other_cells_are_rejected(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"0,0\n0,{cell}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="CSV line 2, cell 2 is not a decimal number"):
            read_matrix(path)

    def test_message_names_the_cell_not_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0," * 100_000 + "1e+x," + "0," * 100_000 + "0\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_matrix(path)
        assert str(err.value) == "CSV line 1, cell 100001 is not a decimal number: '1e+x'"

    # The first holds 6 cells, which the first row's width of 2 would also fit.
    @pytest.mark.parametrize("text", ["0,1\n0\n0,0,1\n", "1\n2,3\n", "1,2\n\n3\n"])
    def test_rows_of_unequal_width_are_rejected(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="^CSV rows have inconsistent lengths$"):
            read_matrix(path)

    @pytest.mark.parametrize("rows, cols", [(1, 1 << 17), (64, 1 << 11)])
    def test_parse_holds_the_array_once(self, rows, cols):
        # The rows are parsed at once into the one array: the peak is that array,
        # the rows joined into one text and the finiteness mask (an eighth of
        # the array), under the array and two texts.  A list of per-row arrays
        # copied by np.array held the array twice.
        text = ("0," * (cols - 1) + "0\n") * rows
        tracemalloc.start()
        try:
            a = matrices._parse_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.shape == (rows, cols)
        assert peak < a.nbytes + 2 * len(text)


class TestBoundedRead:
    def test_file_at_the_limit_is_read(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n", encoding="utf-8")
        monkeypatch.setattr(matrices, "MAX_MATRIX_BYTES", 8)
        assert read_matrix(path).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("text", ["0,1\n1,0\n ", '{"rows": 1, "cols": 1, "data": [1]}'])
    def test_larger_file_is_refused(self, tmp_path, monkeypatch, text):
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(matrices, "MAX_MATRIX_BYTES", 8)
        with pytest.raises(ValueError, match="is larger than 8 bytes"):
            read_matrix(path)

    def test_large_file_is_read_only_to_the_limit(self, tmp_path, monkeypatch):
        reads = []

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.inner.close()

            def fileno(self):
                return self.inner.fileno()

            def read(self, n):
                reads.append(n)
                return self.inner.read(n)

        path = tmp_path / "m.csv"
        path.write_text("0," * 1000 + "0\n", encoding="utf-8")
        def recording_open(p, mode):
            return Recording(open(p, mode))

        monkeypatch.setattr(matrices, "MAX_MATRIX_BYTES", 16)
        monkeypatch.setattr(matrices, "open", recording_open, raising=False)
        with pytest.raises(ValueError, match="is larger than 16 bytes"):
            read_matrix(path)
        assert reads == [17]

    @staticmethod
    def _read_pipe(tmp_path, monkeypatch, payload, reads):
        """read_matrix on a FIFO that carries payload; reads gets the size of each read."""
        path = tmp_path / "m.fifo"
        os.mkfifo(path)

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.inner.close()

            def fileno(self):
                return self.inner.fileno()

            def read(self, n):
                reads.append(n)
                return self.inner.read(n)

        def write():
            try:
                with open(path, "wb") as f:
                    f.write(payload)
            except BrokenPipeError:  # the reader closed the pipe at its limit
                pass

        monkeypatch.setattr(matrices, "open", lambda p, mode: Recording(open(p, mode)),
                            raising=False)
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            return read_matrix(path)
        finally:
            writer.join(timeout=10)

    @staticmethod
    def _ones_row(length):
        """A one-row CSV of ones, length bytes long."""
        k = (length + 1) // 2
        return (",".join("1" * k) + "\n" * (length % 2 == 0)).encode(), np.ones((1, k))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("length", [1, 2, 4, 5, 6, 9, 10])
    def test_pipe_is_read_in_chunks_to_its_first_short_one(self, tmp_path, monkeypatch, length):
        # A pipe's size reads as 0: one byte, then chunks until one comes back
        # short, which is an empty one when the rest is a whole number of chunks.
        payload, expected = self._ones_row(length)
        monkeypatch.setattr(matrices, "_READ_CHUNK", 4)
        reads = []
        assert np.array_equal(self._read_pipe(tmp_path, monkeypatch, payload, reads), expected)
        assert reads == [1] + [4] * ((length - 1) // 4 + 1)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("length", [9, 10, 40])
    def test_pipe_chunks_stop_at_the_limit(self, tmp_path, monkeypatch, length):
        # The last chunk asks only for what reaches one byte past the limit.
        payload, expected = self._ones_row(length)
        monkeypatch.setattr(matrices, "_READ_CHUNK", 4)
        monkeypatch.setattr(matrices, "MAX_MATRIX_BYTES", 9)
        reads = []
        if length <= 9:
            assert np.array_equal(self._read_pipe(tmp_path, monkeypatch, payload, reads), expected)
        else:
            with pytest.raises(ValueError, match="is larger than 9 bytes"):
                self._read_pipe(tmp_path, monkeypatch, payload, reads)
        assert reads == [1, 4, 4, 1]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_pipe_longer_than_the_limit_is_refused(self, tmp_path, monkeypatch):
        # A pipe's size reads as 0, so after its first byte it is read up to the
        # limit, and then closed: the writer meets a closed pipe long before 4 MiB.
        path = tmp_path / "m.fifo"
        os.mkfifo(path)
        written = []

        def write():
            try:
                with open(path, "wb") as f:
                    for _ in range(64):
                        f.write(b"0," * (1 << 15))
                        written.append(1 << 16)
            except BrokenPipeError:  # the reader closed the pipe at its limit
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        monkeypatch.setattr(matrices, "MAX_MATRIX_BYTES", 16)
        try:
            with pytest.raises(ValueError, match="is larger than 16 bytes"):
                read_matrix(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert sum(written) < 1 << 22
