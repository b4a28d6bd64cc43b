"""Inputs are read, never written, and each dense matrix is held once.

The checks read their matrix arguments in place rather than copying them,
so every array they are given aliases the caller's.  Read-only inputs make
a write into one raise, and tracemalloc bounds the arrays each check makes.
"""

import dataclasses
import os
import threading
import tracemalloc

import numpy as np
import orjson  # imported here, so that the read bounds do not count its import
import pytest

from commkit.constructions import (
    FactorPair,
    nilpotent_commutator_factors,
    trace_zero_commutator_factors,
)
from commkit.matrices import (
    commutator,
    entrywise_leq,
    max_abs,
    operator_norm,
    read_matrix,
    write_json,
)
from commkit.verifiers import (
    factorization_checks,
    finite_dim_obstructions,
    power_inequality_report,
    wielandt_violation_witness,
)
from oracles import float_bits


def _inputs(n: int, seed: int = 0) -> dict[str, np.ndarray]:
    """a, b >= 0, x = I - [a, b], a nilpotent c and a trace-zero c, all n x n."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.0, 1.0, (2, n, n))
    c_tz = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(c_tz, 0.0)
    return {
        "a": a,
        "b": b,
        "x": np.identity(n) - (a @ b - b @ a),
        "c_nil": np.triu(rng.uniform(0.5, 1.5, (n, n)), 1) * (rng.random((n, n)) < 0.3),
        "c_tz": c_tz,
    }


def _frozen(values):
    """A read-only copy of each array in values: a FactorPair's fields, a dict's values, or one array."""
    if isinstance(values, FactorPair):
        return FactorPair(a=_frozen(values.a), b=_frozen(values.b))
    if isinstance(values, dict):
        return {k: _frozen(v) for k, v in values.items()}
    out = np.array(values)
    out.flags.writeable = False
    return out


def _comparable(result):
    """result with each float, array and verdict as bits, so that == compares bits."""
    if isinstance(result, list):
        return [_comparable(r) for r in result]
    if isinstance(result, np.ndarray):
        return result.shape, result.view(np.int64).tolist()
    if isinstance(result, FactorPair):
        return _comparable(result.a), _comparable(result.b)
    if dataclasses.is_dataclass(result):
        return float_bits(dataclasses.asdict(result))
    return float_bits(result)


_M = _inputs(8)
_PAIRS = {
    "nilpotent": nilpotent_commutator_factors(_M["c_nil"], 0.5),
    "tracezero": trace_zero_commutator_factors(_M["c_tz"]),
}

# Each public function that takes a matrix, and the arguments it is given.
_CALLS = {
    "commutator": (commutator, lambda m: (m["a"], m["b"])),
    "max_abs": (max_abs, lambda m: (m["x"],)),
    "entrywise_leq": (entrywise_leq, lambda m: (m["a"], m["b"], 0.1)),
    "operator_norm": (operator_norm, lambda m: (m["x"],)),
    "finite_dim_obstructions": (finite_dim_obstructions, lambda m: (m["a"], m["b"], m["x"])),
    "wielandt_violation_witness": (wielandt_violation_witness, lambda m: (m["a"], m["b"])),
    "power_inequality_report": (power_inequality_report,
                                lambda m: (m["a"], m["b"], m["x"], 3, 1e-9, 5)),
    "nilpotent_commutator_factors": (nilpotent_commutator_factors, lambda m: (m["c_nil"], 0.5)),
    "trace_zero_commutator_factors": (trace_zero_commutator_factors, lambda m: (m["c_tz"],)),
    "factorization_checks-nilpotent": (
        factorization_checks, lambda m: (m["c_nil"], m["pair_nil"], 1e-9, 0.5)),
    "factorization_checks-tracezero": (
        factorization_checks, lambda m: (m["c_tz"], m["pair_tz"])),
}


class TestInputsAreNeverWritten:
    @pytest.mark.parametrize("name", sorted(_CALLS))
    def test_read_only_inputs_give_what_writable_copies_give(self, name):
        function, arguments = _CALLS[name]
        m = {**_M, "pair_nil": _PAIRS["nilpotent"], "pair_tz": _PAIRS["tracezero"]}
        expected = function(*arguments({k: np.array(v) if isinstance(v, np.ndarray) else v
                                        for k, v in m.items()}))
        frozen = {k: _frozen(v) for k, v in m.items()}
        assert _comparable(function(*arguments(frozen))) == _comparable(expected)

    def test_write_json_of_read_only_inputs_writes_the_same_bytes(self, tmp_path):
        obj = {"A": _M["a"], "nested": {"X": _M["x"][:, :3]}, "eps": 0.5}
        write_json(tmp_path / "w.json", obj)
        write_json(tmp_path / "r.json", {**obj, "A": _frozen(_M["a"]),
                                         "nested": {"X": _frozen(_M["x"][:, :3])}})
        assert (tmp_path / "r.json").read_bytes() == (tmp_path / "w.json").read_bytes()


# -- memory bounds ------------------------------------------------------------
# Peaks are traced by tracemalloc, which counts numpy's arrays, and given in
# units of one n x n float64 array.  The inputs are made before tracing starts,
# so a check that copies its inputs counts the copies.  numpy writes the result
# of an arithmetic operation into an operand that is a temporary of 256 KiB or
# more, so AB - BA holds two arrays, not three.  Each bound lies between
# the peak measured here and the peak of the checks that copied every input
# and formed AB - BA, X X - X and the diagonal products densely (in brackets).

N = 256


def _peak(function, *args) -> float:
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1] / (8 * N * N)
    finally:
        tracemalloc.stop()


_BIG = _inputs(N)

_BOUNDS = {
    # name: (function, arguments, bound); the comment gives measured (copying) and slack.
    # [A,B], I - X and their difference, with I: 4.1 (9.0); slack 0.9 arrays.
    "finite_dim_obstructions": (finite_dim_obstructions, ("a", "b", "x"), 5.0),
    # AB and BA, with [A,B] - I formed in place: 2.0 (6.0); slack 0.5 arrays, under the
    # 3.0 of forming [A,B] - I as a new array.
    "wielandt_violation_witness": (wielandt_violation_witness, ("a", "b"), 2.5),
    # I, the power, the running sum and [A^n,B] with their temporaries: 7.0 (13.0); slack
    # 0.5 arrays, under the 8.0 of keeping [A,B] alive through the loop.
    "power_inequality_report": (lambda a, b, x: power_inequality_report(a, b, x, n_max=4),
                                ("a", "b", "x"), 7.5),
    # B, A and the boolean masks of the solve: 2.4 (5.0); slack 0.35 arrays, under
    # the 3.0 of keeping the array of gaps d_i - d_j alive beside A.
    "nilpotent_commutator_factors": (lambda c: nilpotent_commutator_factors(c, 1.0),
                                     ("c_nil",), 2.75),
    "trace_zero_commutator_factors": (trace_zero_commutator_factors, ("c_tz",), 2.75),
    # AB and BA, the difference written into AB: 2.0 (4.0); slack 0.5 arrays.
    "commutator": (commutator, ("a", "b"), 2.5),
    # b - a: 1.0 (3.0); slack one array.
    "entrywise_leq": (entrywise_leq, ("a", "b"), 2.0),
    # The finiteness mask: 0.125 (2.0); slack 0.4 arrays.
    "max_abs": (max_abs, ("x",), 0.5),
}


class TestMemoryBounds:
    @pytest.mark.parametrize("name", sorted(_BOUNDS))
    def test_peak_is_bounded(self, name):
        function, keys, bound = _BOUNDS[name]
        args = [_BIG[k] for k in keys]
        function(*args)  # any lazy set-up happens before tracing
        assert _peak(function, *args) < bound

    def test_write_json_holds_only_what_orjson_holds(self, tmp_path):
        # orjson's text and buffers, measured here for the same dense form, plus
        # nothing the size of a matrix: 0.0 (2.0, a copy of each of A and B).
        a, b = _BIG["a"], _BIG["b"]
        dense = {k: {"rows": N, "cols": N, "data": m.ravel()} for k, m in (("A", a), ("B", b))}
        text = _peak(orjson.dumps, dense, None, orjson.OPT_SERIALIZE_NUMPY)
        assert _peak(write_json, tmp_path / "w.json", {"A": a, "B": b}) < text + 0.5

    @pytest.mark.parametrize("kind", ["tracezero", "nilpotent"])
    def test_factorization_checks_form_no_dense_product(self, kind):
        # Trace zero: d_i b_ij and the difference b_ij d_j it is reduced by, 2.1 (3.0 with
        # the dense products AB and BA).  Nilpotent: BA and eps C - BA written over eps C,
        # with a finiteness mask, 2.1 (3.0 with eps C and the difference apart).  Slack
        # 0.4 arrays.
        if kind == "tracezero":
            c, args = _BIG["c_tz"], ()
            pair = trace_zero_commutator_factors(c)
        else:
            c, args = _BIG["c_nil"], (1e-9, 0.5)
            pair = nilpotent_commutator_factors(c, 0.5)
        assert _peak(factorization_checks, c, pair, *args) < 2.5


class TestReadMatrixMemory:
    # read_matrix once read MAX_MATRIX_BYTES + 1 bytes into a buffer allocated
    # whole before the read: 33.6 MB traced for every file, a 2 x 2 CSV included.

    @staticmethod
    def _peak_bytes(path) -> int:
        read_matrix(path)
        tracemalloc.start()
        try:
            read_matrix(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n, ratio", [(400, 2.5), (60, 5.0)])
    def test_json_peak_is_a_small_multiple_of_the_file(self, tmp_path, n, ratio):
        # The bytes and the text are held at once, so the peak is twice a 3.2 MB
        # file (slack 0.5) and 3.7 times a 73 KB one, whose 64 KiB chunk of
        # parsed entries weighs more (slack 1.3).
        a = np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
        path = tmp_path / "m.json"
        path.write_bytes(orjson.dumps({"rows": n, "cols": n, "data": a.ravel().tolist()}))
        assert self._peak_bytes(path) < ratio * path.stat().st_size

    def test_small_file_allocates_no_read_buffer_beyond_it(self, tmp_path):
        # 33 KB, the parser's own objects: slack about twice that.
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n", encoding="utf-8")
        assert self._peak_bytes(path) < 1 << 16

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_pipe_allocates_no_read_buffer_beyond_a_chunk(self, tmp_path):
        # A pipe's size reads as 0.  One read of the rest up to the limit
        # allocated 32 MiB before it read the 8 bytes (33.6 MB traced); read in
        # 64 KiB chunks, the peak is 70 KB.
        regular, fifo = tmp_path / "m.csv", tmp_path / "m.fifo"
        regular.write_bytes(b"0,1\n0,0\n")
        os.mkfifo(fifo)
        read_matrix(regular)  # warms up the parser, as _peak_bytes does

        def feed():
            with open(fifo, "wb") as f:
                f.write(regular.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        tracemalloc.start()
        try:
            a = read_matrix(fifo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join(timeout=10)
        assert a.tolist() == [[0.0, 1.0], [0.0, 0.0]]
        assert peak < 1 << 20
