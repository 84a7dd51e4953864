"""Storage container, permutations, triplet assembly, Matrix Market I/O."""

import dataclasses
import io
import re

import numpy as np
import pytest

import seldet as sd
from seldet.errors import (
    AsymmetricInputError,
    IndexOutOfRangeError,
    NonFiniteValueError,
    NotAPermutationError,
    ParseError,
    SizeMismatchError,
    UnsupportedFormatError,
)
from helpers import random_spd, tridiag


# ------------------------------------------------------------ construction


def test_triplet_assembly_and_round_trip():
    a = sd.from_coo_arrays(3, np.array([0, 1, 2, 1]), np.array([0, 1, 2, 0]),
                           np.array([2.0, 3.0, 4.0, -1.0]))
    assert a.n == 3 and a.nnz == 4
    rows, cols, vals = a.triplets()
    b = sd.from_coo_arrays(3, rows, cols, vals)
    assert np.array_equal(a.col_ptr, b.col_ptr)
    assert np.array_equal(a.row_idx, b.row_idx)
    assert np.array_equal(a.values, b.values)


def test_duplicate_triplets_are_summed():
    a = sd.from_coo_arrays(2, np.array([0, 0, 1, 1]), np.array([0, 0, 0, 0]),
                           np.array([1.0, 2.5, 1.0, -1.0]))
    d = a.to_dense()
    assert d[0, 0] == 3.5
    # exact zero from cancellation stays structural
    assert a.nnz == 2 and d[1, 0] == 0.0


def test_upper_entries_mirrored():
    a = sd.from_coo_arrays(2, np.array([0]), np.array([1]), np.array([5.0]))
    assert a.to_dense()[1, 0] == 5.0


def test_conflicting_mirror_entries_rejected():
    with pytest.raises(AsymmetricInputError):
        sd.from_coo_arrays(2, np.array([0, 1]), np.array([1, 0]),
                           np.array([2.0, 3.0]))


def test_mirror_entries_within_tolerance_accepted():
    a = sd.from_coo_arrays(2, np.array([0, 1]), np.array([1, 0]),
                           np.array([1.0, 1.0 + 1e-14]))
    assert a.nnz == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_rejected_with_its_entry(bad):
    with pytest.raises(NonFiniteValueError, match=r"entry \(2,0\)"):
        sd.from_coo_arrays(3, np.array([0, 1, 2]), np.array([0, 1, 0]),
                           np.array([1.0, 1.0, bad]))


def test_array_dataclasses_compare_by_identity():
    # eq=False: == and hash are defined (object identity), never a numpy
    # "truth value is ambiguous" error
    eye = sd.identity_matrix(3)
    p = sd.Permutation(np.array([2, 0, 1]))
    sym = sd.symbolic_factor(eye, p)
    f = sd.ldlt_factorize(eye, sym)
    for obj in (eye, p, sym, f, sd.selected_inverse(f)):
        assert obj == obj and obj != dataclasses.replace(obj)
        assert hash(obj) == hash(obj)


def test_triplet_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        sd.from_coo_arrays(2, np.array([2]), np.array([0]), np.array([1.0]))


def test_storage_validation():
    with pytest.raises(SizeMismatchError):
        sd.SparseSymmetric(n=2, col_ptr=np.array([0, 1]),
                           row_idx=np.array([0]), values=np.array([1.0]))
    with pytest.raises(SizeMismatchError):  # col_ptr ends before row_idx
        sd.SparseSymmetric(n=2, col_ptr=np.array([0, 2, 1]),
                           row_idx=np.array([0, 1]), values=np.ones(2))
    with pytest.raises(SizeMismatchError, match="non-decreasing"):
        sd.SparseSymmetric(n=3, col_ptr=np.array([0, 2, 1, 2]),
                           row_idx=np.array([0, 1]), values=np.ones(2))
    with pytest.raises(IndexOutOfRangeError):
        sd.SparseSymmetric(n=2, col_ptr=np.array([0, 1, 2]),
                           row_idx=np.array([0, 5]), values=np.ones(2))
    with pytest.raises(SizeMismatchError):  # (0,1) lives above the diagonal
        sd.SparseSymmetric(n=2, col_ptr=np.array([0, 1, 2]),
                           row_idx=np.array([0, 0]), values=np.ones(2))
    with pytest.raises(SizeMismatchError):  # duplicate row in one column
        sd.SparseSymmetric(n=2, col_ptr=np.array([0, 2, 2]),
                           row_idx=np.array([1, 1]), values=np.ones(2))


def test_arrays_are_frozen():
    a = sd.identity_matrix(2)
    with pytest.raises(ValueError):
        a.values[0] = 7.0


def test_accessors():
    a = tridiag([2.0, 3.0, 4.0], [-1.0, -0.5])
    dense = a.to_dense()
    assert np.array_equal(np.diag(dense), [2.0, 3.0, 4.0])
    assert np.array_equal(dense, dense.T)
    assert dense[2, 1] == -0.5
    eye = sd.identity_matrix(3, 2.5)
    assert np.array_equal(eye.to_dense(), 2.5 * np.eye(3))


# ------------------------------------------------------------ permutations


def test_permutation_inverse_round_trip():
    p = sd.Permutation(np.array([2, 0, 1]))
    assert np.array_equal(p.perm[p.inverse], [0, 1, 2])
    assert np.array_equal(sd.Permutation(p.inverse).inverse, p.perm)


def test_permutation_validation():
    with pytest.raises(NotAPermutationError):
        sd.Permutation(np.array([0, 0, 1]))
    with pytest.raises(NotAPermutationError):
        sd.Permutation(np.array([0, 3]))


def test_permutation_refuses_non_integral_indices():
    with pytest.raises(NotAPermutationError, match=r"perm\[0\] = 0\.5"):
        sd.Permutation(np.array([0.5, 1.7]))
    assert np.array_equal(sd.Permutation(np.array([1.0, 0.0])).perm, [1, 0])


def test_storage_refuses_non_integral_indices():
    with pytest.raises(IndexOutOfRangeError, match=r"cols\[1\] = nan"):
        sd.from_coo_arrays(2, np.array([0, 1]), np.array([0, np.nan]),
                           np.ones(2))
    with pytest.raises(SizeMismatchError, match=r"col_ptr\[1\] = 1\.9"):
        sd.SparseSymmetric(2, np.array([0, 1.9, 2.0]), np.array([0, 1]),
                           np.ones(2))
    with pytest.raises(IndexOutOfRangeError, match=r"row_idx\[0\] = 0\.2"):
        sd.SparseSymmetric(2, np.array([0, 1, 2]), np.array([0.2, 1.0]),
                           np.ones(2))


def test_permute_symmetric_matches_dense():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 40))
        a = random_spd(rng, n)
        p = sd.Permutation(rng.permutation(n))
        ap = sd.permute_symmetric(a, p)
        ref = a.to_dense()[np.ix_(p.perm, p.perm)]
        assert np.allclose(ap.to_dense(), ref)


def test_permute_size_mismatch():
    a = sd.identity_matrix(3)
    with pytest.raises(SizeMismatchError):
        sd.permute_symmetric(a, sd.Permutation(np.array([0, 1])))


# ------------------------------------------------------------ matrix market


def test_matrix_market_round_trip_exact():
    rng = np.random.default_rng(5)
    a = random_spd(rng, 23)
    buf = io.StringIO()
    sd.write_matrix_market(a, buf)
    b = sd.read_matrix_market(buf.getvalue())
    assert b.n == a.n
    assert np.array_equal(a.col_ptr, b.col_ptr)
    assert np.array_equal(a.row_idx, b.row_idx)
    assert np.array_equal(a.values, b.values)  # bitwise, via 17 sig digits


def test_matrix_market_reads_upper_triangle_form():
    text = """%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 2 2.0
3 3 2.0
1 2 -1.0
"""
    a = sd.read_matrix_market(text)
    assert a.to_dense()[1, 0] == -1.0


def test_matrix_market_pattern_field():
    text = """%%MatrixMarket matrix coordinate pattern symmetric
2 2 2
1 1
2 1
"""
    a = sd.read_matrix_market(text)
    assert np.array_equal(a.values, [1.0, 1.0])


def test_matrix_market_rejects_general_symmetry():
    with pytest.raises(UnsupportedFormatError):
        sd.read_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")


def test_matrix_market_rejects_array_format():
    with pytest.raises(UnsupportedFormatError):
        sd.read_matrix_market(
            "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n")


def test_matrix_market_parse_errors():
    with pytest.raises(ParseError):
        sd.read_matrix_market("")
    with pytest.raises(ParseError):
        sd.read_matrix_market("not a header\n")
    with pytest.raises(ParseError):  # fewer records than declared
        sd.read_matrix_market(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n")
    with pytest.raises(ParseError):  # 1-based coordinate out of range
        sd.read_matrix_market(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n")
    with pytest.raises(ParseError):  # garbage record
        sd.read_matrix_market(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 x 1.0\n")


HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize("text, error, says", [
    ("%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1 0\n",
     UnsupportedFormatError, "unsupported field 'complex'"),
    (HEADER + "% a comment and no size line\n\n", ParseError,
     "missing size line"),
    (HEADER + "2 2\n", ParseError, "bad size line: '2 2'"),
    (HEADER + "2 2 x\n", ParseError, "bad size line: '2 2 x'"),
    (HEADER + "2 3 1\n1 1 1.0\n", UnsupportedFormatError, "must be square"),
    (HEADER + "-1 -1 0\n", ParseError, "negative dimensions"),
    (HEADER + "2 2 1\n1 1\n", ParseError, "bad coordinate record: '1 1'"),
    ("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 1 1.0\n",
     ParseError, "bad coordinate record: '1 1 1.0'"),
])
def test_matrix_market_bad_header_or_record_is_typed(text, error, says):
    with pytest.raises(error, match=re.escape(says)):
        sd.read_matrix_market(text)


def test_matrix_market_non_finite_value_names_the_record():
    text = ("%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n1 1 2.0\n3 1 nan\n3 3 inf\n")
    with pytest.raises(NonFiniteValueError, match=r"record 2: entry \(3,1\)"):
        sd.read_matrix_market(text)


def test_matrix_market_comments_and_blanks_ignored():
    text = """%%MatrixMarket matrix coordinate real symmetric
% a comment

2 2 2
1 1 4.0

2 2 9.0
"""
    a = sd.read_matrix_market(text)
    assert np.array_equal(np.diag(a.to_dense()), [4.0, 9.0])
