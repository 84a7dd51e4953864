"""Elimination tree, column counts, pattern of L, FLOP forecasts.

Reference results come from the dense boolean elimination in helpers (the
no-cancellation fill simulation) — quadratic, obvious, and independent of
the tree-based code under test.
"""

import numpy as np
import pytest

import seldet as sd
from seldet import symbolic
from seldet.errors import PatternMismatchError, SizeMismatchError
from helpers import etree_from_pattern, fill_pattern, random_spd, tridiag


def dense3():
    rows, cols = np.tril_indices(3)
    return sd.from_coo_arrays(3, rows, cols, np.where(rows == cols, 6.0, 1.0))


def natural_symbolic(a):
    return sd.symbolic_factor(a, sd.natural_order(a.n))


# -------------------------------------------------------------- worked out


def test_chain_n4():
    a = tridiag([2.0, 2.0, 2.0, 2.0], [-1.0, -1.0, -1.0])
    sym = natural_symbolic(a)
    assert np.array_equal(sym.parent, [1, 2, 3, -1])
    assert np.array_equal(sym.col_counts, [2, 2, 2, 1])
    assert sym.nnz_L == 7
    assert sd.predict_flops(sym) == (9, 15)


def test_dense_block():
    sym = natural_symbolic(dense3())
    assert np.array_equal(sym.parent, [1, 2, -1])
    assert np.array_equal(sym.col_counts, [3, 2, 1])


def test_diagonal_forest():
    sym = natural_symbolic(sd.identity_matrix(4))
    assert np.array_equal(sym.parent, [-1, -1, -1, -1])
    assert np.array_equal(sym.col_counts, [1, 1, 1, 1])


# ------------------------------------------------------- vs dense fill oracle


def test_etree_matches_fill_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = random_spd(rng, int(rng.integers(1, 60)),
                       extra_per_row=float(rng.uniform(0.5, 3.5)))
        assert np.array_equal(natural_symbolic(a).parent,
                              etree_from_pattern(fill_pattern(a)))


def test_column_counts_match_fill_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = random_spd(rng, int(rng.integers(1, 60)),
                       extra_per_row=float(rng.uniform(0.5, 3.5)))
        assert np.array_equal(natural_symbolic(a).col_counts,
                              fill_pattern(a).sum(axis=0))


def test_factor_pattern_matches_fill_oracle():
    rng = np.random.default_rng(31)
    for _ in range(15):
        a = random_spd(rng, int(rng.integers(1, 50)))
        sym = sd.symbolic_factor(a, sd.natural_order(a.n))
        lpat = fill_pattern(a)
        for j in range(a.n):
            seg = sym.l_row_idx[sym.l_col_ptr[j]:sym.l_col_ptr[j + 1]]
            assert np.array_equal(seg, np.flatnonzero(lpat[j + 1:, j]) + j + 1)
            assert np.all(np.diff(seg) > 0)  # sorted, no duplicates


def test_symbolic_factor_applies_permutation():
    rng = np.random.default_rng(37)
    a = random_spd(rng, 30)
    p = sd.Permutation(rng.permutation(30))
    sym = sd.symbolic_factor(a, p)
    direct = sd.symbolic_factor(sd.permute_symmetric(a, p), sd.natural_order(30))
    assert sym.nnz_L == direct.nnz_L
    assert np.array_equal(sym.l_row_idx, direct.l_row_idx)
    assert np.array_equal(sym.parent, direct.parent)


def test_symbolic_factor_holds_the_slots_of_its_matrix():
    rng = np.random.default_rng(39)
    a = random_spd(rng, 30)
    sym = sd.symbolic_factor(a, sd.amd_order(a))
    assert sym.a_col_ptr is a.col_ptr and sym.a_row_idx is a.row_idx
    cols = np.repeat(np.arange(a.n), np.diff(a.col_ptr))
    assert np.array_equal(sym.a_slots, sym.locate(a.row_idx, cols))
    assert sym.a_slots.dtype == np.min_scalar_type(sym.nnz_L)
    # a hand-built factor whose matrix has an entry off the pattern of L
    with pytest.raises(PatternMismatchError):
        sd.SymbolicFactor(
            n=2, perm=sd.natural_order(2), parent=np.array([-1, -1]),
            col_counts=np.array([1, 1]), l_col_ptr=np.array([0, 0, 0]),
            l_row_idx=np.array([], dtype=np.int64), nnz_L=2,
            a_col_ptr=np.array([0, 2, 3]), a_row_idx=np.array([0, 1, 1]))


def test_row_structure_groups_the_pattern_of_l_by_row():
    # the update list of a single-column supernode j is row j of L, less
    # the leaves, whose updates the factorization applies before its loop
    a = random_spd(np.random.default_rng(29), 40)
    sym = sd.symbolic_factor(a, sd.amd_order(a))
    ptr, cols, first, length, _ = symbolic._updates(sym)
    colptr, rows = sym.l_col_ptr, sym.l_row_idx
    bounds = sym.supernodes.astype(np.int64)
    singles = [b for b in range(bounds.size - 1)
               if bounds[b + 1] - bounds[b] == 1]
    assert len(singles) > bounds.size // 2
    leaves = set(sym.leaves.tolist())
    assert leaves
    for b in singles:
        j = int(bounds[b])
        # (position, column) of every L_jk, k ascending, k not a leaf
        at = [(p, k) for k in range(sym.n) if k not in leaves
              for p in range(colptr[k], colptr[k + 1]) if rows[p] == j]
        seg = slice(int(ptr[b]), int(ptr[b + 1]))
        assert cols[seg].tolist() == [k for _, k in at]
        assert first[seg].tolist() == [p for p, _ in at]
        assert (first[seg] + length[seg]).tolist() == [colptr[k + 1]
                                                       for _, k in at]


def test_symbolic_factor_size_mismatch():
    with pytest.raises(SizeMismatchError):
        sd.symbolic_factor(sd.identity_matrix(3), sd.natural_order(2))


# ------------------------------------------------------------- predictions


def test_flop_forecast_formulas():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = random_spd(rng, int(rng.integers(2, 60)))
        sym = sd.symbolic_factor(a, sd.amd_order(a))
        m = sym.col_counts.astype(np.int64)
        ldlt, selinv = sd.predict_flops(sym)
        assert ldlt == int(np.sum(m * m)) - a.n
        assert selinv == 2 * ldlt - (sym.nnz_L - a.n)
        assert selinv == sd.selinv_flops_from_ldlt(ldlt, sym.nnz_L, a.n)


def test_forecasts_do_not_overflow():
    # object-dtype accumulation keeps large counts exact
    assert sd.selinv_flops_from_ldlt(2**40, 2**20, 2**10) == 2**41 - 2**20 + 2**10
