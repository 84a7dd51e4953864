"""Dense supernodes in both kernels, against the column-by-column kernels
kept in helpers as oracles.

``ldlt_factorize`` applies the leaves' updates before its loop, takes each
multi-column fundamental supernode in as one dense front (panel GEMMs for
the updates from outside, rank-1 steps inside), and ``selected_inverse``
computes a supernode's columns in place in one dense front.  The column
kernels do the same arithmetic one column at a time, so the factors
agree to roundoff, a leaf's own column bit for bit, and the selected
inverses of one shared factor agree bit for bit.  The partition and the
per-supernode update maps are checked against naive readings of their
definitions on the dense fill pattern.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import seldet as sd
from seldet.errors import NearSingularWarning, NonPositivePivotError
from helpers import (arrowhead, bordered_spd, field_precision, fill_pattern,
                     pattern_spd, random_spd, reference_block_updates,
                     reference_ldlt_factorize, reference_selected_inverse,
                     reference_supernodes)


def prob1_c():
    d = sd.generate(sd.preset_config("prob1", seed=1000))
    v = sd.VarianceParams(1.0, np.ones(len(d.factors)),
                          np.ones(d.n_residual_blocks))
    return sd.assemble_mme(d, v).C


def assert_factors_agree(a, sym):
    """d to 1e-10 relative, and each L_ij to 1e-10 of sqrt(A_ii / d_j),
    the bound on |L_ij| of an SPD matrix (entries that cancel to near zero
    have no relative accuracy to compare)."""
    f = sd.ldlt_factorize(a, sym)
    ref = reference_ldlt_factorize(a, sym)
    assert f.flops == ref.flops == sd.predict_flops(sym)[0]
    np.testing.assert_allclose(f.d, ref.d, rtol=1e-10, atol=0)
    rows, cols, vals = a.triplets()
    diag = np.zeros(a.n)
    diag[rows[rows == cols]] = vals[rows == cols]
    diag = diag[sym.perm.perm]
    l_cols = np.repeat(np.arange(a.n), np.diff(sym.l_col_ptr))
    scale = np.sqrt(diag[sym.l_row_idx] / ref.d[l_cols])
    assert np.all(np.abs(f.l_values - ref.l_values) <= 1e-10 * scale)
    return f, ref


def has_block(sym):
    return bool((np.diff(sym.supernodes.astype(np.int64)) > 1).any())


# ------------------------------------------------------------ factorization


def test_prob1_factor_matches_column_kernel():
    c = prob1_c()
    sym = sd.symbolic_factor(c, sd.amd_order(c))
    assert has_block(sym)
    f, _ = assert_factors_agree(c, sym)
    assert f.padded_flops > 0


def test_field_factor_matches_column_kernel():
    a = field_precision(6, 0.6, 0.3)
    for p in (sd.natural_order(a.n), sd.amd_order(a)):
        sym = sd.symbolic_factor(a, p)
        assert has_block(sym)
        assert_factors_agree(a, sym)


def test_random_factors_match_column_kernel():
    rng = np.random.default_rng(91)
    for trial in range(12):
        a = random_spd(rng, int(rng.integers(2, 70)),
                       extra_per_row=float(rng.uniform(0.5, 5.0)))
        p = sd.amd_order(a) if trial % 2 else sd.natural_order(a.n)
        assert_factors_agree(a, sd.symbolic_factor(a, p))


def test_diagonal_matrix_pads_nothing():
    a = sd.identity_matrix(7, 3.0)
    f = sd.ldlt_factorize(a, sd.symbolic_factor(a, sd.natural_order(7)))
    assert f.flops == 0 and f.padded_flops == 0
    assert np.array_equal(f.d, np.full(7, 3.0))


def test_single_column_supernodes_match_column_kernel():
    rng = np.random.default_rng(23)
    # a star whose hub is last; two hubs, each spoke reaching both (every
    # update a segment of two rows) and one more spoke reaching the last
    # one only; random trees whose root has at least two children.  Only
    # a root joins its one child in a fill-free tree, so none of these
    # has a multi-column supernode.
    spokes = np.arange(7)
    cases = [arrowhead(9, dense_first=False),
             pattern_spd(rng, 10, np.concatenate([np.full(7, 8), np.full(8, 9)]),
                         np.concatenate([spokes, spokes, [7]]))]
    for n in (12, 30, 60):
        parent = [rng.integers(j + 1, n) for j in range(n - 3)] + [n - 1, n - 1]
        cases.append(pattern_spd(rng, n, np.array(parent), np.arange(n - 1)))
    for a in cases:
        sym = sd.symbolic_factor(a, sd.natural_order(a.n))
        assert not has_block(sym)
        # the leaves' updates are summed apart, before the loop, so the
        # columns they reach agree to roundoff; a leaf's own column is
        # only divided, in the same order, and agrees bit for bit
        f, ref = assert_factors_agree(a, sym)
        leaves = sym.leaves
        at = sym.leaf_batches.at
        assert leaves.size and np.array_equal(f.d[leaves], ref.d[leaves])
        assert np.array_equal(f.l_values[at], ref.l_values[at])
        assert f.padded_flops == 0


def block_matrix(values):
    """Dense lower triangle of ``values`` as a SparseSymmetric, built
    directly so that non-finite values reach the kernel."""
    n = values.shape[0]
    rows, cols = np.tril_indices(n)
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    return sd.SparseSymmetric(n=n, col_ptr=col_ptr, row_idx=rows,
                              values=values[rows, cols])


def test_non_positive_pivot_inside_a_block_names_the_reference_column():
    # a dense 6x6 block is one supernode; its Schur complement turns
    # indefinite at column 3
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6))
    spd = g @ g.T + 6.0 * np.eye(6)
    vals = spd.copy()
    vals[3, 3] = vals[3, :3] @ np.linalg.solve(spd[:3, :3], vals[:3, 3]) - 0.5
    a = block_matrix(vals)
    sym = sd.symbolic_factor(a, sd.natural_order(6))
    assert sym.supernodes.tolist() == [0, 6]
    with pytest.raises(NonPositivePivotError) as ref:
        reference_ldlt_factorize(a, sym)
    with pytest.raises(NonPositivePivotError) as got:
        sd.ldlt_factorize(a, sym)
    assert got.value.index == ref.value.index == 3
    assert got.value.value == pytest.approx(ref.value.value, rel=1e-10)


def tree_matrix(diag, parent=(2, 2, 4, 4, -1)):
    """Unit entries (parent[j], j) below the given diagonal, built directly
    so that a NaN reaches the kernel.  By default the leaves 0 and 1 hang
    below the twig 2, and 2 and the leaf 3 below the root 4, all single
    columns; d_2 = A_22 - 2 when A_00 = A_11 = 1."""
    n = len(diag)
    child = np.flatnonzero(np.asarray(parent) >= 0)
    rows = np.concatenate([np.arange(n), np.asarray(parent)[child]])
    cols = np.concatenate([np.arange(n), child])
    shape = sd.from_coo_arrays(n, rows, cols, np.ones(rows.size))
    on_diagonal = shape.row_idx == np.repeat(np.arange(n), np.diff(shape.col_ptr))
    values = np.where(on_diagonal, np.asarray(diag)[shape.row_idx], 1.0)
    return sd.SparseSymmetric(n=n, col_ptr=shape.col_ptr,
                              row_idx=shape.row_idx, values=values)


# the leaf 0 below the twig 1 below 2, the leaf 3 below the twig 4, and 2,
# 4 and the leaf 5 below the root 6: column 2 takes its update from a twig
# and runs in the loop, before the twig 4
TWIGS = (1, 2, 6, 4, 6, 6, -1)


@pytest.mark.parametrize("a, column", [
    (sd.from_coo_arrays(4, np.arange(4), np.arange(4),
                        np.array([1.0, 2.0, -3.0, 4.0])), 2),
    # nodes 0-3 (unit diagonals) joined to a hub 4 (0.5): the hub is a
    # twig whose four leaves push their updates before the loop, and it
    # fails at 0.5 - 4 = -3.5
    (sd.from_coo_arrays(5, np.array([0, 1, 2, 3, 4, 4, 4, 4, 4]),
                        np.array([0, 1, 2, 3, 0, 1, 2, 3, 4]),
                        np.array([1.0] * 8 + [0.5])), 4),
    # built directly: from_coo_arrays refuses NaN
    (sd.SparseSymmetric(n=3, col_ptr=np.arange(4), row_idx=np.arange(3),
                        values=np.array([1.0, np.nan, 1.0])), 1),
    # the leaves and twigs are divided before the loop, but the first
    # failure in column order is raised: the twig 2 (1.5 - 2 < 0) before
    # the leaf 3, the leaf 1 before the twig 2, the leaf 3 before the
    # root 4, and a NaN leaf after good columns
    (tree_matrix([1.0, 1.0, 1.5, -1.0, 9.0]), 2),
    (tree_matrix([1.0, -1.0, -5.0, 1.0, 9.0]), 1),
    (tree_matrix([1.0, 1.0, 3.0, 0.0, -1.0]), 3),
    (tree_matrix([1.0, 1.0, 3.0, np.nan, 9.0]), 3),
    # after the loop's column 2, the twig 4 fails at 1 - 1 = 0 (a division
    # by it would warn), and the leaf 3 fails after the twig 1
    (tree_matrix([1.0, 2.0, 2.0, 1.0, 1.0, 1.0, 9.0], TWIGS), 4),
    (tree_matrix([1.0, 2.0, 2.0, -1.0, 9.0, 1.0, 9.0], TWIGS), 3),
], ids=["negative-leaf", "star-hub", "nan-leaf", "non-leaf-before-leaf",
        "leaf-before-non-leaf", "leaf-before-root", "nan-leaf-in-tree",
        "twig-fails", "leaf-fails-after-a-twig"])
def test_non_positive_pivot_in_a_single_column_names_the_reference_column(
        a, column):
    sym = sd.symbolic_factor(a, sd.natural_order(a.n))
    k = int(np.searchsorted(sym.supernodes, column))
    assert sym.supernodes[k:k + 2].tolist() == [column, column + 1]
    with pytest.raises(NonPositivePivotError) as ref:
        reference_ldlt_factorize(a, sym)
    with pytest.raises(NonPositivePivotError) as got:
        sd.ldlt_factorize(a, sym)
    assert got.value.index == ref.value.index == column
    assert np.array_equal([got.value.value], [ref.value.value], equal_nan=True)


def test_the_failure_trees_have_their_leaves_and_twigs():
    for a, leaves, twigs in ((tree_matrix([1.0] * 5), [0, 1, 3], [2]),
                             (tree_matrix([1.0] * 7, TWIGS), [0, 3, 5], [1, 4])):
        sym = sd.symbolic_factor(a, sd.natural_order(a.n))
        assert sym.leaves.tolist() == leaves
        assert sym.leaf_batches.twigs.tolist() == twigs
        assert sym.supernodes.tolist() == list(range(a.n + 1))


def test_nan_inside_a_block_fails_with_typed_error():
    vals = np.full((5, 5), 0.5) + 4.0 * np.eye(5)
    vals[3, 1] = vals[1, 3] = np.nan
    a = block_matrix(vals)
    sym = sd.symbolic_factor(a, sd.natural_order(5))
    assert sym.supernodes.tolist() == [0, 5]
    with pytest.raises(NonPositivePivotError) as exc:
        sd.ldlt_factorize(a, sym)
    assert exc.value.index == 3
    assert np.isnan(exc.value.value)


def test_near_singular_pivot_inside_a_block_warns_once():
    # L D L^T with L = I + 0.5 below the diagonal and d = (1, 1, 1, 1e-14):
    # the last pivot is about 1e-14, far below 1e-13 * max |A_ii|
    lower = np.eye(4) + 0.5 * np.tri(4, k=-1)
    a = block_matrix(lower @ np.diag([1.0, 1.0, 1.0, 1e-14]) @ lower.T)
    sym = sd.symbolic_factor(a, sd.natural_order(4))
    assert sym.supernodes.tolist() == [0, 4]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sd.ldlt_factorize(a, sym)
    assert [w.category for w in caught] == [NearSingularWarning]


# -------------------------------------------------------- selected inverse


@pytest.mark.parametrize("case", ["prob1", "field", "bordered"])
def test_selected_inverse_is_bit_identical_to_column_kernel(case):
    if case == "prob1":
        a = prob1_c()
        p = sd.amd_order(a)
    elif case == "field":
        a = field_precision(6, 0.6, 0.3)
        p = sd.amd_order(a)
    else:
        a = bordered_spd(np.random.default_rng(7), 40, 8)
        p = sd.natural_order(a.n)
    f = sd.ldlt_factorize(a, sd.symbolic_factor(a, p))
    assert has_block(f.sym)
    z, ref = sd.selected_inverse(f), reference_selected_inverse(f)
    assert np.array_equal(z.z_values, ref.z_values)
    assert np.array_equal(z.z_diag, ref.z_diag)
    assert z.flops == ref.flops == sd.predict_flops(f.sym)[1]


# ------------------------------------------------------- pattern-only maps


def test_partition_and_update_maps_match_their_definitions():
    rng = np.random.default_rng(17)
    cases = [field_precision(5, 0.5, 0.5), bordered_spd(rng, 20, 5)]
    cases += [random_spd(rng, int(rng.integers(1, 40)),
                         extra_per_row=float(rng.uniform(0.3, 4.0)))
              for _ in range(10)]
    for a in cases:
        for p in (sd.natural_order(a.n), sd.amd_order(a)):
            sym = sd.symbolic_factor(a, p)
            lpat = fill_pattern(sd.permute_symmetric(a, p))
            bounds = reference_supernodes(lpat)
            assert sym.supernodes.tolist() == bounds
            ptr, cols, first, length, inside = sym.block_updates
            for arr in (sym.supernodes, ptr, cols, first, length, inside):
                assert not arr.flags.writeable
            assert ptr.dtype == first.dtype == np.min_scalar_type(sym.nnz_L)
            assert cols.dtype == np.min_scalar_type(a.n)
            count = np.min_scalar_type(int(sym.col_counts.max(initial=1)))
            assert length.dtype == inside.dtype == count
            colptr = sym.l_col_ptr
            for b, pairs in enumerate(reference_block_updates(lpat, bounds)):
                t = slice(int(ptr[b]), int(ptr[b + 1]))
                # in their exact order; a single column j gets every L_jk,
                # k ascending, as the rows of L group them
                got = list(zip(cols[t].tolist(),
                               sym.l_row_idx[first[t]].tolist(),
                               length[t].tolist(), inside[t].tolist()))
                assert got == pairs
                # each first position lies in its own column, and the
                # length runs to that column's end
                k = cols[t].astype(np.int64)
                assert np.all(colptr[k] <= first[t])
                assert np.array_equal(first[t] + length[t], colptr[k + 1])


def test_kernels_cache_only_the_maps_they_read():
    a = field_precision(6, 0.6, 0.3)
    sym = sd.symbolic_factor(a, sd.amd_order(a))
    sd.selected_inverse(sd.ldlt_factorize(a, sym))
    fields = {field.name for field in dataclasses.fields(sym)}
    assert set(vars(sym)) - fields == {"lower_keys", "supernodes",
                                       "block_updates", "preorder",
                                       "parent_positions", "leaves",
                                       "leaf_batches"}
