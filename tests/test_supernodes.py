"""Dense supernodes in both kernels, against the column-by-column kernels
kept in helpers as oracles.

``ldlt_factorize`` applies the leaves' updates before its loop, takes each
multi-column fundamental supernode in as one dense front (panel GEMMs for
the updates from outside, rank-1 steps inside), and ``selected_inverse``
computes a supernode's columns in place in one dense front.  The column
kernels do the same arithmetic one column at a time, so the factors
agree to roundoff, a leaf's own column bit for bit, and the selected
inverses of one shared factor agree bit for bit.  The partition, the
per-supernode update maps and the factorization's schedule (heights,
panels, batches of single columns) are checked against naive readings
of their definitions on the dense fill pattern.  The failure cases put
the first failing column in column order at a greater height than a
column that fails earlier in the loop.
"""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

import seldet as sd
from seldet import symbolic
from seldet.errors import NearSingularWarning, NonPositivePivotError
from seldet.numeric import NEAR_SINGULAR_RTOL
from helpers import (arrowhead, bordered_spd, field_precision, fill_pattern,
                     grid_laplacian, pattern_spd, random_spd,
                     reference_block_updates,
                     reference_ldlt_factorize, reference_schedule,
                     reference_selected_inverse, reference_supernodes)


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
    for side in (6, 20):
        a = field_precision(side, 0.6, 0.3)
        for p in (sd.natural_order(a.n), sd.amd_order(a)):
            sym = sd.symbolic_factor(a, p)
            assert has_block(sym)
            assert_factors_agree(a, sym)
    # the 20x20 field under AMD factors blocks of one shape as a stack
    groups = sym.block_updates.groups
    assert np.diff(groups[:, :2]).max() >= 2


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


def dense_spd():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6))
    return g @ g.T + 6.0 * np.eye(6)


def dense_block_failing_at_3():
    # a dense 6x6 block is one supernode; its Schur complement turns
    # indefinite at column 3
    spd = dense_spd()
    vals = spd.copy()
    vals[3, 3] = vals[3, :3] @ np.linalg.solve(spd[:3, :3], vals[:3, 3]) - 0.5
    return block_matrix(vals)


def dense_block_failing_at_0():
    # the same block with a first pivot of -1e-310: a division by it
    # overflows
    vals = dense_spd()
    vals[0, 0] = -1e-310
    return block_matrix(vals)


def unit_tree(below, diag):
    """Unit entries at the positions ``below`` (row, column) under the
    given diagonal."""
    rows, cols = np.array(below).T
    i = np.arange(len(diag))
    return sd.from_coo_arrays(len(diag), np.concatenate([rows, i]),
                              np.concatenate([cols, i]),
                              np.concatenate([np.ones(rows.size), diag]))


def block_over_a_twig():
    """The leaf 0 below the twig 1 below the supernode 2:5 (height 2), and
    the leaf 5 below the twig 6 (height 1), all below the root 7.
    d_2 = 4 - 1 = 3 and d_3 = 1/4 - 1/3 fails inside the block; the twig
    6 fails too (1/2 - 1), at a lower height and later in column order."""
    return unit_tree([(1, 0), (2, 1), (3, 2), (4, 2), (7, 2), (4, 3), (7, 3),
                      (7, 4), (6, 5), (7, 6)],
                     [1.0, 2.0, 4.0, 0.25, 5.0, 1.0, 0.5, 20.0])


# the chain 0 -> 1 -> 2 below the root 8, the supernode 3:6 without a
# child (height 0), and the leaves 6 and 7: the block fails at column 4
# (1 - 2^2 / 2) before the loop reaches column 2 (1/2 - 1, height 2)
BLOCK_FIRST = unit_tree(
    [(1, 0), (2, 1), (8, 2), (4, 3), (5, 3), (8, 3), (5, 4), (8, 4), (8, 5),
     (8, 6), (8, 7)],
    [1.0, 2.0, 0.5, 0.5, 1.0, 5.0, 1.0, 1.0, 20.0])
# the leaf 0 below the twig 1 (1/2 - 1), and the leaf 2 below the
# supernode 3:6 (1 - 2^2 / 2 at column 4), both of height 1: the blocks of
# a height run before its single columns
SAME_HEIGHT = unit_tree(
    [(1, 0), (8, 1), (3, 2), (4, 3), (5, 3), (8, 3), (5, 4), (8, 4), (8, 5),
     (8, 6), (8, 7)],
    [1.0, 0.5, 1.0, 1.5, 1.0, 5.0, 1.0, 1.0, 20.0])
# the leaf 0 below the twig 1 (fails at 1/2 - 1, height 1), and the leaf
# 2 below the twig 3 below the supernode 4:7 (height 2), which fails at
# column 5 (1/2 - 1) but comes after column 1
BLOCK_AFTER = unit_tree(
    [(1, 0), (8, 1), (3, 2), (4, 3), (5, 4), (6, 4), (8, 4), (6, 5), (8, 5),
     (8, 6), (8, 7)],
    [1.0, 0.5, 1.0, 2.0, 2.0, 0.5, 5.0, 1.0, 20.0])


@pytest.mark.parametrize("a, column, block", [
    (dense_block_failing_at_3(), 3, [0, 6]),
    (dense_block_failing_at_0(), 0, [0, 6]),
    (block_over_a_twig(), 3, [2, 5]),
    (BLOCK_FIRST, 2, [3, 6]),
    (BLOCK_AFTER, 1, [4, 7]),
    (SAME_HEIGHT, 1, [3, 6]),
], ids=["dense", "dense-subnormal-first-pivot",
        "higher-block-before-lower-twig",
        "lower-block-after-higher-single", "higher-block-after-lower-twig",
        "twig-before-block-of-its-height"])
def test_non_positive_pivot_inside_a_block_names_the_reference_column(
        a, column, block):
    sym = sd.symbolic_factor(a, sd.natural_order(a.n))
    k = int(np.searchsorted(sym.supernodes, block[0]))
    assert sym.supernodes[k:k + 2].tolist() == block
    with pytest.raises(NonPositivePivotError) as ref:
        reference_ldlt_factorize(a, sym)
    with pytest.raises(NonPositivePivotError) as got:
        sd.ldlt_factorize(a, sym)
    assert got.value.index == ref.value.index == column
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
# the chain 0 -> 1 -> 2 and the pairs 3 -> 4 and 5 -> 6 below the root 7:
# column 2 has height 2, the twigs 1, 4 and 6 height 1
HEIGHTS = (1, 2, 7, 4, 7, 6, 7, -1)


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
    # a leaf pivot of -1e-310: the divisions by it overflow
    (tree_matrix([-1e-310, 1.0, 3.0, 1.0, 9.0]), 0),
    # after the loop's column 2, the twig 4 fails at 1 - 1 = 0 (a division
    # by it would warn), and the leaf 3 fails after the twig 1
    (tree_matrix([1.0, 2.0, 2.0, 1.0, 1.0, 1.0, 9.0], TWIGS), 4),
    (tree_matrix([1.0, 2.0, 2.0, -1.0, 9.0, 1.0, 9.0], TWIGS), 3),
    # the heights run in ascending order, but the first failure in column
    # order is raised: column 2 (0.5 - 1 < 0, height 2) before the twig 4
    # (1 - 1 = 0, height 1) that fails first; a NaN at column 2 before
    # the leaf 5 and the twig 4, which fail before the loop reaches it
    (tree_matrix([1.0, 2.0, 0.5, 1.0, 1.0, 1.0, 3.0, 9.0], HEIGHTS), 2),
    (tree_matrix([1.0, 2.0, np.nan, 1.0, 1.0, -1.0, 3.0, 9.0], HEIGHTS), 2),
], ids=["negative-leaf", "star-hub", "nan-leaf", "non-leaf-before-leaf",
        "leaf-before-non-leaf", "leaf-before-root", "nan-leaf-in-tree",
        "subnormal-leaf",
        "twig-fails", "leaf-fails-after-a-twig", "higher-before-lower",
        "nan-higher-before-lower"])
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
    for a, leaves, twigs, height in (
            (tree_matrix([1.0] * 5), [0, 1, 3], [2], [0, 0, 1, 0, 2]),
            (tree_matrix([1.0] * 7, TWIGS), [0, 3, 5], [1, 4],
             [0, 1, 2, 0, 1, 0, 3]),
            (tree_matrix([1.0] * 8, HEIGHTS), [0, 3, 5], [1, 4, 6],
             [0, 1, 2, 0, 1, 0, 1, 3])):
        sym = sd.symbolic_factor(a, sd.natural_order(a.n))
        assert sym.leaves.tolist() == leaves
        assert sym.supernodes.tolist() == list(range(a.n + 1))
        assert sym.block_updates.height.tolist() == height
        # the single columns whose children are all leaves have height 1
        assert [j for j, h in enumerate(height) if h == 1] == twigs
    # the blocks of the failure cases and the heights around them
    for a, bounds, height in (
            (block_over_a_twig(), [0, 1, 2, 5, 6, 7, 8], [0, 1, 2, 0, 1, 3]),
            (BLOCK_FIRST, [0, 1, 2, 3, 6, 7, 8, 9], [0, 1, 2, 0, 0, 0, 3]),
            (BLOCK_AFTER, [0, 1, 2, 3, 4, 7, 8, 9], [0, 1, 0, 1, 2, 0, 3]),
            (SAME_HEIGHT, [0, 1, 2, 3, 6, 7, 8, 9], [0, 1, 0, 1, 0, 0, 2])):
        sym = sd.symbolic_factor(a, sd.natural_order(a.n))
        assert sym.supernodes.tolist() == bounds
        assert sym.block_updates.height.tolist() == height


def stacked_units(diag, nan=None):
    """Units of five columns each, all alike but for their diagonals
    ``diag`` (five per unit): the leaf 0 below the twig 1 below the dense
    block 2:5, with unit entries.  The blocks are one group of three
    fronts, each taking one panel from its twig.  With the diagonal
    (1, 2, 2, 2, 3) a unit's pivots are (1, 1, 1, 1, 2); A_22 = 1 or A_33 = 1
    makes the pivot of column 2 or 3 zero.  ``nan`` names a unit whose
    entry (4, 2) is NaN instead, which makes its pivot of column 4 NaN.
    Built directly so that the NaN reaches the kernel."""
    n = len(diag)
    values = np.diag(np.asarray(diag, dtype=float))
    for u in range(0, n, 5):
        for i, j in ((1, 0), (2, 1), (3, 2), (4, 2), (4, 3)):
            values[u + i, u + j] = values[u + j, u + i] = 1.0
    if nan is not None:
        values[5 * nan + 4, 5 * nan + 2] = np.nan
    rows, cols = np.nonzero(np.tril(values != 0.0))
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    return sd.SparseSymmetric(n=n, col_ptr=col_ptr, row_idx=rows,
                              values=values[rows, cols])


UNIT = [1.0, 2.0, 2.0, 2.0, 3.0]


@pytest.mark.parametrize("a, column", [
    # the middle front's pivot of column 7 is zero; a division by it
    # would warn
    (stacked_units(UNIT + [1.0, 2.0, 1.0, 2.0, 3.0] + UNIT), 7),
    # the last front fails at its first step, column 12, and the first
    # at its second, column 3, which comes first in column order
    (stacked_units([1.0, 2.0, 2.0, 1.0, 3.0] + UNIT + [1.0, 2.0, 1.0, 2.0, 3.0]), 3),
    (stacked_units(UNIT * 3, nan=1), 9),
    # the middle front's pivots are (1, 1, 1e308, -1e-310, ...): its step
    # at column 8 divides by -1e-310 and overflows
    (stacked_units(UNIT + [1.0, 2.0, 1e308, 1.0 / 1e308 - 1e-310, 3.0] + UNIT),
     8),
], ids=["later-front", "earlier-front-later-step", "nan-in-later-front",
        "subnormal-in-middle-front"])
def test_failing_pivot_inside_a_stack_names_the_reference_column(a, column):
    sym = sd.symbolic_factor(a, sd.natural_order(a.n))
    plan = sym.block_updates
    assert plan.groups.tolist() == [[0, 3, 0, 3]]
    assert plan.blocks.tolist() == [[2, 5], [7, 10], [12, 15]]
    with pytest.raises(NonPositivePivotError) as ref:
        reference_ldlt_factorize(a, sym)
    with pytest.raises(NonPositivePivotError) as got:
        sd.ldlt_factorize(a, sym)
    assert got.value.index == ref.value.index == column
    assert np.array_equal([got.value.value], [ref.value.value], equal_nan=True)


def column_kinds(sym):
    """Where each column is factored: 'leaf', 'single', 'lone' (a block
    alone in its group) or 'stack'."""
    plan = sym.block_updates
    kind = np.full(sym.n, "single", dtype=object)
    kind[sym.leaves] = "leaf"
    for b0, b1, _, _ in plan.groups.tolist():
        for s, e in plan.blocks[b0:b1].tolist():
            kind[s:e] = "stack" if b1 - b0 > 1 else "lone"
    return kind


def test_random_failures_name_the_reference_column():
    # 200 SPD matrices under natural order and AMD, each made to fail at
    # one or two columns: a diagonal entry lowered by 1 to 3 times its
    # pivot, or set to NaN.  The first failing column is drawn from one
    # kind of column, so that every kind fails somewhere in the sweep
    rng = np.random.default_rng(2024)
    seen = set()
    for case in range(200):
        pick = case % 4
        if pick == 0:
            a = random_spd(rng, int(rng.integers(10, 120)), 1.0)
        elif pick == 1:
            a = bordered_spd(rng, int(rng.integers(3, 100)),
                             int(rng.integers(2, 8)))
        elif pick == 2:
            a = grid_laplacian(int(rng.integers(3, 8)))
        else:
            a = field_precision(int(rng.integers(5, 14)),
                                *rng.uniform(0.2, 0.8, 2))
        for order in (sd.natural_order(a.n), sd.amd_order(a)):
            sym = sd.symbolic_factor(a, order)
            d = reference_ldlt_factorize(a, sym).d
            kind = column_kinds(sym)
            kinds = sorted(set(kind))
            first = rng.choice(np.flatnonzero(
                kind == kinds[rng.integers(len(kinds))]))
            cols = np.unique([first, rng.integers(a.n)][:rng.integers(1, 3)])
            values = a.values.copy()
            for j in cols:
                # the diagonal entry opens its column
                at = a.col_ptr[sym.perm.perm[j]]
                if rng.random() < 0.2:
                    values[at] = np.nan
                else:
                    values[at] -= d[j] * rng.uniform(1.0, 3.0)
            b = sd.SparseSymmetric(a.n, a.col_ptr, a.row_idx, values)
            with pytest.raises(NonPositivePivotError) as ref:
                reference_ldlt_factorize(b, sym)
            with pytest.raises(NonPositivePivotError) as got:
                sd.ldlt_factorize(b, sym)
            assert got.value.index == ref.value.index == cols[0]
            assert np.allclose([got.value.value], [ref.value.value],
                               rtol=1e-10, atol=0.0, equal_nan=True)
            seen.add(kind[cols[0]])
    assert seen == {"leaf", "single", "lone", "stack"}


def test_near_singular_pivot_inside_a_stack_warns_once():
    # the middle front's last pivot is (1 + 1e-14) - 1, about 1e-14, far
    # below 1e-13 * max |A_ii|
    a = stacked_units(UNIT + [1.0, 2.0, 2.0, 2.0, 1.0 + 1e-14] + UNIT)
    sym = sd.symbolic_factor(a, sd.natural_order(a.n))
    assert sym.block_updates.groups.tolist() == [[0, 3, 0, 3]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = sd.ldlt_factorize(a, sym)
    assert [w.category for w in caught] == [NearSingularWarning]
    assert f.d[9] < NEAR_SINGULAR_RTOL


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


def map_cases():
    """Each case's matrix, symbolic factor and dense pattern of L, under
    the natural order and AMD."""
    rng = np.random.default_rng(17)
    cases = [field_precision(5, 0.5, 0.5), bordered_spd(rng, 20, 5)]
    cases += [random_spd(rng, int(rng.integers(1, 40)),
                         extra_per_row=float(rng.uniform(0.3, 4.0)))
              for _ in range(10)]
    for a in cases:
        for p in (sd.natural_order(a.n), sd.amd_order(a)):
            yield a, sd.symbolic_factor(a, p), fill_pattern(sd.permute_symmetric(a, p))


def test_partition_and_update_maps_match_their_definitions():
    for a, sym, lpat in map_cases():
        bounds = reference_supernodes(lpat)
        assert sym.supernodes.tolist() == bounds
        ptr, cols, first, length, inside = symbolic._updates(sym)
        assert not sym.supernodes.flags.writeable
        assert not sym.block_updates.cols.flags.writeable
        assert np.array_equal(sym.block_updates.cols, cols)
        assert cols.dtype == np.min_scalar_type(a.n)
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


@pytest.mark.parametrize("group, panel", [(1 << 14, 128), (4, 2)])
def test_schedule_matches_its_definition(monkeypatch, group, panel):
    # groups of 4 gathered elements cut the heights' single columns into
    # several batches, and the build into many groups; panels of 2
    # columns give groups of several blocks with several panels each
    monkeypatch.setattr(symbolic, "_GROUP", group)
    monkeypatch.setattr(symbolic, "_PANEL", panel)
    # the border of the last case takes its updates in two panels of 128
    border = bordered_spd(np.random.default_rng(3), 300, 4)
    cases = [(border, sd.symbolic_factor(border, sd.natural_order(border.n)),
              fill_pattern(border))]
    groups = cases[0][1].block_updates.groups
    most = (np.diff(groups[:, 2:4]) // np.diff(groups[:, :2])).max()
    assert most == 2 if panel == 128 else most > 2
    # under AMD, a group of the 7x7 field takes two panels of 2 per block
    field = field_precision(7, 0.5, 0.5)
    p = sd.amd_order(field)
    cases.append((field, sd.symbolic_factor(field, p),
                  fill_pattern(sd.permute_symmetric(field, p))))
    split = 0       # rows beyond one per height
    stacked = 0     # groups of several blocks with several panels each
    for a, sym, lpat in itertools.chain(map_cases(), cases):
        bounds = reference_supernodes(lpat)
        height, levels = reference_schedule(lpat, bounds, panel=panel,
                                            group=group)
        plan = sym.block_updates
        assert plan.height.tolist() == height
        assert plan.levels.shape == (len(levels), 4)
        got = []
        for g0, g1, c0, c1 in plan.levels.tolist():
            blocks = [([tuple(b) for b in plan.blocks[b0:b1].tolist()],
                       [(t0, t1, plan.gather[x0:x1].tolist(),
                         plan.target[x0:x1].tolist(), top, structural, padded)
                        for t0, t1, x0, x1, top, structural, padded
                        in plan.panels[p0:p1].tolist()])
                      for b0, b1, p0, p1 in plan.groups[g0:g1].tolist()]
            stacked += sum(len(b) > 1 and len(p) > len(b) for b, p in blocks)
            singles = []
            for c in range(c0, c1):
                (u0, x0, s0), (u1, x1, s1) = plan.single_ptr[c:c + 2].tolist()
                segments = list(zip(plan.single_first[u0:u1].tolist(),
                                    plan.single_length[u0:u1].tolist()))
                singles.append((int(plan.singles[c]), segments,
                                plan.single_target[x0:x1].tolist(), s1 - s0))
            got.append((blocks, singles))
        assert got == levels
        split += len(levels) - (max(height, default=-1) + 1)
        # the groups are runs of blocks and panels, in the order of levels
        assert np.array_equal(plan.groups[:, 0], np.append(0, plan.groups[:-1, 1]))
        assert np.array_equal(plan.groups[:, 2], np.append(0, plan.groups[:-1, 3]))
        assert plan.groups[-1:, 1].tolist() in ([], [len(plan.blocks)])
        # the tables close: every panel, update and element is scheduled
        assert np.array_equal(np.append(plan.panels[:, 2], plan.gather.size),
                              np.append(0, plan.panels[:, 3]))
        assert plan.single_ptr[-1].tolist()[:2] == [plan.single_first.size,
                                                    plan.single_target.size]
        kind = np.min_scalar_type(sym.nnz_L)
        assert plan.gather.dtype == plan.single_first.dtype == kind
        assert plan.single_length.dtype == np.min_scalar_type(
            int(sym.col_counts.max(initial=1)))
        for name in ("height", "target", "single_target"):
            arr = getattr(plan, name)
            assert arr.dtype == np.min_scalar_type(int(arr.max(initial=0)))
        for field in dataclasses.fields(plan):
            assert not getattr(plan, field.name).flags.writeable
        # and the factorization and the solve run it, batches cut or not
        f, _ = assert_factors_agree(a, sym)
        b = np.random.default_rng(a.n).standard_normal(a.n)
        x, want = sd.solve(f, b), np.linalg.solve(a.to_dense(), b)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    assert (split > 0) == (group == 4)
    assert (stacked > 0) == (panel == 2)


def test_kernels_cache_only_the_maps_they_read():
    a = field_precision(6, 0.6, 0.3)
    sym = sd.symbolic_factor(a, sd.amd_order(a))
    sd.selected_inverse(sd.ldlt_factorize(a, sym))
    fields = {field.name for field in dataclasses.fields(sym)}
    assert set(vars(sym)) - fields == {"lower_keys", "supernodes",
                                       "block_updates", "selinv_sweep",
                                       "leaves", "leaf_batches"}


SCHEDULE = ("height", "levels", "groups", "blocks", "panels", "gather", "target",
            "singles", "single_ptr", "single_first", "single_length",
            "single_target")


@pytest.mark.parametrize("case", ["prob1", "field"])
def test_pattern_maps_stay_within_their_memory_budget(case):
    # measured: the schedule takes 1.73 MB on prob1 and 1.75 MB on the
    # 72x72 field, and the maps in all 2.49 and 2.00 MB; a map whose dtype
    # widens (a position to int64, say) breaks its budget
    a = prob1_c() if case == "prob1" else field_precision(72, 0.6, 0.3)
    sym = sd.symbolic_factor(a, sd.amd_order(a))
    sd.selected_inverse(sd.ldlt_factorize(a, sym))
    plan, layout, sweep = sym.block_updates, sym.leaf_batches, sym.selinv_sweep
    schedule = [getattr(plan, name) for name in SCHEDULE]
    assert {f.name for f in dataclasses.fields(plan)} == set(SCHEDULE) | {"cols"}
    assert {f.name for f in dataclasses.fields(layout)} == {
        "batches", "cols", "at", "slots"}
    assert {f.name for f in dataclasses.fields(sweep)} == {"steps", "places"}
    assert not any(arr.flags.writeable
                   for arr in schedule + [sweep.steps, sweep.places])
    held = ([sym.supernodes] + [getattr(plan, f.name)
                                for f in dataclasses.fields(plan)]
            + [layout.cols, layout.at, layout.slots, sweep.steps, sweep.places])
    assert sum(arr.nbytes for arr in schedule) <= 2_000_000
    assert sum(arr.nbytes for arr in held) <= 2_600_000
