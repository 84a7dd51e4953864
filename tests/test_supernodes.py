"""Dense supernodes in both kernels, against the column-by-column kernels
kept in helpers as oracles.

``ldlt_factorize`` takes each multi-column fundamental supernode in as one
dense front (panel GEMMs for the updates from outside, rank-1 steps
inside), and ``selected_inverse`` computes a supernode's columns in place
in one dense front.  The column kernels do the same arithmetic one column
at a time, so the factors agree to roundoff and the selected inverses of
one shared factor agree bit for bit.  The partition and the per-block
update maps are checked against naive readings of their definitions on
the dense fill pattern.
"""

import warnings

import numpy as np
import pytest

import seldet as sd
from seldet.errors import NearSingularWarning, NonPositivePivotError
from helpers import (bordered_spd, field_precision, fill_pattern, random_spd,
                     reference_block_updates, reference_ldlt_factorize,
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
            for b, pairs in enumerate(reference_block_updates(lpat, bounds)):
                t = slice(int(ptr[b]), int(ptr[b + 1]))
                got = sorted(zip(cols[t].tolist(),
                                 sym.l_row_idx[first[t]].tolist(),
                                 length[t].tolist(), inside[t].tolist()))
                assert got == pairs
                # in the order of their first row
                assert np.all(np.diff(sym.l_row_idx[first[t]]) >= 0)
