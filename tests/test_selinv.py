"""Sparse-subset inversion: worked examples, dense oracle, entry lookup."""

import tracemalloc

import numpy as np
import pytest

import seldet as sd
from seldet.errors import (
    IndexOutOfRangeError,
    PatternMismatchError,
    SingularMatrixError,
    TooLargeError,
)
from seldet.numeric import LdlFactor
from seldet.symbolic import SymbolicFactor
from helpers import (field_precision, per_year_c, random_spd,
                     reference_parent_positions, reference_preorder, tridiag,
                     unit_c)


def pipeline(a, ordering="natural"):
    p = sd.amd_order(a) if ordering == "amd" else sd.natural_order(a.n)
    sym = sd.symbolic_factor(a, p)
    f = sd.ldlt_factorize(a, sym)
    return sd.selected_inverse(f), sym


def test_chain_worked_example():
    a = tridiag([2.0, 2.0, 2.0], [-1.0, -1.0])
    z, _ = pipeline(a)
    assert sd.get_entry(z, 0, 0) == pytest.approx(0.75, abs=1e-15)
    assert sd.get_entry(z, 1, 0) == pytest.approx(0.5, abs=1e-15)
    assert sd.get_entry(z, 1, 1) == pytest.approx(1.0, abs=1e-15)
    assert sd.get_entry(z, 2, 1) == pytest.approx(0.5, abs=1e-15)
    assert sd.get_entry(z, 2, 2) == pytest.approx(0.75, abs=1e-15)
    # (2,0) is structurally zero in L: not part of the computed subset,
    # even though the true inverse entry (0.25) is nonzero
    assert sd.get_entry(z, 2, 0) is None
    assert sd.get_entry(z, 0, 2) is None
    # symmetric lookup
    assert sd.get_entry(z, 0, 1) == sd.get_entry(z, 1, 0)


def test_two_by_two_values_and_flops():
    a = sd.from_coo_arrays(2, np.array([0, 1, 1]), np.array([0, 0, 1]),
                           np.array([4.0, 2.0, 3.0]))
    z, sym = pipeline(a)
    assert np.allclose(z.z_diag, [0.375, 0.5])
    assert np.allclose(z.z_values, [-0.25])
    assert z.flops == 5 == sd.predict_flops(sym)[1]


def test_diagonal_matrix_costs_nothing():
    z, _ = pipeline(sd.identity_matrix(5, 4.0))
    assert np.allclose(z.z_diag, 0.25)
    assert z.z_values.size == 0
    assert z.flops == 0


def test_matches_dense_inverse_on_pattern():
    rng = np.random.default_rng(71)
    for ordering in ("natural", "amd"):
        for _ in range(10):
            a = random_spd(rng, int(rng.integers(2, 90)))
            z, _ = pipeline(a, ordering)
            inv = sd.dense_inverse_oracle(a)
            scale = np.sqrt(np.outer(np.diag(inv), np.diag(inv)))
            for i in range(a.n):
                for j in range(i + 1):
                    got = sd.get_entry(z, i, j)
                    if got is not None:
                        assert abs(got - inv[i, j]) <= 1e-10 * scale[i, j]


def test_lookup_uses_original_indices():
    # under a nontrivial ordering, (i, j) still means row/column of A
    rng = np.random.default_rng(73)
    a = random_spd(rng, 40)
    z, _ = pipeline(a, "amd")
    inv = sd.dense_inverse_oracle(a)
    for i in range(a.n):
        assert sd.get_entry(z, i, i) == pytest.approx(inv[i, i], rel=1e-10)


def test_selinv_flops_equal_forecast():
    rng = np.random.default_rng(79)
    for ordering in ("natural", "amd"):
        for _ in range(8):
            a = random_spd(rng, int(rng.integers(1, 80)))
            z, sym = pipeline(a, ordering)
            assert z.flops == sd.predict_flops(sym)[1]


def test_get_entry_range_check():
    z, _ = pipeline(sd.identity_matrix(3))
    with pytest.raises(IndexOutOfRangeError):
        sd.get_entry(z, 3, 0)
    with pytest.raises(IndexOutOfRangeError):
        sd.get_entry(z, 0, -1)


@pytest.mark.parametrize("i, j, says", [
    (1.5, 0, r"\(i, j\)\[0\] = 1\.5 is not"),
    (2**70, 0, r"\(i, j\)\[0\] = 1180591620717411303424 is outside"),
    (0, 1e30, r"\(i, j\)\[1\] = 1e\+30 is outside"),
    (0, np.uint64(2**63), r"\(i, j\)\[1\] = 9223372036854775808 is outside"),
    # a Python int beside np.uint64 would make a float64 list
    (0, np.uint64(2**53 + 1), r"index \(0,9007199254740993\) outside 0\.\.2"),
    ("1", 0, r"\(i, j\)\[0\] = '1' is not"),
    (0, None, r"\(i, j\)\[1\] = None is not"),
])
def test_get_entry_refuses_non_integral_index(i, j, says):
    z, _ = pipeline(sd.identity_matrix(3))
    with pytest.raises(IndexOutOfRangeError, match=says):
        sd.get_entry(z, i, j)


def test_index_arrays_beyond_int64_are_typed_errors():
    with pytest.raises(sd.NotAPermutationError,
                       match=rf"perm\[1\] = {2**70} is outside"):
        sd.Permutation([0, 2**70])
    with pytest.raises(IndexOutOfRangeError, match=r"rows\[0\]"):
        sd.from_coo_arrays(2, [2**70], [0], [1.0])
    with pytest.raises(IndexOutOfRangeError, match=r"cols\[0\]"):
        sd.from_coo_arrays(2, [0], np.array([2**64 - 1], dtype=np.uint64), [1.0])


def test_dense_oracle_guards():
    with pytest.raises(TooLargeError):
        sd.dense_inverse_oracle(sd.identity_matrix(501))
    singular = sd.from_coo_arrays(2, np.array([0, 1, 1]), np.array([0, 0, 1]),
                                  np.array([1.0, 1.0, 1.0]))
    with pytest.raises(SingularMatrixError):
        sd.dense_inverse_oracle(singular)


def test_oracle_at_size_limit():
    a = sd.identity_matrix(500, 2.0)
    inv = sd.dense_inverse_oracle(a)
    assert np.allclose(np.diag(inv), 0.5)


def test_unclosed_pattern_is_rejected():
    # the chain's pattern plus an arrow entry (3, 0), without the fill
    # (3, 1) it implies: column 0's block needs Z_31, which is not stored
    sym = SymbolicFactor(
        n=4, perm=sd.natural_order(4),
        parent=np.array([1, 2, 3, -1]),
        col_counts=np.array([3, 2, 2, 1]),
        l_col_ptr=np.array([0, 2, 3, 4, 4]),
        l_row_idx=np.array([1, 3, 2, 3]),
        nnz_L=8,
        a_col_ptr=np.array([0, 3, 5, 7, 8]),
        a_row_idx=np.array([0, 1, 3, 1, 2, 2, 3, 3]),
    )
    lv = np.full(4, -0.25)
    f = LdlFactor(sym=sym, l_values=lv, d=np.full(4, 4.0), flops=0)
    with pytest.raises(PatternMismatchError, match="not closed"):
        sd.selected_inverse(f)


def unclosed_factor(parent, l_col_ptr, l_row_idx):
    """A factor of unit pivots on a hand-built pattern of L, with the
    diagonal for its analyzed matrix."""
    counts = np.diff(l_col_ptr) + 1
    n = counts.size
    sym = SymbolicFactor(
        n=n, perm=sd.natural_order(n), parent=np.array(parent),
        col_counts=counts, l_col_ptr=np.array(l_col_ptr),
        l_row_idx=np.array(l_row_idx), nnz_L=int(counts.sum()),
        a_col_ptr=np.arange(n + 1), a_row_idx=np.arange(n))
    lv = np.full(len(l_row_idx), -0.25)
    return LdlFactor(sym=sym, l_values=lv, d=np.full(n, 4.0), flops=0)


def test_unclosed_inner_column_is_rejected():
    # the supernodes 0:2, 2:3 and 3:5 (column 1's only child is 0, and its
    # count is one less); column 0 holds row 4, which column 1 lacks
    f = unclosed_factor([1, 2, 3, 4, -1], [0, 2, 3, 4, 5, 5],
                        [1, 4, 2, 3, 4])
    assert f.sym.supernodes.tolist()[:2] == [0, 2]
    with pytest.raises(PatternMismatchError, match="not closed"):
        sd.selected_inverse(f)


def test_unclosed_last_column_is_rejected():
    # the leaves 0 and 2 have one row each, and 4:6 is a root supernode;
    # the swept single column 1 holds row 5, which its parent 3 lacks
    f = unclosed_factor([1, 3, 3, 4, 5, -1], [0, 1, 3, 4, 5, 6, 6],
                        [1, 3, 5, 3, 4, 5])
    assert f.sym.supernodes.tolist() == [0, 1, 2, 3, 4, 6]
    assert f.sym.leaves.tolist() == [0, 2]
    with pytest.raises(PatternMismatchError, match="not closed"):
        sd.selected_inverse(f)


@pytest.mark.parametrize("build", [
    lambda: unit_c(sd.generate(sd.preset_config("prob1", seed=1000))),
    lambda: per_year_c(2000),
    lambda: field_precision(72, 0.3, 0.6),
], ids=["prob1", "reml_fit", "field"])
def test_sweep_plan_matches_the_column_preorder_and_search(build):
    # the benchmark's matrices under AMD: the steps are the swept
    # supernodes in the column preorder of the reference sweep, and the
    # places are the search's at their last columns
    a = build()
    sym = sd.symbolic_factor(a, sd.amd_order(a))
    sweep = sym.selinv_sweep
    steps = sweep.steps.astype(np.int64)
    bounds = sym.supernodes.astype(np.int64)
    leaves = set(sym.leaves.tolist())
    last = set((bounds[1:] - 1).tolist()) - leaves
    preorder, children = reference_preorder(sym.parent.tolist())
    ends = [j for j in preorder if j in last]
    assert steps[:, 1].tolist() == [j + 1 for j in ends]
    starts = bounds[np.searchsorted(bounds, steps[:, 1] - 1, side="right") - 1]
    assert np.array_equal(steps[:, 0], starts)
    parent = sym.parent[steps[:, 1] - 1]
    assert np.array_equal(steps[:, 2], np.where(parent >= 0, parent, sym.n))
    swept_children = [[k for k in children[s] if k not in leaves]
                      for s in steps[:, 0].tolist()]
    assert steps[:, 3].tolist() == [int(bool(c)) for c in swept_children]
    # a front goes with the last of its swept children in the order
    final = {p: i for i, p in enumerate(steps[:, 2].tolist())}
    assert steps[:, 4].tolist() == [int(p < sym.n and final[p] == i)
                                    for i, p in enumerate(steps[:, 2].tolist())]
    pos = reference_parent_positions(sym)
    colptr = sym.l_col_ptr
    want = np.concatenate([pos[colptr[e - 1]:colptr[e]]
                           for e in steps[:, 1].tolist()])
    assert np.array_equal(sweep.places, want)
    assert sweep.places.dtype == np.min_scalar_type(int(sym.col_counts.max()))
    assert sweep.steps.dtype == np.min_scalar_type(sym.n)
    assert not (sweep.steps.flags.writeable or sweep.places.flags.writeable)


def test_front_memory_stays_small():
    # the fronts held at once, plus the first call's build of the
    # relative-index map; a sweep in reverse index order would hold 32 MB
    d = sd.generate(sd.preset_config("prob1", seed=1000))
    v = sd.VarianceParams(1.0, np.ones(len(d.factors)),
                          np.ones(d.n_residual_blocks))
    c = sd.assemble_mme(d, v).C
    f = sd.ldlt_factorize(c, sd.symbolic_factor(c, sd.amd_order(c)))
    tracemalloc.start()
    try:
        sd.selected_inverse(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
