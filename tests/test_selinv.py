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
                     reference_parent_positions, tridiag, unit_c)


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


def test_get_entry_refuses_non_integral_index():
    z, _ = pipeline(sd.identity_matrix(3))
    with pytest.raises(IndexOutOfRangeError, match=r"\(i, j\)\[0\] = 1\.5"):
        sd.get_entry(z, 1.5, 0)


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


@pytest.mark.parametrize("build", [
    lambda: unit_c(sd.generate(sd.preset_config("prob1", seed=1000))),
    lambda: per_year_c(2000),
    lambda: field_precision(72, 0.3, 0.6),
], ids=["prob1", "reml_fit", "field"])
def test_parent_positions_equal_the_search_over_every_entry(build):
    # chain columns take their positions from their place in the column,
    # the others from the search; the benchmark's matrices under AMD
    a = build()
    sym = sd.symbolic_factor(a, sd.amd_order(a))
    pos = sym.parent_positions
    assert np.array_equal(pos, reference_parent_positions(sym))
    assert pos.dtype == np.min_scalar_type(int(sym.col_counts.max()))


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
