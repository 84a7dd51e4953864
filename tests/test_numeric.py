"""Numeric LDL^T kernel: values, pivot policing, FLOP instrumentation, solve."""

import numpy as np
import pytest

import seldet as sd
from seldet.errors import (
    NearSingularWarning,
    NonFiniteValueError,
    NonPositivePivotError,
    PatternMismatchError,
    SizeMismatchError,
)
from helpers import dense_ldlt, random_spd, reconstruct_dense, tridiag


def two_by_two():
    return sd.from_coo_arrays(2, np.array([0, 1, 1]), np.array([0, 0, 1]),
                              np.array([4.0, 2.0, 3.0]))


def factorize(a, ordering="natural"):
    p = sd.amd_order(a) if ordering == "amd" else sd.natural_order(a.n)
    sym = sd.symbolic_factor(a, p)
    return sd.ldlt_factorize(a, sym), sym


# ------------------------------------------------------------- worked out


def test_two_by_two_by_hand():
    f, sym = factorize(two_by_two())
    assert np.array_equal(f.d, [4.0, 2.0])
    assert np.array_equal(f.l_values, [0.5])
    assert f.flops == 3
    assert sd.predict_flops(sym) == (3, 5)
    assert abs(sd.log_det(f) - np.log(8.0)) < 1e-15


def test_indefinite_matrix_reports_failing_pivot():
    a = sd.from_coo_arrays(2, np.array([0, 1, 1]), np.array([0, 0, 1]),
                           np.array([1.0, 2.0, 1.0]))
    sym = sd.symbolic_factor(a, sd.natural_order(2))
    with pytest.raises(NonPositivePivotError) as exc:
        sd.ldlt_factorize(a, sym)
    assert exc.value.index == 1
    assert abs(exc.value.value - (-3.0)) < 1e-15


def test_zero_pivot_is_rejected():
    a = sd.from_coo_arrays(2, np.array([0, 1, 1]), np.array([0, 0, 1]),
                           np.array([1.0, 1.0, 1.0]))
    sym = sd.symbolic_factor(a, sd.natural_order(2))
    with pytest.raises(NonPositivePivotError) as exc:
        sd.ldlt_factorize(a, sym)
    assert exc.value.index == 1 and exc.value.value == 0.0


def test_near_singular_threshold_is_relative_to_the_diagonal():
    import warnings
    eye = sd.identity_matrix(2)
    sym = sd.symbolic_factor(eye, sd.natural_order(2))
    for scale in (1.0, 1e-200, 1e200):
        at, below = (sd.SparseSymmetric(2, eye.col_ptr, eye.row_idx,
                                        [scale, rel * scale])
                     for rel in (1e-13, 0.99e-13))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning fails the test
            sd.ldlt_factorize(at, sym)
        with pytest.warns(NearSingularWarning, match="1 pivot"):
            sd.ldlt_factorize(below, sym)


def test_near_singular_emits_one_warning():
    # second pivot is ~1e-15 while max diagonal is 1: far below 1e-13 rel
    a = sd.from_coo_arrays(2, np.array([0, 1, 1]), np.array([0, 0, 1]),
                           np.array([1.0, 1.0, 1.0 + 1e-15]))
    sym = sd.symbolic_factor(a, sd.natural_order(2))
    with pytest.warns(NearSingularWarning):
        sd.ldlt_factorize(a, sym)


# ---------------------------------------------------------------- numerics


def test_reconstruction_matches_input():
    rng = np.random.default_rng(55)
    for ordering in ("natural", "amd"):
        for _ in range(8):
            a = random_spd(rng, int(rng.integers(1, 60)))
            f, _ = factorize(a, ordering)
            ref = a.to_dense()
            assert np.allclose(reconstruct_dense(f), ref,
                               atol=1e-12 * np.abs(ref).max())


def test_factor_values_match_dense_ldlt():
    rng = np.random.default_rng(56)
    a = random_spd(rng, 25)
    f, sym = factorize(a, "natural")
    l_ref, d_ref = dense_ldlt(a.to_dense())
    assert np.allclose(f.d, d_ref)
    for j in range(a.n):
        lo, hi = sym.l_col_ptr[j], sym.l_col_ptr[j + 1]
        rows = sym.l_row_idx[lo:hi]
        assert np.allclose(f.l_values[lo:hi], l_ref[rows, j], atol=1e-12)


def test_flop_counter_equals_forecast():
    rng = np.random.default_rng(57)
    for ordering in ("natural", "amd"):
        for _ in range(8):
            a = random_spd(rng, int(rng.integers(1, 80)))
            f, sym = factorize(a, ordering)
            assert f.flops == sd.predict_flops(sym)[0]


def test_logdet_is_ordering_invariant():
    rng = np.random.default_rng(58)
    a = random_spd(rng, 40)
    f_nat, _ = factorize(a, "natural")
    f_amd, _ = factorize(a, "amd")
    ref = np.linalg.slogdet(a.to_dense())[1]
    assert abs(sd.log_det(f_nat) - sd.log_det(f_amd)) < 1e-12 * abs(ref)
    assert abs(sd.log_det(f_nat) - ref) < 1e-10 * max(1.0, abs(ref))


def test_identity_logdet_is_exactly_zero():
    f, _ = factorize(sd.identity_matrix(10))
    assert sd.log_det(f) == 0.0


# ------------------------------------------------------------------- solve


def test_solve_exact_small():
    f, _ = factorize(two_by_two())
    x = sd.solve(f, np.array([8.0, 8.0]))
    assert np.array_equal(x, [1.0, 2.0])  # exact in binary arithmetic


def test_solve_residual_random():
    rng = np.random.default_rng(59)
    for ordering in ("natural", "amd"):
        a = random_spd(rng, 70)
        f, _ = factorize(a, ordering)
        b = rng.standard_normal(70)
        x = sd.solve(f, b)
        assert np.linalg.norm(a.to_dense() @ x - b) < 1e-10 * np.linalg.norm(b)


def test_solve_rejects_wrong_length():
    f, _ = factorize(two_by_two())
    with pytest.raises(SizeMismatchError):
        sd.solve(f, np.ones(3))


def test_solve_rejects_non_finite_right_hand_side():
    f, _ = factorize(tridiag([2.0, 2.0, 2.0], [-1.0, -1.0]))
    with pytest.raises(NonFiniteValueError, match=r"b\[1\] = nan"):
        sd.solve(f, [1.0, np.nan, np.inf])


# ------------------------------------------------------- pattern contracts


def test_factorize_rejects_entries_off_plan():
    chain = tridiag([2.0, 2.0, 2.0, 2.0], [-1.0, -1.0, -1.0])
    sym = sd.symbolic_factor(chain, sd.natural_order(4))
    # (3, 0) lies outside the chain's factor pattern
    stray = sd.from_coo_arrays(4, np.array([0, 1, 2, 3, 3]),
                               np.array([0, 1, 2, 3, 0]),
                               np.array([2.0, 2.0, 2.0, 2.0, 0.5]))
    with pytest.raises(PatternMismatchError):
        sd.ldlt_factorize(stray, sym)


def test_factorize_uses_matrix_argument_values():
    # same pattern, doubled values: d doubles, logdet shifts by n*log(2)
    a = two_by_two()
    sym = sd.symbolic_factor(a, sd.natural_order(2))
    doubled = sd.from_coo_arrays(2, *a.triplets()[:2],
                                 vals=2.0 * a.triplets()[2])
    f2 = sd.ldlt_factorize(doubled, sym)
    assert np.array_equal(f2.d, [8.0, 4.0])


def test_factorize_rejects_other_patterns():
    # only the analyzed pattern is accepted: a strict subpattern, a
    # superpattern and a same-size different pattern are each refused
    chain = tridiag([2.0, 2.0, 2.0], [-1.0, -1.0])
    sym = sd.symbolic_factor(chain, sd.natural_order(3))
    others = [
        sd.identity_matrix(3),                                   # subpattern
        sd.from_coo_arrays(3, np.array([0, 1, 2, 1, 2, 2]),
                           np.array([0, 1, 2, 0, 1, 0]),
                           np.array([4.0, 4.0, 4.0, 1.0, 1.0, 1.0])),  # superpattern
        sd.from_coo_arrays(3, np.array([0, 1, 2, 2, 2]),
                           np.array([0, 1, 2, 0, 1]),
                           np.array([4.0, 4.0, 4.0, 1.0, 1.0])),  # same size
    ]
    assert others[2].nnz == chain.nnz
    for other in others:
        with pytest.raises(PatternMismatchError):
            sd.ldlt_factorize(other, sym)
    with pytest.raises(SizeMismatchError,
                       match="symbolic factor is for n=3, matrix has n=2"):
        sd.ldlt_factorize(two_by_two(), sym)
    # the analyzed pattern with new values still factors
    scaled = sd.from_coo_arrays(3, *chain.triplets()[:2],
                                vals=3.0 * chain.triplets()[2])
    f = sd.ldlt_factorize(scaled, sym)
    ref, _ = factorize(chain)
    assert np.allclose(f.d, 3.0 * ref.d, rtol=1e-15)
    assert np.allclose(f.l_values, ref.l_values, rtol=1e-15)
    assert f.flops == sd.predict_flops(sym)[0]


def test_a_repeat_factorization_does_no_pattern_work(monkeypatch):
    a = random_spd(np.random.default_rng(23), 60)
    sym = sd.symbolic_factor(a, sd.amd_order(a))
    first = sd.ldlt_factorize(a, sym)
    calls = {"argsort": 0, "searchsorted": 0}

    def counted(name):
        original = getattr(np, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np, name, counted(name))
    again = sd.ldlt_factorize(a, sym)
    assert calls == {"argsort": 0, "searchsorted": 0}
    assert np.array_equal(again.l_values, first.l_values)
    assert np.array_equal(again.d, first.d)
    assert again.flops == first.flops


# ------------------------------------------------------ non-finite values


def test_nan_entry_fails_with_typed_error():
    # built directly: from_coo_arrays rejects the NaN before the kernel
    a = sd.SparseSymmetric(n=2, col_ptr=np.array([0, 2, 3]),
                           row_idx=np.array([0, 1, 1]),
                           values=np.array([2.0, np.nan, 2.0]))
    sym = sd.symbolic_factor(a, sd.natural_order(2))
    with pytest.raises(NonPositivePivotError) as exc:
        sd.ldlt_factorize(a, sym)
    assert exc.value.index == 1
    assert np.isnan(exc.value.value)
    assert "non-finite pivot" in str(exc.value)


def test_inf_diagonal_fails_without_warning():
    a = sd.SparseSymmetric(n=2, col_ptr=np.array([0, 2, 3]),
                           row_idx=np.array([0, 1, 1]),
                           values=np.array([np.inf, 1.0, 2.0]))
    sym = sd.symbolic_factor(a, sd.natural_order(2))
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NearSingularWarning fails the test
        with pytest.raises(NonPositivePivotError) as exc:
            sd.ldlt_factorize(a, sym)
    assert exc.value.index == 0
    assert exc.value.value == np.inf
