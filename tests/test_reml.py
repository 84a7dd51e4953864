"""Mixed-model equations, restricted likelihood, derivative machinery.

The independent reference throughout is plain dense numpy written inline:
the variance matrix H = R + Z G Z' on the observation scale, its explicit
projection P, and slogdet — exercising none of the sparse machinery under
test.
"""

import dataclasses
import io
import re

import numpy as np
import pytest

import seldet as sd
from seldet.errors import (
    EmptyFactorError,
    IndexOutOfRangeError,
    InvalidParameterError,
    NonFiniteValueError,
    ParseError,
    PatternMismatchError,
    PatternNotCoveredError,
    RankDeficientDesignError,
    SizeMismatchError,
    TooLargeForDenseFormError,
)
from helpers import dense_blue_blup, dense_mme, random_dataset, random_params


def tiny_dataset():
    """Two observations, grand mean, one 2-level factor: the worked example."""
    return sd.MixedModelDataset(
        y=np.array([0.0, 0.0]),
        x=np.ones((2, 1)),
        fixed_names=("mean",),
        factors=(sd.RandomFactor(name="f", codes=np.array([0, 1]), n_levels=2),),
        residual_codes=np.zeros(2, dtype=np.int64),
        n_residual_blocks=1,
    )


def unit_params(d):
    return sd.VarianceParams(sigma2=1.0,
                             gamma=(1.0,) * len(d.factors),
                             phi=(1.0,) * d.n_residual_blocks)


def factor_pipeline(m, ordering="amd"):
    p = sd.amd_order(m.C) if ordering == "amd" else sd.natural_order(m.C.n)
    sym = sd.symbolic_factor(m.C, p)
    f = sd.ldlt_factorize(m.C, sym)
    return f, sd.selected_inverse(f)


def observation_variance(d, v):
    """H = R + Z G Z' assembled densely from first principles."""
    n = d.n_obs
    h = np.diag(np.asarray(v.phi, dtype=float)[d.residual_codes])
    for f, g in zip(d.factors, v.gamma):
        zf = np.zeros((n, f.n_levels))
        zf[np.arange(n), f.codes] = 1.0
        h += g * (zf @ zf.T)
    return h


def reml_by_dense_numpy(d, v):
    """Observation-scale restricted log-likelihood, no sparse code involved."""
    n, p = d.n_obs, d.p
    h = observation_variance(d, v)
    hi = np.linalg.inv(h)
    xthix = d.x.T @ hi @ d.x
    proj = hi - hi @ d.x @ np.linalg.inv(xthix) @ d.x.T @ hi
    quad = float(d.y @ proj @ d.y)
    ld_h = np.linalg.slogdet(h)[1]
    ld_x = np.linalg.slogdet(xthix)[1]
    return -0.5 * ((n - p) * np.log(v.sigma2) + ld_h + ld_x + quad / v.sigma2)


# ---------------------------------------------------------------- assembly


def test_assembled_system_by_hand():
    d = tiny_dataset()
    m = sd.assemble_mme(d, unit_params(d))
    assert np.array_equal(m.C.to_dense(), [[2, 1, 1], [1, 2, 0], [1, 0, 2]])
    assert np.array_equal(m.rhs, [0.0, 0.0, 0.0])
    assert m.p == 1 and m.b == 2
    assert m.template_names == ("gamma:f", "phi:0")


def test_rhs_carries_the_response():
    d = tiny_dataset()
    d = sd.MixedModelDataset(y=np.array([3.0, 5.0]), x=d.x,
                             fixed_names=d.fixed_names, factors=d.factors,
                             residual_codes=d.residual_codes,
                             n_residual_blocks=1)
    m = sd.assemble_mme(d, unit_params(d))
    assert np.array_equal(m.rhs, [8.0, 3.0, 5.0])


def test_scales_enter_where_expected():
    # gamma only touches the factor diagonal block; phi rescales W'R^-1W
    d = tiny_dataset()
    v = sd.VarianceParams(sigma2=7.0, gamma=(0.5,), phi=(2.0,))
    m = sd.assemble_mme(d, v)
    expect = np.array([[1.0, 0.5, 0.5],
                       [0.5, 0.5 + 2.0, 0.0],
                       [0.5, 0.0, 0.5 + 2.0]])
    assert np.allclose(m.C.to_dense(), expect)  # sigma2 appears nowhere


def test_rank_deficient_design_rejected():
    d = tiny_dataset()
    bad = sd.MixedModelDataset(y=d.y, x=np.ones((2, 2)),
                               fixed_names=("a", "b"), factors=d.factors,
                               residual_codes=d.residual_codes,
                               n_residual_blocks=1)
    with pytest.raises(RankDeficientDesignError):
        sd.assemble_mme(bad, sd.VarianceParams(1.0, (1.0,), (1.0,)))


def test_factor_codes_refuse_non_integral_values():
    with pytest.raises(IndexOutOfRangeError, match=r"factor f codes\[0\] = 0\.7"):
        sd.RandomFactor("f", [0.7, 1.2, 1.9], 2)


def test_residual_codes_refuse_non_integral_values():
    d = tiny_dataset()
    with pytest.raises(IndexOutOfRangeError, match=r"residual_codes\[1\] = 0\.5"):
        dataclasses.replace(d, residual_codes=np.array([0.0, 0.5]))


def test_empty_factor_variants_rejected():
    d = tiny_dataset()
    v = unit_params(d)
    no_levels = sd.RandomFactor(name="f", codes=np.zeros(2, dtype=np.int64),
                                n_levels=0)
    with pytest.raises(EmptyFactorError):
        sd.assemble_mme(sd.MixedModelDataset(
            y=d.y, x=d.x, fixed_names=d.fixed_names, factors=(no_levels,),
            residual_codes=d.residual_codes, n_residual_blocks=1), v)
    out_of_range = sd.RandomFactor(name="f", codes=np.array([0, 5]),
                                   n_levels=2)
    with pytest.raises(EmptyFactorError):
        sd.assemble_mme(sd.MixedModelDataset(
            y=d.y, x=d.x, fixed_names=d.fixed_names, factors=(out_of_range,),
            residual_codes=d.residual_codes, n_residual_blocks=1), v)
    unobserved = sd.RandomFactor(name="f", codes=np.array([0, 1]), n_levels=3)
    with pytest.raises(EmptyFactorError):
        sd.assemble_mme(sd.MixedModelDataset(
            y=d.y, x=d.x, fixed_names=d.fixed_names, factors=(unobserved,),
            residual_codes=d.residual_codes, n_residual_blocks=1), v)
    with pytest.raises(EmptyFactorError):  # block 1 never observed
        sd.assemble_mme(sd.MixedModelDataset(
            y=d.y, x=d.x, fixed_names=d.fixed_names, factors=d.factors,
            residual_codes=np.zeros(2, dtype=np.int64),
            n_residual_blocks=2), sd.VarianceParams(1.0, (1.0,), (1.0, 1.0)))


@pytest.mark.parametrize("codes", [[0, -1], [0, 1]])
def test_residual_code_out_of_range_rejected(codes):
    # one residual block: -1 and 1 both lie outside 0..0
    d = tiny_dataset()
    bad = sd.MixedModelDataset(
        y=d.y, x=d.x, fixed_names=d.fixed_names, factors=d.factors,
        residual_codes=np.array(codes), n_residual_blocks=1)
    v = unit_params(bad)
    for call in (lambda: sd.assemble_mme(bad, v),
                 lambda: sd.reml_report(bad, v),
                 lambda: sd.restricted_loglik(bad, v, form="h")):
        with pytest.raises(EmptyFactorError, match="code outside 0..0"):
            call()


@pytest.mark.parametrize("array, at, bad, where", [
    ("y", (1,), np.nan, "y[1] = nan"),
    ("x", (1, 0), np.inf, "x[1, 0] = inf"),
    ("x", (0, 0), -np.inf, "x[0, 0] = -inf")])
def test_non_finite_response_or_design_rejected(array, at, bad, where):
    d = tiny_dataset()
    y, x = d.y.copy(), d.x.copy()
    {"y": y, "x": x}[array][at] = bad
    with pytest.raises(NonFiniteValueError, match=re.escape(where)):
        sd.MixedModelDataset(y=y, x=x, fixed_names=d.fixed_names,
                             factors=d.factors, residual_codes=d.residual_codes,
                             n_residual_blocks=1)


@pytest.mark.parametrize("y, says", [
    (np.array([1 + 1j, 2]), "y = array([1.+1.j, 2.+0.j]): complex"),
    (["a", "b"], "y = ['a', 'b']: not numeric")])
def test_response_must_be_real_numbers(y, says):
    d = tiny_dataset()
    with pytest.raises(InvalidParameterError, match=re.escape(says)):
        sd.MixedModelDataset(y=y, x=d.x, fixed_names=d.fixed_names,
                             factors=d.factors, residual_codes=d.residual_codes,
                             n_residual_blocks=1)


@pytest.mark.parametrize("change, says", [
    (dict(x=np.ones((3, 1))), "inconsistent dataset shapes"),
    (dict(x=np.ones(2)), "inconsistent dataset shapes"),
    (dict(residual_codes=np.zeros(3, dtype=np.int64)),
     "inconsistent dataset shapes"),
    (dict(fixed_names=("mean", "slope")),
     re.escape("fixed_names length != number of X columns")),
    (dict(factors=(sd.RandomFactor(name="f", codes=[0, 1, 0], n_levels=2),)),
     "factor f: wrong length"),
])
def test_dataset_parts_must_agree_in_size(change, says):
    d = tiny_dataset()
    parts = dict(y=d.y, x=d.x, fixed_names=d.fixed_names, factors=d.factors,
                 residual_codes=d.residual_codes, n_residual_blocks=1)
    with pytest.raises(SizeMismatchError, match=says):
        sd.MixedModelDataset(**(parts | change))


def test_factor_label_count_must_match_levels():
    with pytest.raises(SizeMismatchError, match="factor f: label/level count"):
        sd.RandomFactor(name="f", codes=[0, 1], n_levels=2, labels=("a",))


def test_residual_label_count_must_match_blocks():
    d = tiny_dataset()
    with pytest.raises(SizeMismatchError, match="residual label"):
        sd.MixedModelDataset(y=d.y, x=d.x, fixed_names=d.fixed_names,
                             factors=d.factors, residual_codes=np.array([0, 1]),
                             n_residual_blocks=2, residual_labels=("a",))


def test_model_dataclasses_compare_by_identity():
    d = tiny_dataset()
    v = unit_params(d)
    for obj in (d.factors[0], d, v, sd.assemble_mme(d, v),
                sd.reml_report(d, v)):
        assert obj == obj and obj != dataclasses.replace(obj)
        assert hash(obj) == hash(obj)


def test_parameter_count_mismatch_rejected():
    d = tiny_dataset()
    with pytest.raises(SizeMismatchError):
        sd.assemble_mme(d, sd.VarianceParams(1.0, (1.0, 1.0), (1.0,)))
    with pytest.raises(SizeMismatchError):
        sd.assemble_mme(d, sd.VarianceParams(1.0, (1.0,), ()))


def test_variance_params_must_be_positive():
    with pytest.raises(ValueError):
        sd.VarianceParams(sigma2=0.0, gamma=(1.0,), phi=(1.0,))
    with pytest.raises(ValueError):
        sd.VarianceParams(sigma2=1.0, gamma=(-1.0,), phi=(1.0,))
    with pytest.raises(ValueError):
        sd.VarianceParams(sigma2=1.0, gamma=(1.0,), phi=(0.0,))


@pytest.mark.parametrize("sigma2, gamma, phi, where", [
    (np.nan, (1.0,), (np.inf,), "sigma2"),
    (1.0, (1.0, np.nan), (1.0,), "gamma[1]"),
    (1.0, (1.0,), (np.inf,), "phi[0]"),
    (np.inf, (1.0,), (1.0,), "sigma2"),
    (1.0, (-np.inf,), (1.0,), "gamma[0]"),
    ("abc", (1.0,), (1.0,), "sigma2 = 'abc': not numeric"),
    (np.array([1.0, 2.0]), (1.0,), (1.0,), "sigma2 has shape (2,)"),
    (1.0, np.ones((2, 3)), (1.0,), "gamma has shape (2, 3)"),
    (1.0, (1.0,), ("x",), "phi = ('x',): not numeric"),
    (1.0, np.array([1 + 1j]), (1.0,), "gamma = array([1.+1.j]): complex"),
])
def test_variance_params_must_be_finite(sigma2, gamma, phi, where):
    with pytest.raises(InvalidParameterError, match=re.escape(where)):
        sd.VarianceParams(sigma2=sigma2, gamma=gamma, phi=phi)


@pytest.mark.parametrize("index", [-1, 3, 7])
def test_perturbed_index_out_of_range(index):
    v = sd.VarianceParams(sigma2=2.0, gamma=(1.0, 3.0), phi=(4.0,))
    with pytest.raises(IndexOutOfRangeError, match="outside 0..2"):
        v.perturbed(index, 1.5)


def test_perturbed_moves_one_coordinate():
    v = sd.VarianceParams(sigma2=2.0, gamma=(1.0, 3.0), phi=(4.0,))
    w = v.perturbed(1, 1.5)  # layout: gammas then phis
    assert np.array_equal(w.gamma, [1.0, 4.5])
    assert np.array_equal(w.phi, [4.0]) and w.sigma2 == 2.0
    w = v.perturbed(2, 0.5)
    assert np.array_equal(w.phi, [2.0])
    assert np.array_equal(w.gamma, v.gamma)


def test_assembly_matches_dense_construction():
    rng = np.random.default_rng(101)
    for _ in range(8):
        d = random_dataset(rng, n_obs=int(rng.integers(15, 50)), p=2,
                           level_sizes=[4, 3], n_blocks=2)
        v = random_params(rng, d)
        m = sd.assemble_mme(d, v)
        n = d.n_obs
        w = [d.x]
        for f in d.factors:
            zf = np.zeros((n, f.n_levels))
            zf[np.arange(n), f.codes] = 1.0
            w.append(zf)
        w = np.column_stack(w)
        r_inv = np.diag(1.0 / np.asarray(v.phi)[d.residual_codes])
        g_inv = np.concatenate([np.full(f.n_levels, 1.0 / g)
                                for f, g in zip(d.factors, v.gamma)])
        ref = w.T @ r_inv @ w
        ref[d.p:, d.p:] += np.diag(g_inv)
        assert np.allclose(m.C.to_dense(), ref, atol=1e-12 * np.abs(ref).max())
        assert np.allclose(m.rhs, w.T @ r_inv @ d.y)


def oracle_dataset(seed):
    """p = 2 or 3, two or three residual blocks that follow the levels of
    the first factor, and X column 1 zero over block 0: C then stores
    exact zeros, at (level of block 0, X column 1)."""
    rng = np.random.default_rng(seed)
    p, n_blocks = 2 + seed % 2, 2 + (seed // 2) % 2
    d = random_dataset(rng, n_obs=int(rng.integers(30, 60)), p=p,
                       level_sizes=[6, 4, 3], n_blocks=n_blocks)
    blocks = d.factors[0].codes % n_blocks
    x = d.x.copy()
    x[blocks == 0, 1] = 0.0
    d = dataclasses.replace(d, x=x, residual_codes=blocks)
    return d, random_params(rng, d)


def max_rel_err(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("seed", range(300, 306))
def test_mme_and_templates_match_dense_oracle(seed):
    d, v = oracle_dataset(seed)
    m = sd.assemble_mme(d, v)
    c_ref, t_ref = dense_mme(d, v)
    assert max_rel_err(m.C.to_dense(), c_ref) <= 1e-13
    assert m.inv_kappa.size == len(t_ref) == len(m.template_names)
    # dC/d(kappa_k) = -B_k / kappa_k^2, with B_k scattered from the table
    rows, cols, _ = m.C.triplets()
    t = m.table
    for k, ref in enumerate(t_ref):
        on = t.which == k
        low = np.zeros_like(ref)
        np.add.at(low, (rows[t.slot[on]], cols[t.slot[on]]), t.value[on])
        b_k = low + np.tril(low, -1).T
        assert max_rel_err(-m.inv_kappa[k] ** 2 * b_k, ref) <= 1e-13
    # every X column is stored against every row below it, zeros included
    p, dim = d.p, m.C.n
    assert np.array_equal(np.diff(m.C.col_ptr)[:p], dim - np.arange(p))
    assert np.any(m.C.to_dense()[p:, 1] == 0.0)


# -------------------------------------------------------------- likelihood


def test_loglik_worked_example():
    d = tiny_dataset()
    ll = sd.restricted_loglik(d, unit_params(d), form="c")
    assert ll == pytest.approx(-0.5 * np.log(4.0), abs=1e-14)


def test_loglik_matches_dense_numpy():
    rng = np.random.default_rng(103)
    for _ in range(12):
        d = random_dataset(rng, n_obs=int(rng.integers(10, 45)),
                           p=int(rng.integers(1, 3)),
                           level_sizes=[int(rng.integers(2, 6))
                                        for _ in range(int(rng.integers(1, 3)))],
                           n_blocks=int(rng.integers(1, 3)))
        v = random_params(rng, d)
        ref = reml_by_dense_numpy(d, v)
        for form in ("c", "h"):
            got = sd.restricted_loglik(d, v, form=form)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_h_form_size_guard():
    rng = np.random.default_rng(104)
    d = random_dataset(rng, n_obs=501, p=1, level_sizes=[2], n_blocks=1)
    v = unit_params(d)
    with pytest.raises(TooLargeForDenseFormError):
        sd.restricted_loglik(d, v, form="h")
    sd.restricted_loglik(d, v, form="c")  # sparse route has no such limit


def test_loglik_requires_more_observations_than_fixed_effects():
    d = sd.MixedModelDataset(
        y=np.array([1.0]), x=np.ones((1, 1)), fixed_names=("mean",),
        factors=(sd.RandomFactor(name="f", codes=np.zeros(1, dtype=np.int64),
                                 n_levels=1),),
        residual_codes=np.zeros(1, dtype=np.int64), n_residual_blocks=1)
    with pytest.raises(SizeMismatchError):
        sd.restricted_loglik(d, unit_params(d))
    # the analysis checks it itself, for every caller
    with pytest.raises(SizeMismatchError, match="need n > p, got n = 1"):
        sd.analyze(d)
    with pytest.raises(SizeMismatchError, match="need n > p, got n = 1"):
        sd.reml_report(d, unit_params(d))


def test_unknown_form_rejected():
    d = tiny_dataset()
    with pytest.raises(InvalidParameterError, match="unknown form"):
        sd.restricted_loglik(d, unit_params(d), form="q")


# ------------------------------------------------------------- derivatives


def test_gradient_worked_example():
    d = sd.MixedModelDataset(
        y=np.array([1.0, 2.0]), x=np.ones((2, 1)), fixed_names=("mean",),
        factors=(sd.RandomFactor(name="g", codes=np.zeros(2, dtype=np.int64),
                                 n_levels=1),),
        residual_codes=np.zeros(2, dtype=np.int64), n_residual_blocks=1)
    v = unit_params(d)
    m = sd.assemble_mme(d, v)
    _, zs = factor_pipeline(m)
    g = sd.logdet_gradient(m, zs)
    # C = [[2, 2], [2, 3]]: d logdet/d gamma = -tr(C^-1 E)/gamma^2
    ci = np.linalg.inv(m.C.to_dense())
    assert g[0] == pytest.approx(-ci[1, 1], abs=1e-12)
    _, t_ref = dense_mme(d, v)
    assert g == pytest.approx(
        [float(np.trace(ci @ t)) for t in t_ref], abs=1e-12)


def test_logdet_gradient_requires_the_pattern_of_c():
    d, v = oracle_dataset(300)
    m = sd.assemble_mme(d, v)
    n = m.C.n
    rows, cols = np.tril_indices(n)
    # the whole lower triangle: a superpattern of C, with C's values
    full = sd.from_coo_arrays(n, rows, cols, m.C.to_dense()[rows, cols])
    for other in (full, sd.identity_matrix(n)):
        sym = sd.symbolic_factor(other, sd.natural_order(n))
        zs = sd.selected_inverse(sd.ldlt_factorize(other, sym))
        with pytest.raises(PatternMismatchError, match="pattern differs"):
            sd.logdet_gradient(m, zs)


def test_trace_product_identity():
    rng = np.random.default_rng(113)
    d = random_dataset(rng, n_obs=35, p=2, level_sizes=[4, 5], n_blocks=2)
    m = sd.assemble_mme(d, random_params(rng, d))
    _, zs = factor_pipeline(m)
    dim = m.p + m.b
    assert sd.trace_product(zs, m.C) == pytest.approx(dim, abs=1e-9 * dim)


def test_trace_product_requires_pattern_coverage():
    eye = sd.identity_matrix(3)
    sym = sd.symbolic_factor(eye, sd.natural_order(3))
    zs = sd.selected_inverse(sd.ldlt_factorize(eye, sym))
    # (2, 0) is off the (diagonal) selected pattern
    b = sd.from_coo_arrays(3, np.array([0, 2]), np.array([0, 0]),
                           np.array([1.0, 1.0]))
    with pytest.raises(PatternNotCoveredError):
        sd.trace_product(zs, b)
    with pytest.raises(SizeMismatchError, match="dimension mismatch"):
        sd.trace_product(zs, sd.identity_matrix(4))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(127)
    d = random_dataset(rng, n_obs=30, p=1, level_sizes=[3, 4], n_blocks=2)
    v = random_params(rng, d)
    m = sd.assemble_mme(d, v)
    _, zs = factor_pipeline(m)
    g = sd.logdet_gradient(m, zs)
    theta = list(v.gamma) + list(v.phi)

    def logdet_at(vv):
        mm = sd.assemble_mme(d, vv)
        f, _ = factor_pipeline(mm)
        return sd.log_det(f)

    h = 1e-5
    for i in range(len(theta)):
        fd = (logdet_at(v.perturbed(i, 1 + h)) -
              logdet_at(v.perturbed(i, 1 - h))) / (2 * h * theta[i])
        assert g[i] == pytest.approx(fd, rel=1e-6)


def test_pev_diagonal_in_original_order():
    rng = np.random.default_rng(131)
    d = random_dataset(rng, n_obs=30, p=2, level_sizes=[4], n_blocks=1)
    v = random_params(rng, d)
    m = sd.assemble_mme(d, v)
    _, zs = factor_pipeline(m, "amd")
    pev = sd.pev_diagonal(zs, v.sigma2)
    ref = v.sigma2 * np.diag(np.linalg.inv(m.C.to_dense()))
    assert np.allclose(pev, ref, rtol=1e-9)
    assert pev.shape == (m.p + m.b,)


# ------------------------------------------------------------ full report


def test_report_is_self_consistent():
    rng = np.random.default_rng(137)
    d = random_dataset(rng, n_obs=40, p=2, level_sizes=[5, 4], n_blocks=2)
    v = random_params(rng, d)
    rep = sd.reml_report(d, v)
    assert rep.loglik == pytest.approx(sd.restricted_loglik(d, v), rel=1e-12)
    assert rep.measured_ldlt_flops == rep.predicted_ldlt_flops
    assert rep.measured_selinv_flops == rep.predicted_selinv_flops
    assert rep.dim == rep.tau.size + rep.u.size == rep.pev.size
    assert set(rep.times) == {"assemble", "ordering", "symbolic",
                              "factorize", "selinv", "derivatives"}
    assert len(rep.gradient) == len(rep.gradient_names)
    # solution embedded in the report solves the system
    m = sd.assemble_mme(d, v)
    x = np.concatenate([rep.tau, rep.u])
    assert np.allclose(m.C.to_dense() @ x, m.rhs, atol=1e-8)


@pytest.mark.parametrize("seed", range(310, 314))
def test_report_matches_dense_oracle(seed):
    d, v = oracle_dataset(seed)
    c_ref, t_ref = dense_mme(d, v)
    sign, logdet = np.linalg.slogdet(c_ref)
    assert sign > 0
    c_inv = np.linalg.inv(c_ref)
    grad = [float(np.sum(c_inv * t)) for t in t_ref]
    tau, u = dense_blue_blup(d, v)
    for ordering in ("natural", "amd"):
        rep = sd.reml_report(d, v, ordering)
        assert rep.logdet_c == pytest.approx(logdet, rel=1e-12, abs=1e-12)
        assert np.allclose(rep.gradient, grad, rtol=1e-10, atol=1e-12)
        assert np.allclose(rep.pev, v.sigma2 * np.diag(c_inv), rtol=1e-10)
        assert np.allclose(rep.tau, tau, rtol=0, atol=1e-10)
        assert np.allclose(rep.u, u, rtol=0, atol=1e-10)


def test_solve_mme_matches_dense():
    rng = np.random.default_rng(107)
    for _ in range(6):
        d = random_dataset(rng, n_obs=40, p=2, level_sizes=[5, 3], n_blocks=2)
        v = random_params(rng, d)
        m = sd.assemble_mme(d, v)
        rep = sd.reml_report(d, v)
        ref = np.linalg.solve(m.C.to_dense(), m.rhs)
        assert np.allclose(rep.tau, ref[:m.p], atol=1e-10)
        assert np.allclose(rep.u, ref[m.p:], atol=1e-10)


def test_solve_mme_ordering_invariant():
    rng = np.random.default_rng(109)
    d = random_dataset(rng, n_obs=30, p=1, level_sizes=[4], n_blocks=1)
    v = unit_params(d)
    r1 = sd.reml_report(d, v, "natural")
    r2 = sd.reml_report(d, v, "amd")
    assert np.allclose(r1.tau, r2.tau, atol=1e-12)
    assert np.allclose(r1.u, r2.u, atol=1e-12)


# ----------------------------------------------------------------- file IO


def test_dataset_round_trip_with_labels():
    rng = np.random.default_rng(139)
    labels = tuple(f"v{k:03d}" for k in range(12))
    codes = rng.integers(0, 12, size=40)
    codes[:12] = np.arange(12)
    d = sd.MixedModelDataset(
        y=rng.standard_normal(40),
        x=np.column_stack([np.ones(40), rng.standard_normal(40)]),
        fixed_names=("mean", "slope"),
        factors=(sd.RandomFactor(name="variety", codes=codes, n_levels=12,
                                 labels=labels),),
        residual_codes=rng.integers(0, 2, size=40),
        n_residual_blocks=2,
        residual_labels=("early", "late"),
    )
    buf = io.StringIO()
    sd.write_dataset(d, buf)
    back = sd.read_dataset(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.y, d.y)          # 17 sig digits: exact
    assert np.array_equal(back.x, d.x)
    assert back.fixed_names == d.fixed_names
    assert back.factors[0].labels == labels     # zero-padded: order kept
    assert np.array_equal(back.factors[0].codes, codes)
    assert np.array_equal(back.residual_codes, d.residual_codes)
    assert back.residual_labels == ("early", "late")


def test_dataset_round_trip_unlabeled_small():
    # synthesized single-digit labels sort like the codes themselves
    rng = np.random.default_rng(149)
    d = random_dataset(rng, n_obs=25, p=1, level_sizes=[4], n_blocks=2)
    buf = io.StringIO()
    sd.write_dataset(d, buf)
    back = sd.read_dataset(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.factors[0].codes, d.factors[0].codes)
    assert np.array_equal(back.residual_codes, d.residual_codes)


def test_dataset_columns_are_read_by_header_role():
    rng = np.random.default_rng(151)
    d = random_dataset(rng, n_obs=20, p=2, level_sizes=[4, 3], n_blocks=2)
    buf = io.StringIO()
    sd.write_dataset(d, buf)
    # written: response, fixed:x0, fixed:x1, random:f0, random:f1, resblock
    order = [0, 5, 3, 1, 4, 2]
    shuffled = "".join(
        "\t".join(line.split("\t")[c] for c in order) + "\n"
        for line in buf.getvalue().splitlines())
    assert shuffled.startswith("response\tresblock\trandom:f0\tfixed:x0\t")
    want = sd.read_dataset(io.StringIO(buf.getvalue()))
    got = sd.read_dataset(io.StringIO(shuffled))
    assert np.array_equal(got.y, want.y)
    assert np.array_equal(got.x, want.x)
    assert got.fixed_names == want.fixed_names
    for g, w in zip(got.factors, want.factors, strict=True):
        assert (g.name, g.n_levels, g.labels) == (w.name, w.n_levels, w.labels)
        assert np.array_equal(g.codes, w.codes)
    assert np.array_equal(got.residual_codes, want.residual_codes)
    assert got.residual_labels == want.residual_labels


def test_dataset_without_resblock_column():
    text = ("response\tfixed:mean\trandom:f\n"
            "1.5\t1\ta\n"
            "2.5\t1\tb\n")
    d = sd.read_dataset(io.StringIO(text))
    assert d.n_residual_blocks == 1
    assert np.array_equal(d.residual_codes, [0, 0])


def test_dataset_without_fixed_columns_gets_the_mean():
    # a blank line is skipped
    d = sd.read_dataset(io.StringIO("response\trandom:f\n1.5\ta\n\n2.5\tb\n"))
    assert d.fixed_names == ("mean",)
    assert np.array_equal(d.x, np.ones((2, 1)))
    assert np.array_equal(d.y, [1.5, 2.5])


@pytest.mark.parametrize("row, column", [
    ("nan\t1\ta", "response"), ("1.0\tinf\ta", "fixed:mean"),
    ("-inf\t1\ta", "response")])
def test_dataset_non_finite_value_names_the_line(row, column):
    text = "response\tfixed:mean\trandom:f\n1.5\t1\ta\n" + row + "\n"
    with pytest.raises(NonFiniteValueError, match=f"line 3: column '{column}'"):
        sd.read_dataset(io.StringIO(text))


def test_dataset_parse_errors():
    with pytest.raises(ParseError):
        sd.read_dataset(io.StringIO(""))
    with pytest.raises(ParseError):  # NA anywhere is refused
        sd.read_dataset(io.StringIO(
            "response\tfixed:mean\trandom:f\tresblock\n1.0\t1\tNA\t0\n"))
    with pytest.raises(ParseError):  # ragged row
        sd.read_dataset(io.StringIO(
            "response\tfixed:mean\trandom:f\tresblock\n1.0\t1\ta\n"))
    with pytest.raises(ParseError):  # non-numeric response
        sd.read_dataset(io.StringIO(
            "response\trandom:f\tresblock\noops\ta\t0\n"))
    with pytest.raises(ParseError):  # unknown column role
        sd.read_dataset(io.StringIO("response\tweight:w\n1.0\t2.0\n"))
    with pytest.raises(ParseError):  # response not first
        sd.read_dataset(io.StringIO("fixed:mean\tresponse\n1\t1.0\n"))
    with pytest.raises(ParseError, match="no observations"):  # header only
        sd.read_dataset(io.StringIO("response\tfixed:mean\n\n"))
    with pytest.raises(ParseError):  # one role read from two columns
        sd.read_dataset(io.StringIO(
            "response\tresblock\trandom:f\tresblock\n1.0\t0\ta\t1\n"))


def _labeled_dataset(labels=("a", "b"), name="f", residual_labels=("r",)):
    return sd.MixedModelDataset(
        y=np.array([1.0, 2.0]), x=np.ones((2, 1)), fixed_names=("mean",),
        factors=(sd.RandomFactor(name=name, codes=[0, 1], n_levels=2,
                                 labels=labels),),
        residual_codes=[0, 0], n_residual_blocks=1,
        residual_labels=residual_labels)


def test_a_label_given_twice_is_refused():
    # written and read back, ("x", "x") would become one level
    with pytest.raises(InvalidParameterError, match="factor f: 'x' is given twice"):
        _labeled_dataset(labels=("x", "x"))
    with pytest.raises(InvalidParameterError, match="residual blocks: 'r' is given twice"):
        sd.MixedModelDataset(
            y=np.ones(2), x=np.ones((2, 1)), fixed_names=("mean",),
            factors=(), residual_codes=[0, 1], n_residual_blocks=2,
            residual_labels=("r", "r"))


@pytest.mark.parametrize("kwargs, owner, word", [
    (dict(labels=("NA", "b")), "factor f", "'NA'"),
    (dict(labels=("a\tb", "c")), "factor f", r"'a\\tb'"),
    (dict(labels=("a\rb", "c")), "factor f", r"'a\\rb'"),
    (dict(labels=("a\nb", "c")), "factor f", r"'a\\nb'"),
    (dict(residual_labels=("NA",)), "residual blocks", "'NA'"),
    (dict(name="f\tg"), "column", r"'random:f\\tg'"),
])
def test_write_dataset_refuses_what_cannot_be_read_back(kwargs, owner, word):
    buf = io.StringIO()
    with pytest.raises(InvalidParameterError, match=f"{owner}: {word}"):
        sd.write_dataset(_labeled_dataset(**kwargs), buf)
    assert buf.getvalue() == ""


def test_write_dataset_refuses_two_columns_of_one_name():
    d = _labeled_dataset()
    d = dataclasses.replace(d, factors=d.factors * 2)
    buf = io.StringIO()
    with pytest.raises(InvalidParameterError, match="dataset columns: 'random:f' is given twice"):
        sd.write_dataset(d, buf)
    assert buf.getvalue() == ""


def test_labels_that_only_look_odd_round_trip():
    d = _labeled_dataset(labels=("na", " NA "), residual_labels=("",))
    buf = io.StringIO()
    sd.write_dataset(d, buf)
    back = sd.read_dataset(io.StringIO(buf.getvalue()))
    assert back.factors[0].labels == (" NA ", "na")
    assert back.residual_labels == ("",)


# ----------------------------------------------------- analyze once, reuse


@pytest.fixture
def no_held_plan(monkeypatch):
    """An empty plan memo for this test, whatever earlier tests left."""
    monkeypatch.setattr(sd.reml, "_held", [])


@pytest.fixture
def amd_calls(monkeypatch):
    calls = []
    real = sd.ordering.amd_order

    def counting(a):
        calls.append(a.n)
        return real(a)

    monkeypatch.setattr(sd.ordering, "amd_order", counting)
    return calls


def path_dataset(seed=211):
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, n_obs=60, p=2, level_sizes=[5, 4, 3], n_blocks=3)
    return d, [random_params(rng, d) for _ in range(5)]


def assert_same_report(got, ref):
    assert got.measured_ldlt_flops == ref.measured_ldlt_flops
    assert got.measured_selinv_flops == ref.measured_selinv_flops
    assert got.predicted_ldlt_flops == ref.predicted_ldlt_flops
    assert got.predicted_selinv_flops == ref.predicted_selinv_flops
    assert (got.dim, got.nnz_c, got.nnz_l) == (ref.dim, ref.nnz_c, ref.nnz_l)
    assert got.gradient_names == ref.gradient_names
    assert abs(got.logdet_c - ref.logdet_c) <= 1e-10 * max(1.0, abs(ref.logdet_c))
    assert abs(got.loglik - ref.loglik) <= 1e-8 * max(1.0, abs(ref.loglik))
    assert np.allclose(got.gradient, ref.gradient, rtol=1e-10, atol=0.0)
    assert np.allclose(got.pev, ref.pev, rtol=1e-10, atol=0.0)


def test_fit_path_reuses_one_analysis(no_held_plan, amd_calls):
    d, path = path_dataset()
    reports = [sd.reml_report(d, v) for v in path]
    assert len(amd_calls) == 1
    assert reports[0].times["ordering"] > 0.0
    assert all(r.times["ordering"] == 0.0 == r.times["symbolic"]
               for r in reports[1:])
    held_perm = sd.plan_for(d).sym.perm.perm
    for v, rep in zip(path, reports):
        fresh = sd.analyze(d)
        assert np.array_equal(fresh.sym.perm.perm, held_perm)
        assert_same_report(rep, fresh.evaluate(v))
    assert len(amd_calls) == 1 + len(path)  # analyze never reads the memo


def test_plan_gradient_matches_template_traces(no_held_plan):
    d, path = path_dataset(223)
    for v in path[:2]:
        rep = sd.reml_report(d, v)
        c_ref, t_ref = dense_mme(d, v)
        ci = np.linalg.inv(c_ref)
        ref = [float(np.sum(ci * t)) for t in t_ref]
        assert np.allclose(rep.gradient, ref, rtol=1e-10, atol=1e-12)
        assert rep.gradient_names == sd.assemble_mme(d, v).template_names


def test_evaluate_takes_its_gradient_from_logdet_gradient(monkeypatch):
    d, path = path_dataset(269)
    plan = sd.analyze(d)
    seen = []
    real = sd.reml.logdet_gradient

    def spying(m, zsel):
        seen.append(real(m, zsel))
        return seen[-1]

    monkeypatch.setattr(sd.reml, "logdet_gradient", spying)
    for k, v in enumerate(path[:3], start=1):
        rep = plan.evaluate(v)
        assert len(seen) == k and rep.gradient is seen[-1]


def test_codes_edited_in_place_give_a_fresh_analysis(no_held_plan, amd_calls):
    d, path = path_dataset(227)
    sd.reml_report(d, path[0])
    codes = d.factors[0].codes
    # move one observation to another level that keeps every level observed
    i = int(np.flatnonzero(np.bincount(codes)[codes] > 1)[0])
    codes[i] = (codes[i] + 1) % d.factors[0].n_levels
    got = sd.reml_report(d, path[1])
    assert len(amd_calls) == 2
    sd.reml._held.clear()
    assert_same_report(got, sd.reml_report(d, path[1]))


def test_a_stale_plan_refuses_to_evaluate():
    d, path = path_dataset(229)
    plan = sd.analyze(d)
    d.x[0, 1] += 1.0
    with pytest.raises(PatternMismatchError, match="changed"):
        plan.evaluate(path[0])


def test_a_stale_plan_refuses_to_factorize():
    d, path = path_dataset(229)
    plan = sd.analyze(d)
    d.residual_codes[0] = (d.residual_codes[0] + 1) % d.n_residual_blocks
    with pytest.raises(PatternMismatchError, match="changed"):
        plan.factorize(path[0])


def test_a_held_plan_hashes_the_dataset_once_per_call(no_held_plan,
                                                      monkeypatch):
    # the key lookup hashes the dataset; the plan it finds is current, so
    # evaluating it must not hash the same content again
    d, path = path_dataset(281)
    sd.reml_report(d, path[0])
    calls = []
    real = sd.reml._dataset_digest

    def counting(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(sd.reml, "_dataset_digest", counting)
    assert sd.reml_report(d, path[1]).times["ordering"] == 0.0
    assert len(calls) == 1
    sd.restricted_loglik(d, path[2])
    assert len(calls) == 2


def test_a_copy_with_another_response_reuses_the_plan(no_held_plan, amd_calls):
    d, path = path_dataset(233)
    sd.reml_report(d, path[0])
    other = sd.MixedModelDataset(
        y=d.y[::-1].copy(), x=d.x.copy(), fixed_names=d.fixed_names,
        factors=d.factors, residual_codes=d.residual_codes.copy(),
        n_residual_blocks=d.n_residual_blocks)
    got = sd.reml_report(other, path[0])
    assert len(amd_calls) == 1
    assert_same_report(got, sd.analyze(other).evaluate(path[0]))


def test_orderings_never_share_a_plan(no_held_plan, amd_calls):
    d, path = path_dataset(239)
    dim = d.p + d.b
    reverse = sd.Permutation(np.arange(dim)[::-1])
    seen = {}
    for ordering in ("natural", "amd", reverse, "natural"):
        sd.reml_report(d, path[0], ordering=ordering)
        perm = sd.plan_for(d, ordering).sym.perm.perm
        key = ordering if isinstance(ordering, str) else "reverse"
        seen.setdefault(key, perm)
        assert np.array_equal(perm, seen[key])
    assert np.array_equal(seen["natural"], np.arange(dim))
    assert np.array_equal(seen["reverse"], reverse.perm)
    assert len(amd_calls) == 1


def test_natural_and_identity_share_one_analysis(no_held_plan, monkeypatch):
    # both name the same permutation, so they key the same plan
    d, path = path_dataset(243)
    calls = []
    real = sd.reml.symbolic_factor
    monkeypatch.setattr(sd.reml, "symbolic_factor",
                        lambda a, perm: calls.append(a.n) or real(a, perm))
    first = sd.reml_report(d, path[0], ordering="natural")
    again = sd.reml_report(d, path[0],
                           ordering=sd.Permutation(np.arange(d.p + d.b)))
    assert len(calls) == 1
    assert_same_report(again, first)


def test_a_file_ordering_is_read_once_per_call(no_held_plan, tmp_path,
                                                monkeypatch):
    d, path = path_dataset(247)
    perm_path = tmp_path / "perm.txt"
    with open(perm_path, "w", encoding="utf-8") as fh:
        sd.write_order(sd.Permutation(np.arange(d.p + d.b)[::-1]), fh)
    opened = []
    real_open = open

    def spying(file, *args, **kwargs):
        if str(file) == str(perm_path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spying)
    for v in path[:3]:
        sd.reml_report(d, v, ordering=f"file:{perm_path}")
    assert len(opened) == 3


def test_restricted_loglik_shares_the_plan(no_held_plan, amd_calls):
    d, path = path_dataset(241)
    for v in path:
        ll = sd.restricted_loglik(d, v)
        assert ll == pytest.approx(sd.reml_report(d, v).loglik, rel=1e-12)
    assert len(amd_calls) == 1


def test_a_refused_dataset_keeps_the_held_plan(no_held_plan, amd_calls):
    d, path = path_dataset(271)
    assert sd.reml_report(d, path[0]).times["ordering"] > 0.0
    rng = np.random.default_rng(271)
    square = random_dataset(rng, n_obs=4, p=4, level_sizes=[2], n_blocks=1)
    with pytest.raises(SizeMismatchError, match="n > p"):
        sd.reml_report(square, random_params(rng, square))
    rank_deficient = dataclasses.replace(d, x=np.column_stack([d.x, d.x[:, 0]]),
                             fixed_names=d.fixed_names + ("again",))
    with pytest.raises(RankDeficientDesignError):
        sd.plan_for(rank_deficient)
    assert sd.reml_report(d, path[1]).times["ordering"] == 0.0
    assert len(amd_calls) == 1


def one_block_trial():
    """A small generated trial: six factors, one residual block."""
    return sd.generate(sd.TrialConfig(
        years=3, centers=4, centers_per_year_fraction=0.75,
        control_varieties=2, new_varieties_per_year=2, mean_persistence=2.0,
        missing_fraction=0.0, seed=5))


@pytest.mark.parametrize("entry", [
    lambda d, v: sd.reml_report(d, v),
    lambda d, v: sd.restricted_loglik(d, v, form="c"),
    lambda d, v: sd.restricted_loglik(d, v, form="h"),
    lambda d, v: sd.assemble_mme(d, v),
], ids=["reml_report", "loglik-c", "loglik-h", "assemble_mme"])
@pytest.mark.parametrize("gammas, phis, says", [
    (8, 1, "8 gamma values for 6 factors"),
    (4, 1, "4 gamma values for 6 factors"),
    (6, 3, "3 phi values for 1 residual blocks"),
])
def test_wrong_parameter_sizes_are_refused_before_any_pattern_work(
        no_held_plan, amd_calls, entry, gammas, phis, says):
    held_d, _ = path_dataset(277)
    plan = sd.plan_for(held_d)
    d = one_block_trial()
    assert (len(d.factors), d.n_residual_blocks) == (6, 1)
    v = sd.VarianceParams(1.0, np.ones(gammas), np.ones(phis))
    with pytest.raises(SizeMismatchError, match=f"^{says}$"):
        entry(d, v)
    assert len(amd_calls) == 1
    assert sd.plan_for(held_d) is plan


def test_unknown_ordering_is_a_typed_error():
    d, path = path_dataset(251)
    with pytest.raises(InvalidParameterError, match="unknown ordering"):
        sd.reml_report(d, path[0], ordering="bogus")


def test_lower_keys_are_built_once_and_read_only():
    rng = np.random.default_rng(257)
    d = random_dataset(rng, n_obs=30, p=1, level_sizes=[4, 3], n_blocks=1)
    m = sd.assemble_mme(d, unit_params(d))
    f, zs = factor_pipeline(m)
    keys = f.sym.lower_keys
    assert zs.sym.lower_keys is keys
    assert not keys.flags.writeable
    assert keys[-1] == f.n * f.n and np.all(np.diff(keys) > 0)


def test_selinv_pattern_work_is_done_once_per_plan(no_held_plan, monkeypatch):
    d, path = path_dataset(263)
    plan = sd.analyze(d)
    seen = []
    real = sd.reml.selected_inverse

    def spying(f):
        zsel = real(f)
        seen.append((f.sym.selinv_sweep, f.sym.leaf_batches, f.sym.leaves))
        return zsel

    monkeypatch.setattr(sd.reml, "selected_inverse", spying)
    for v in path[:2]:
        plan.evaluate(v)
    (sweep, batches, leaves), again = seen
    assert again[0] is sweep and again[1] is batches and again[2] is leaves
    assert not (sweep.steps.flags.writeable or sweep.places.flags.writeable)
