"""Synthetic variety-trial generator: validation, determinism, structure."""

import io

import numpy as np
import pytest

import seldet as sd
from seldet.errors import InvalidConfigError


def small_config(**overrides):
    base = dict(years=4, centers=6, centers_per_year_fraction=0.5,
                control_varieties=3, new_varieties_per_year=4,
                mean_persistence=2.5, missing_fraction=0.1, seed=7)
    base.update(overrides)
    return sd.TrialConfig(**base)


def factor_by_name(d, name):
    for f in d.factors:
        if f.name == name:
            return f
    raise KeyError(name)


# ------------------------------------------------------------- validation


@pytest.mark.parametrize("overrides", [
    dict(years=0),
    dict(centers=0),
    dict(control_varieties=0),
    dict(new_varieties_per_year=-1),
    dict(centers_per_year_fraction=0.0),
    dict(centers_per_year_fraction=1.5),
    dict(mean_persistence=0.5),
    dict(missing_fraction=1.0),
    dict(missing_fraction=-0.1),
    dict(seed=-1),
    dict(variance_components={"bogus": 1.0}),
    dict(variance_components={"year": 0.0}),
    dict(variance_components={"year": -2.0}),
    dict(variance_components={"year": float("inf")}),
    dict(mean_persistence=float("nan")),
    dict(mean_persistence=float("inf")),
    dict(centers_per_year_fraction="x"),
    dict(mean_persistence=None),
    dict(missing_fraction=[0.1]),
    dict(variance_components={"year": "x"}),
])
def test_invalid_configs_rejected(overrides):
    with pytest.raises(InvalidConfigError):
        small_config(**overrides)


@pytest.mark.parametrize("overrides, field", [
    (dict(years=2.5), "years"),
    (dict(centers=4.5), "centers"),
    (dict(years="3"), "years"),
    (dict(control_varieties=3.0), "control_varieties"),
    (dict(new_varieties_per_year=None), "new_varieties_per_year"),
    (dict(seed=7.0), "seed"),
])
def test_counts_must_be_integers(overrides, field):
    with pytest.raises(InvalidConfigError, match=f"^{field} must be an integer"):
        small_config(**overrides)


def test_presets_are_well_formed():
    for name in sd.PRESETS:
        cfg = sd.preset_config(name)
        assert cfg.years >= 1 and cfg.centers >= 1
    with pytest.raises(InvalidConfigError):
        sd.preset_config("prob99")


# ------------------------------------------------------------ determinism


def render(d):
    buf = io.StringIO()
    sd.write_dataset(d, buf)
    return buf.getvalue()


def test_same_seed_same_bytes():
    assert render(sd.generate(small_config())) == \
        render(sd.generate(small_config()))


def test_different_seed_different_data():
    a = sd.generate(small_config(seed=7))
    b = sd.generate(small_config(seed=8))
    assert render(a) != render(b)


def test_variances_change_response_not_design():
    a = sd.generate(small_config())
    b = sd.generate(small_config(variance_components={"variety": 5.0}))
    assert not np.array_equal(a.y, b.y)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa.codes, fb.codes)  # design streams isolated


def test_missing_stream_is_isolated():
    # turning missingness off only adds rows; the thinned version is a
    # subset of roughly the expected size
    full = sd.generate(small_config(missing_fraction=0.0))
    thin = sd.generate(small_config(missing_fraction=0.3))
    n_full, n_thin = full.n_obs, thin.n_obs
    expected = 0.7 * n_full
    sigma = np.sqrt(n_full * 0.3 * 0.7)
    assert abs(n_thin - expected) < 4 * sigma


# --------------------------------------------------------------- structure


def test_terms_and_shapes():
    d = sd.generate(small_config())
    assert tuple(f.name for f in d.factors) == sd.RANDOM_TERMS
    assert d.x.shape == (d.n_obs, 1)
    assert np.all(d.x == 1.0)
    assert d.fixed_names == ("mean",)
    assert d.n_residual_blocks == 1


def test_every_level_is_observed():
    d = sd.generate(small_config())
    for f in d.factors:
        assert np.array_equal(np.unique(f.codes), np.arange(f.n_levels))


def test_controls_appear_in_every_year():
    cfg = small_config()
    d = sd.generate(cfg)
    years = factor_by_name(d, "year")
    varieties = factor_by_name(d, "variety")
    controls = set(varieties.labels[:cfg.control_varieties])
    for ycode in range(years.n_levels):
        seen = {varieties.labels[c]
                for c in varieties.codes[years.codes == ycode]}
        assert controls <= seen


def test_interaction_labels_are_consistent():
    d = sd.generate(small_config())
    year = factor_by_name(d, "year")
    variety = factor_by_name(d, "variety")
    yv = factor_by_name(d, "year.variety")
    for i in range(d.n_obs):
        expect = f"{year.labels[year.codes[i]]}:{variety.labels[variety.codes[i]]}"
        assert yv.labels[yv.codes[i]] == expect


def test_labels_sort_like_codes():
    # zero-padded labels keep lexicographic and numeric order identical,
    # which is what makes the file round-trip exact
    d = sd.generate(small_config(years=12, new_varieties_per_year=3))
    for f in d.factors:
        assert list(f.labels) == sorted(f.labels)


def test_summary_consistent_with_dataset():
    cfg = small_config()
    d = sd.generate(cfg)
    s = sd.design_summary(d)
    assert s.units == d.n_obs
    assert s.years == cfg.years
    assert s.centers <= cfg.centers
    assert s.varieties == factor_by_name(d, "variety").n_levels
    assert s.year_variety == factor_by_name(d, "year.variety").n_levels
    assert s.effects == d.p + sum(f.n_levels for f in d.factors)
    assert s.varieties_per_year == pytest.approx(s.year_variety / s.years)
    assert s.years_per_variety == pytest.approx(s.year_variety / s.varieties)
    assert s.obs_per_year_variety == pytest.approx(s.units / s.year_variety)


def test_generated_dataset_feeds_the_solver():
    d = sd.generate(small_config())
    v = sd.VarianceParams(sigma2=1.0, gamma=(1.0,) * len(d.factors),
                          phi=(1.0,))
    rep = sd.reml_report(d, v)
    assert np.isfinite(rep.loglik)
    assert rep.measured_ldlt_flops == rep.predicted_ldlt_flops


def test_degenerate_config_with_no_observations_rejected():
    # a 100%-missing config is caught at validation; an empty draw is
    # caught at generation: with this seed the one cell of a one-year,
    # one-center, one-variety trial is drawn missing
    with pytest.raises(InvalidConfigError):
        small_config(missing_fraction=1.0)
    with pytest.raises(InvalidConfigError, match="zero observations"):
        sd.generate(small_config(years=1, centers=1, control_varieties=1,
                                 new_varieties_per_year=0,
                                 missing_fraction=0.5, seed=1))


def test_unit_persistence_keeps_each_new_variety_one_year():
    cfg = small_config(mean_persistence=1.0, missing_fraction=0.0)
    d = sd.generate(cfg)
    years = factor_by_name(d, "year")
    varieties = factor_by_name(d, "variety")
    seen = [np.unique(years.codes[varieties.codes == k]).size
            for k in range(varieties.n_levels)]
    assert seen == ([cfg.years] * cfg.control_varieties
                    + [1] * (cfg.years * cfg.new_varieties_per_year))
