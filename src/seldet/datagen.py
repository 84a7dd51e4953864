"""Synthetic variety-trial datasets with a three-way crossed structure.

A trial program runs for a number of years over a pool of centers; each
year uses a sampled subset of the centers.  Control varieties appear in
every year, test varieties enter in some year and persist for a random
number of consecutive years.  One observation is the yield of one variety
in one (year, center) trial, with a fraction of the cells lost.  Fitting
a grand mean plus six random terms (year, center, variety and their three
two-way interactions) over such data produces mixed-model equations whose
size and sparsity scale the way the factorization benchmarks need,
without shipping any real trial data.

Generation is a pure function of the config: every stochastic subsystem
(center sampling, variety lifetimes, missingness, each effect vector,
residuals) draws from its own stream spawned from the one seed, so e.g.
changing the missingness rate does not perturb the variety lifetimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .reml import MixedModelDataset, RandomFactor

__all__ = [
    "RANDOM_TERMS",
    "TrialConfig",
    "generate",
    "DesignSummary",
    "design_summary",
    "PRESETS",
    "preset_config",
]

RANDOM_TERMS = ("year", "center", "variety",
                "year.center", "year.variety", "variety.center")


def _default_variances() -> dict[str, float]:
    return {term: 1.0 for term in RANDOM_TERMS}


@dataclass(frozen=True)
class TrialConfig:
    years: int
    centers: int
    centers_per_year_fraction: float
    control_varieties: int
    new_varieties_per_year: int
    mean_persistence: float
    missing_fraction: float
    variance_components: dict[str, float] = field(default_factory=_default_variances)
    seed: int = 20240901

    def __post_init__(self):
        for name, least in (("years", 1), ("centers", 1),
                            ("control_varieties", 1),
                            ("new_varieties_per_year", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or value < least:
                raise InvalidConfigError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        if not 0.0 < self.centers_per_year_fraction <= 1.0:
            raise InvalidConfigError("centers_per_year_fraction must be in (0, 1]")
        if not 1.0 <= self.mean_persistence < math.inf:
            raise InvalidConfigError(
                "mean_persistence must be a finite number >= 1 (years)")
        if not 0.0 <= self.missing_fraction < 1.0:
            raise InvalidConfigError("missing_fraction must be in [0, 1)")
        merged = _default_variances()
        for key, val in self.variance_components.items():
            if key not in merged:
                raise InvalidConfigError(f"unknown random term {key!r}")
            if not 0 < val < math.inf:
                raise InvalidConfigError(
                    f"variance for {key!r} must be positive and finite")
            merged[key] = float(val)
        object.__setattr__(self, "variance_components", merged)


def _poisson_by_inversion(lam: float, u: float) -> int:
    """Smallest k with Poisson(lam) CDF >= u; exact and portable for the
    small means used here."""
    if lam <= 0.0:
        return 0
    p = math.exp(-lam)
    cdf = p
    k = 0
    while u > cdf:
        k += 1
        p *= lam / k
        cdf += p
        if k > 10_000:  # cdf stalled at 1.0 - epsilon for u ~ 1
            break
    return k


def generate(config: TrialConfig) -> MixedModelDataset:
    """Simulate one dataset; deterministic for a fixed config."""
    yrs, ctr = config.years, config.centers
    n_ctrl = config.control_varieties
    n_new = config.new_varieties_per_year
    ss = np.random.SeedSequence(config.seed)
    (s_centers, s_life, s_miss, s_year, s_center, s_variety,
     s_yc, s_yv, s_vc, s_resid) = ss.spawn(10)
    rng_centers = np.random.default_rng(s_centers)
    rng_life = np.random.default_rng(s_life)
    rng_miss = np.random.default_rng(s_miss)

    cpy = math.ceil(config.centers_per_year_fraction * ctr)
    centers_by_year = [np.sort(rng_centers.choice(ctr, size=cpy, replace=False))
                       for _ in range(yrs)]

    # Controls live everywhere; each test variety gets one lifetime draw,
    # in (entry year, slot) order, and occupies a run of consecutive years.
    active: list[list[int]] = [list(range(n_ctrl)) for _ in range(yrs)]
    vid = n_ctrl
    for year in range(yrs):
        for _ in range(n_new):
            life = 1 + _poisson_by_inversion(config.mean_persistence - 1.0,
                                             rng_life.random())
            for yy in range(year, min(year + life, yrs)):
                active[yy].append(vid)
            vid += 1
    n_variety_ids = vid

    ys: list[int] = []
    cs: list[int] = []
    vs: list[int] = []
    miss = config.missing_fraction
    for year in range(yrs):
        for center in centers_by_year[year]:
            for variety in active[year]:
                if rng_miss.random() < miss:
                    continue
                ys.append(year)
                cs.append(int(center))
                vs.append(variety)
    if not ys:
        raise InvalidConfigError(
            "configuration produced zero observations (missingness too high?)")
    ya = np.asarray(ys, dtype=np.int64)
    ca = np.asarray(cs, dtype=np.int64)
    va = np.asarray(vs, dtype=np.int64)
    n = ya.size

    wy = len(str(max(yrs - 1, 0)))
    wc = len(str(max(ctr - 1, 0)))
    wv = len(str(max(n_variety_ids - 1, 0)))

    def lab_y(k: int) -> str:
        return f"y{k:0{wy}d}"

    def lab_c(k: int) -> str:
        return f"c{k:0{wc}d}"

    def lab_v(k: int) -> str:
        return f"v{k:0{wv}d}"

    term_keys = {
        "year": (ya, lab_y),
        "center": (ca, lab_c),
        "variety": (va, lab_v),
        "year.center": (ya * ctr + ca,
                        lambda k: f"{lab_y(k // ctr)}:{lab_c(k % ctr)}"),
        "year.variety": (ya * n_variety_ids + va,
                         lambda k: f"{lab_y(k // n_variety_ids)}:{lab_v(k % n_variety_ids)}"),
        "variety.center": (va * ctr + ca,
                           lambda k: f"{lab_v(k // ctr)}:{lab_c(k % ctr)}"),
    }
    effect_streams = {
        "year": s_year, "center": s_center, "variety": s_variety,
        "year.center": s_yc, "year.variety": s_yv, "variety.center": s_vc,
    }

    factors = []
    y_values = np.zeros(n)
    for term in RANDOM_TERMS:
        keys, labeler = term_keys[term]
        unique_keys, codes = np.unique(keys, return_inverse=True)
        labels = tuple(labeler(int(k)) for k in unique_keys)
        factors.append(RandomFactor(name=term, codes=codes.astype(np.int64),
                                    n_levels=len(labels), labels=labels))
        sd = math.sqrt(config.variance_components[term])
        effects = np.random.default_rng(effect_streams[term]).standard_normal(
            len(labels)) * sd
        y_values += effects[codes]
    y_values += np.random.default_rng(s_resid).standard_normal(n)  # unit residual

    return MixedModelDataset(
        y=y_values,
        x=np.ones((n, 1)),
        fixed_names=("mean",),
        factors=tuple(factors),
        residual_codes=np.zeros(n, dtype=np.int64),
        n_residual_blocks=1,
        residual_labels=("all",),
    )


@dataclass(frozen=True)
class DesignSummary:
    """Level counts and ratios in the usual trial-program table layout."""

    years: int
    centers: int
    varieties: int
    year_center: int
    year_variety: int
    variety_center: int
    units: int
    effects: int  # p + b: grand mean plus every random-effect level
    varieties_per_year: float
    years_per_variety: float
    obs_per_year_variety: float


def design_summary(d: MixedModelDataset) -> DesignSummary:
    levels = {f.name: f.n_levels for f in d.factors}
    units = d.n_obs
    yv = levels["year.variety"]
    return DesignSummary(
        years=levels["year"],
        centers=levels["center"],
        varieties=levels["variety"],
        year_center=levels["year.center"],
        year_variety=yv,
        variety_center=levels["variety.center"],
        units=units,
        effects=d.p + d.b,
        varieties_per_year=yv / levels["year"],
        years_per_variety=yv / levels["variety"],
        obs_per_year_variety=units / yv,
    )


# Benchmark ladder: the first rung is sized like the smallest published
# trial-program benchmark (12 years, 22 centers, half used per year,
# ~130 varieties, ~6700 plots); later rungs scale every axis up so that
# nnz(L) grows monotonically through the ladder.
PRESETS: dict[str, dict] = {
    "prob1": dict(years=12, centers=22, centers_per_year_fraction=0.5,
                  control_varieties=10, new_varieties_per_year=10,
                  mean_persistence=5.5, missing_fraction=0.10),
    "prob2": dict(years=14, centers=28, centers_per_year_fraction=0.5,
                  control_varieties=12, new_varieties_per_year=13,
                  mean_persistence=5.5, missing_fraction=0.10),
    "prob3": dict(years=16, centers=34, centers_per_year_fraction=0.5,
                  control_varieties=14, new_varieties_per_year=17,
                  mean_persistence=5.5, missing_fraction=0.10),
    "prob4": dict(years=18, centers=42, centers_per_year_fraction=0.5,
                  control_varieties=16, new_varieties_per_year=22,
                  mean_persistence=5.5, missing_fraction=0.10),
    "prob5": dict(years=20, centers=52, centers_per_year_fraction=0.5,
                  control_varieties=18, new_varieties_per_year=28,
                  mean_persistence=5.5, missing_fraction=0.10),
}


def preset_config(name: str, seed: int = TrialConfig.seed) -> TrialConfig:
    """A TrialConfig for one rung of the benchmark ladder."""
    try:
        kwargs = PRESETS[name]
    except KeyError:
        raise InvalidConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return TrialConfig(seed=seed, **kwargs)
