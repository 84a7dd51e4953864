"""The benchmark's workloads: inputs from a seed, one operation, its outputs.

A workload draws its inputs deterministically from the workload seed,
and the harness times ``op`` on one of them.  ``outputs`` then gathers,
outside the timed window, the objects the output checks read.  Every call
into the program goes through an attribute of the ``seldet`` package at
call time, so that the hooks in ``tracer.py`` see it.

Inputs whose reference values were recorded come from fixed pools, and
the workload seed picks which pool entries a run uses and in what order:
``reference.json`` holds the values recorded for each pool entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
from typing import Iterator, NamedTuple

import numpy as np

import seldet as sd

COLD_POOL = 64          # datasets, one per reml_cold operation
COLD_SEED0 = 1000
FIT_SEED = 2000         # the one reml_fit dataset
FIT_PATH = 32           # parameter points on its fit path
FIT_STEP = 0.1          # log-scale step of the path's random walk
FIELD_SIDE = 72         # the field is FIELD_SIDE x FIELD_SIDE plots
TINY_FIELD_SIDE = 6
# A trial small enough for the benchmark's own tests and its warm-up.
TINY_TRIAL = dict(years=3, centers=4, centers_per_year_fraction=1.0,
                  control_varieties=3, new_varieties_per_year=2,
                  mean_persistence=2.0, missing_fraction=0.1)


class Input(NamedTuple):
    key: str        # names the input in reference.json
    data: tuple     # what ``op`` receives
    expected: dict | None = None  # reference values known in closed form


class Outputs(NamedTuple):
    c: sd.SparseSymmetric           # the factored matrix, original order
    factor: sd.LdlFactor
    zsel: sd.SelectedInverse
    values: dict                    # compared with the reference values
    counters: tuple = ()            # (what, measured, forecast) reported by the op


def _trial(tiny: bool, seed: int) -> sd.TrialConfig:
    if tiny:
        return sd.TrialConfig(seed=seed, **TINY_TRIAL)
    return sd.preset_config("prob1", seed=seed)


def _factor_and_inverse(c: sd.SparseSymmetric, captured: dict):
    """The factor and selected inverse the operation computed, or, if the
    hooks did not see them, the same quantities computed again."""
    if "selinv.selected_inverse" in captured:
        (factor, *_), zsel = captured["selinv.selected_inverse"]
        return factor, zsel
    factor = sd.ldlt_factorize(c, sd.symbolic_factor(c, sd.amd_order(c)))
    return factor, sd.selected_inverse(factor)


class _Reml:
    """One ``reml_report`` with the default (AMD) ordering."""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.prefix = "tiny" if tiny else "prob1"

    def op(self, data):
        d, v = data
        return sd.reml_report(d, v)

    def outputs(self, inp: Input, rep, captured: dict) -> Outputs:
        d, v = inp.data
        c = sd.assemble_mme(d, v).C
        factor, zsel = _factor_and_inverse(c, captured)
        return Outputs(
            c, factor, zsel,
            {"loglik": rep.loglik, "logdet_c": rep.logdet_c,
             "gradient": rep.gradient.tolist()},
            (("reml_report measured ldlt flops", rep.measured_ldlt_flops,
              rep.predicted_ldlt_flops),
             ("reml_report measured selinv flops", rep.measured_selinv_flops,
              rep.predicted_selinv_flops)))


class RemlCold(_Reml):
    """A new dataset for every operation, at unit variance ratios."""

    name = "reml_cold"

    def _input(self, k: int) -> Input:
        seed = COLD_SEED0 + k
        d = sd.generate(_trial(self.tiny, seed))
        v = sd.VarianceParams(1.0, np.ones(len(d.factors)),
                              np.ones(d.n_residual_blocks))
        return Input(f"{self.prefix}/seed={seed}", (d, v))

    def pool(self) -> Iterator[Input]:
        return (self._input(k) for k in range(COLD_POOL))

    def inputs(self, seed: int) -> Iterator[Input]:
        order = np.random.default_rng(seed).permutation(COLD_POOL)
        return (self._input(int(order[i % COLD_POOL]))
                for i in itertools.count())


def per_year_dataset(tiny: bool, seed: int) -> sd.MixedModelDataset:
    """A generated trial with one residual block per year."""
    base = sd.generate(_trial(tiny, seed))
    year = next(f for f in base.factors if f.name == "year")
    return dataclasses.replace(base, residual_codes=year.codes,
                               n_residual_blocks=year.n_levels,
                               residual_labels=year.labels)


def fit_path(d: sd.MixedModelDataset, seed: int) -> list[sd.VarianceParams]:
    """Seeded random walk of (gamma, phi) on the log scale from unit ratios,
    standing in for the iterates of a REML fit."""
    k = len(d.factors)
    steps = FIT_STEP * np.random.default_rng(seed).standard_normal(
        (FIT_PATH, k + d.n_residual_blocks))
    theta = np.exp(np.cumsum(steps, axis=0))
    return [sd.VarianceParams(1.0, t[:k], t[k:]) for t in theta]


class RemlFit(_Reml):
    """One dataset with a residual block per year, evaluated along a fit
    path: the values change from one operation to the next, the pattern
    does not, and the same dataset object is passed every time.  The
    workload seed picks where on the path a run starts."""

    name = "reml_fit"

    def pool(self) -> Iterator[Input]:
        d = per_year_dataset(self.tiny, FIT_SEED)
        for t, v in enumerate(fit_path(d, FIT_SEED)):
            yield Input(f"{self.prefix}/seed={FIT_SEED}/t={t}", (d, v))

    def inputs(self, seed: int) -> Iterator[Input]:
        points = list(self.pool())
        start = seed % FIT_PATH
        return (points[(start + i) % FIT_PATH] for i in itertools.count())


def ar1_precision(m: int, rho: float):
    """All entries of the tridiagonal inverse of the unit-variance AR1
    correlation matrix rho^|i-j| of order m, both triangles."""
    i = np.arange(m, dtype=np.int64)
    diag = np.full(m, 1.0 + rho * rho)
    diag[[0, -1]] = 1.0
    rows = np.concatenate([i, i[1:], i[:-1]])
    cols = np.concatenate([i, i[:-1], i[1:]])
    vals = np.concatenate([diag, np.full(2 * (m - 1), -rho)]) / (1.0 - rho * rho)
    return rows, cols, vals


def field_precision(m: int, rho_row: float, rho_col: float) -> sd.SparseSymmetric:
    """Precision of an m x m AR1 (x) AR1 field, plot (r, c) at index c*m + r:
    the Kronecker product of two tridiagonals, a 9-point mesh pattern."""
    rr, cr, vr = ar1_precision(m, rho_row)
    rc, cc, vc = ar1_precision(m, rho_col)
    rows = (rc[:, None] * m + rr[None, :]).ravel()
    cols = (cc[:, None] * m + cr[None, :]).ravel()
    vals = np.outer(vc, vr).ravel()
    low = rows >= cols
    return sd.from_coo_arrays(m * m, rows[low], cols[low], vals[low])


def field_log_det(m: int, rho_row: float, rho_col: float) -> float:
    """log det of field_precision in closed form: an AR1 correlation matrix
    of order m has determinant (1 - rho^2)^(m-1), and
    det(A (x) B) = det(A)^m det(B)^m for two factors of order m."""
    return -m * (m - 1) * (np.log1p(-rho_row ** 2) + np.log1p(-rho_col ** 2))


class FieldResult(NamedTuple):
    a: sd.SparseSymmetric
    factor: sd.LdlFactor
    zsel: sd.SelectedInverse
    log_det: float


class FieldSelinv:
    """The ``seldet selinv`` sequence on a spatial field precision read
    from Matrix Market text; the correlations come from the seed."""

    name = "field_selinv"

    def __init__(self, tiny: bool = False):
        self.m = TINY_FIELD_SIDE if tiny else FIELD_SIDE
        self.key = f"field/m={self.m}"

    def _input(self, seed: int) -> Input:
        rho_row, rho_col = np.random.default_rng(seed).uniform(0.2, 0.8, 2)
        buf = io.StringIO()
        sd.write_matrix_market(field_precision(self.m, rho_row, rho_col), buf)
        return Input(self.key, (buf.getvalue(),),
                     {"log_det": field_log_det(self.m, rho_row, rho_col)})

    def pool(self) -> Iterator[Input]:
        return iter([self._input(0)])

    def inputs(self, seed: int) -> Iterator[Input]:
        return itertools.repeat(self._input(seed))

    def op(self, data) -> FieldResult:
        (text,) = data
        a = sd.read_matrix_market(text)
        perm = sd.amd_order(a)
        sym = sd.symbolic_factor(a, perm)
        factor = sd.ldlt_factorize(a, sym)
        zsel = sd.selected_inverse(factor)
        return FieldResult(a, factor, zsel, sd.log_det(factor))

    def outputs(self, inp: Input, res: FieldResult, captured: dict) -> Outputs:
        return Outputs(res.a, res.factor, res.zsel, {"log_det": res.log_det})


WORKLOADS = {w.name: w for w in (RemlCold, RemlFit, FieldSelinv)}


def fingerprint(out: Outputs) -> dict:
    """Sizes, both work forecasts and a hash of the fill-reducing
    permutation: a changed ordering shows here even when every check
    still passes."""
    sym = out.zsel.sym
    ldlt, selinv = sd.predict_flops(sym)
    digest = hashlib.sha256(sym.perm.perm.astype("<i8").tobytes()).hexdigest()
    return {"dim": sym.n, "nnz_C": out.c.nnz, "nnz_L": sym.nnz_L,
            "ldlt_forecast": ldlt, "selinv_forecast": selinv,
            "perm_sha256": digest[:16]}
