"""Restricted-likelihood quantities for variance-component mixed models.

The model is y = X tau + Z u + e with var(u) = sigma^2 * G and
var(e) = sigma^2 * R, where G and R are direct sums of scaled identity
blocks: each random grouping factor j contributes a gamma_j * I block to
G, each residual block k a phi_k * I block to R.  All the heavy lifting
runs through the mixed-model-equation matrix

    C = [[X'R^-1X, X'R^-1Z], [Z'R^-1X, Z'R^-1Z + G^-1]]

which is sparse, SPD for full-rank X and positive parameters, and of
dimension p + b.  The restricted log-likelihood, its log-determinant
derivative traces, and prediction-error variances are all functionals of
C's factorization and selected inverse.

C is linear in the inverse variance ratios: with kappa = (gamma, phi),

    C = sum_k B_k / kappa_k,   dC/d(kappa_k) = -B_k / kappa_k^2,

where B_k is the identity on factor k's block for a gamma and W'M_kW for
the 0/1 mask M_k of residual block k, W = [X, Z_1 ... Z_F].  One table,
built once per dataset structure, lists every structural entry of every
B_k with its slot in C's storage.  C's values are one ``bincount`` over
the slots, weighted by 1/kappa_k, and the log-det gradient
-tr(C^-1 B_k)/kappa_k^2 is one ``bincount`` over k, weighted by the
selected inverse at the same slots.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import IO, NamedTuple

import numpy as np

from .errors import (
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
from .numeric import LdlFactor, ldlt_factorize, log_det, solve
from .ordering import _named_order, resolve_ordering
from .selinv import SelectedInverse, selected_inverse
from .sparse_core import Permutation, SparseSymmetric, _from_lower_keys, _index_array
from .symbolic import SymbolicFactor, predict_flops, symbolic_factor

__all__ = [
    "RandomFactor",
    "MixedModelDataset",
    "VarianceParams",
    "MmeSystem",
    "assemble_mme",
    "restricted_loglik",
    "trace_product",
    "logdet_gradient",
    "pev_diagonal",
    "RemlReport",
    "RemlPlan",
    "analyze",
    "plan_for",
    "reml_report",
    "read_dataset",
    "write_dataset",
]

DENSE_FORM_LIMIT = 500


def _check_labels(labels: tuple[str, ...], owner: str):
    """Raise InvalidParameterError naming ``owner`` and the label if a
    label is given twice: a dataset file could not tell the two apart."""
    if len(set(labels)) < len(labels):
        twice = next(s for k, s in enumerate(labels) if s in labels[:k])
        raise InvalidParameterError(f"{owner}: {twice!r} is given twice")


@dataclass(frozen=True, eq=False)
class RandomFactor:
    """One grouping factor: a level code per observation."""

    name: str
    codes: np.ndarray  # int64, shape (n,), values in 0..n_levels-1
    n_levels: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        codes = _index_array(self.codes, f"factor {self.name} codes",
                             IndexOutOfRangeError)
        object.__setattr__(self, "codes", codes)
        if self.labels and len(self.labels) != self.n_levels:
            raise SizeMismatchError(f"factor {self.name}: label/level count mismatch")
        _check_labels(self.labels, f"factor {self.name}")


@dataclass(frozen=True, eq=False)
class MixedModelDataset:
    """Observations with fixed design, random grouping factors, and
    residual blocks.  X is dense (p is small in this model class); a NaN
    or inf in y or X raises NonFiniteValueError naming its index."""

    y: np.ndarray
    x: np.ndarray
    fixed_names: tuple[str, ...]
    factors: tuple[RandomFactor, ...]
    residual_codes: np.ndarray
    n_residual_blocks: int
    residual_labels: tuple[str, ...] = ()

    def __post_init__(self):
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        rc = _index_array(self.residual_codes, "residual_codes",
                          IndexOutOfRangeError)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "residual_codes", rc)
        n = y.size
        if x.ndim != 2 or x.shape[0] != n or rc.shape != (n,):
            raise SizeMismatchError("inconsistent dataset shapes")
        if len(self.fixed_names) != x.shape[1]:
            raise SizeMismatchError("fixed_names length != number of X columns")
        for f in self.factors:
            if f.codes.shape != (n,):
                raise SizeMismatchError(f"factor {f.name}: wrong length")
        if self.residual_labels and len(self.residual_labels) != self.n_residual_blocks:
            raise SizeMismatchError("residual label/block count mismatch")
        _check_labels(self.residual_labels, "residual blocks")
        for name, arr in (("y", y), ("x", x)):
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                at = tuple(bad[0].tolist())
                raise NonFiniteValueError(
                    f"{name}[{', '.join(map(str, at))}] = {float(arr[at])!r}")

    @property
    def n_obs(self) -> int:
        return int(self.y.size)

    @property
    def p(self) -> int:
        return int(self.x.shape[1])

    @property
    def b(self) -> int:
        return int(sum(f.n_levels for f in self.factors))

    def factor_offsets(self) -> list[int]:
        """Start index of each factor's block inside C (first block at p)."""
        offs = []
        at = self.p
        for f in self.factors:
            offs.append(at)
            at += f.n_levels
        return offs


@dataclass(frozen=True, eq=False)
class VarianceParams:
    """(sigma^2, gamma per random factor, phi per residual block).

    sigma2 is a number, gamma and phi each a number or a 1-D sequence of
    numbers.  Every value must be finite and strictly positive; anything
    else raises InvalidParameterError naming the field.
    """

    sigma2: float
    gamma: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name, ndim in (("sigma2", 0), ("gamma", 1), ("phi", 1)):
            try:
                vals = np.asarray(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(
                    f"{name} = {getattr(self, name)!r}: not numeric") from exc
            if vals.ndim > ndim:
                raise InvalidParameterError(
                    f"{name} has shape {vals.shape}; it must be a number"
                    + (" or a 1-D sequence" if ndim else ""))
            bad = np.flatnonzero(~(np.isfinite(vals) & (vals > 0)))
            if bad.size:
                where = f"{name}[{bad[0]}]" if ndim else name
                raise InvalidParameterError(
                    f"{where} = {float(vals.flat[bad[0]])!r}: variance "
                    "parameters must be finite and strictly positive")
            object.__setattr__(self, name,
                               np.atleast_1d(vals) if ndim else float(vals))

    def perturbed(self, index: int, factor: float) -> "VarianceParams":
        """Copy with the index-th (gamma..., phi...) entry scaled — the
        layout matches logdet_gradient's output order.  An index outside
        0..K-1 raises IndexOutOfRangeError."""
        kappa, k = np.concatenate([self.gamma, self.phi]), self.gamma.size
        if not 0 <= index < kappa.size:
            raise IndexOutOfRangeError(f"index {index} outside 0..{kappa.size - 1}")
        kappa[index] *= factor
        return VarianceParams(self.sigma2, kappa[:k], kappa[k:])


@dataclass(frozen=True, eq=False)
class MmeSystem:
    """The mixed-model equations C x = rhs at one parameter point.

    ``table`` is the dataset's template table (:class:`_Table`) and
    ``inv_kappa[k]`` = 1/kappa_k, gammas first then phis, named by
    ``template_names``: C = sum_k B_k / kappa_k.
    """

    C: SparseSymmetric
    rhs: np.ndarray
    table: _Table
    inv_kappa: np.ndarray
    template_names: tuple[str, ...]
    p: int
    b: int


def _code_counts(what: str, codes: np.ndarray, k: int) -> np.ndarray:
    """Observations per code 0..k-1; a code outside raises EmptyFactorError."""
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise EmptyFactorError(f"{what}: code outside 0..{k - 1}")
    return np.bincount(codes, minlength=k)


def _check_factors(d: MixedModelDataset):
    for f in d.factors:
        if f.n_levels <= 0:
            raise EmptyFactorError(f"factor {f.name} has no levels")
        counts = _code_counts(f"factor {f.name}", f.codes, f.n_levels)
        if np.any(counts == 0):
            empty = int(np.argmin(counts))
            raise EmptyFactorError(
                f"factor {f.name}: level {empty} has no observations")
    rc = _code_counts("residual blocks", d.residual_codes, d.n_residual_blocks)
    if np.any(rc == 0):
        raise EmptyFactorError("a residual block has no observations")


def _check_design(d: MixedModelDataset):
    _check_factors(d)
    if np.linalg.matrix_rank(d.x) < d.p:
        raise RankDeficientDesignError("fixed-effect design X is rank deficient")


class _Table(NamedTuple):
    """C = sum_k B_k / kappa_k as one table of the templates' entries.

    ``col_ptr``/``row_idx`` are C's stored pattern, in original indices.
    Each structural entry of each B_k is one row: its ``slot`` in C's
    storage, its template index ``which`` = k (gammas first, then phis)
    and its ``value``.  The rows are sorted by (k, slot).  Slots and k are
    held in the smallest unsigned type that fits them.
    """

    col_ptr: np.ndarray
    row_idx: np.ndarray
    slot: np.ndarray
    which: np.ndarray
    value: np.ndarray

    def c_matrix(self, inv_kappa: np.ndarray) -> SparseSymmetric:
        """C at the inverse ratios ``1/kappa``: one bincount over the slots."""
        vals = np.bincount(self.slot, weights=self.value * inv_kappa[self.which],
                           minlength=self.row_idx.size)
        return SparseSymmetric(self.col_ptr.size - 1, self.col_ptr,
                               self.row_idx, vals)


def _template_table(d: MixedModelDataset) -> _Table:
    """Build the template table of ``d``, one pair of W's columns at a
    time: W = [X, Z_1 ... Z_F] has p + F nonzeros per observation, one in
    each X column and one in each factor's block.

    Where two of them meet in an observation of residual block k, W'M_kW
    has a structural entry, their product summed over those observations.
    So C stores the whole lower X'X block, the whole block of every factor
    against X, each factor's diagonal and each pair of levels of two
    factors that share an observation, also where a value sums to zero.
    """
    n_obs, p = d.x.shape
    dim, nf, nb = p + d.b, len(d.factors), d.n_residual_blocks
    col = np.column_stack([np.broadcast_to(np.arange(p), (n_obs, p))]
                          + [off + f.codes for off, f in
                             zip(d.factor_offsets(), d.factors)])
    val = np.column_stack([d.x, np.ones((n_obs, nf))])
    rows = []  # (keys col * dim + row, which, values) of the table
    for t in range(p + nf):
        for s in range(t + 1):
            cells, inv = np.unique(
                (col[:, s] * dim + col[:, t]) * nb + d.residual_codes,
                return_inverse=True)
            rows.append((cells // nb, nf + cells % nb,
                         np.bincount(inv, weights=val[:, s] * val[:, t])))
    for fi, (off, f) in enumerate(zip(d.factor_offsets(), d.factors)):
        lev = off + np.arange(f.n_levels, dtype=np.int64)
        rows.append((lev * dim + lev, np.full(f.n_levels, fi),
                     np.ones(f.n_levels)))
    t_keys, which, value = (np.concatenate(c) for c in zip(*rows))
    del rows  # the pieces, before np.unique's own temporaries
    keys, slot = np.unique(t_keys, return_inverse=True)
    pattern = _from_lower_keys(dim, keys, np.zeros(keys.size))
    order = np.lexsort((slot, which))
    return _Table(pattern.col_ptr, pattern.row_idx,
                  slot[order].astype(np.min_scalar_type(keys.size)),
                  which[order].astype(np.min_scalar_type(nf + nb)),
                  value[order])


def _check_params(d: MixedModelDataset, v: VarianceParams):
    """Refuse ``v`` unless it has one gamma per factor of ``d`` and one
    phi per residual block."""
    if v.gamma.size != len(d.factors):
        raise SizeMismatchError(
            f"{v.gamma.size} gamma values for {len(d.factors)} factors")
    if v.phi.size != d.n_residual_blocks:
        raise SizeMismatchError(
            f"{v.phi.size} phi values for {d.n_residual_blocks} residual blocks")


def _system(table: _Table, d: MixedModelDataset,
            v: VarianceParams) -> MmeSystem:
    """The mixed-model equations of ``d`` at ``v``, with C from its
    template ``table`` and the right-hand side W'R^-1 y."""
    _check_params(d, v)
    inv_kappa = 1.0 / np.concatenate([v.gamma, v.phi])
    ry = (1.0 / v.phi[d.residual_codes]) * d.y
    rhs = np.concatenate(
        [d.x.T @ ry]
        + [np.bincount(f.codes, weights=ry, minlength=f.n_levels)
           for f in d.factors])
    return MmeSystem(C=table.c_matrix(inv_kappa), rhs=rhs, table=table,
                     inv_kappa=inv_kappa, template_names=_template_names(d),
                     p=d.p, b=d.b)


def _template_names(d: MixedModelDataset) -> tuple[str, ...]:
    res = d.residual_labels or map(str, range(d.n_residual_blocks))
    return tuple([f"gamma:{f.name}" for f in d.factors]
                 + [f"phi:{label}" for label in res])


def assemble_mme(d: MixedModelDataset, v: VarianceParams) -> MmeSystem:
    """Check ``d`` and build its mixed-model equations at ``v``."""
    _check_design(d)
    return _system(_template_table(d), d, v)


def _logdet_r(d: MixedModelDataset, v: VarianceParams) -> float:
    nk = np.bincount(d.residual_codes, minlength=d.n_residual_blocks)
    return float(nk @ np.log(v.phi))


def _logdet_g(d: MixedModelDataset, v: VarianceParams) -> float:
    bj = np.asarray([f.n_levels for f in d.factors], dtype=np.float64)
    return float(bj @ np.log(v.gamma))


def _ypy(d: MixedModelDataset, v: VarianceParams, rhs: np.ndarray,
         x: np.ndarray) -> float:
    """y'Py = y'R^-1 y - rhs' C^-1 rhs, given x = C^-1 rhs."""
    r = 1.0 / v.phi[d.residual_codes]
    return float(d.y @ (r * d.y) - rhs @ x)


def _loglik(d: MixedModelDataset, v: VarianceParams, ldc: float,
            ypy: float) -> float:
    n, p = d.x.shape
    return -0.5 * ((n - p) * math.log(v.sigma2) + ldc + _logdet_r(d, v)
                   + _logdet_g(d, v) + ypy / v.sigma2)


def restricted_loglik(d: MixedModelDataset, v: VarianceParams,
                      form: str = "c",
                      ordering: str | Permutation = "amd") -> float:
    """Restricted log-likelihood at the given parameter point.

    form="c" evaluates the sparse MME formulation

        -1/2 [ (n-p) ln sigma^2 + logdet C + logdet R + logdet G
               + y'Py / sigma^2 ],

    with y'Py = y'R^-1 y - rhs' C^-1 rhs, on the plan of
    :func:`plan_for`, so repeated calls on one dataset structure analyze
    it once.  form="h" evaluates the dense formulation
    -1/2 [ (n-p) ln sigma^2 + logdet H + logdet(X'H^-1X) + y'Py / sigma^2 ]
    with H = R + ZGZ', guarded to n <= 500; the two agree to rounding and
    the dense path exists as an oracle.
    """
    _check_params(d, v)
    n, p = d.x.shape
    if n <= p:
        raise SizeMismatchError(f"need n > p, got n = {n}, p = {p}")
    if form == "c":
        f, rhs = plan_for(d, ordering)._factorize(v)  # hashed by plan_for
        return _loglik(d, v, log_det(f), _ypy(d, v, rhs, solve(f, rhs)))
    if form == "h":
        if n > DENSE_FORM_LIMIT:
            raise TooLargeForDenseFormError(
                f"dense likelihood form limited to n <= {DENSE_FORM_LIMIT}")
        _check_factors(d)
        h = np.diag(v.phi[d.residual_codes]).astype(np.float64)
        for fi, f_ in enumerate(d.factors):
            same = f_.codes[:, None] == f_.codes[None, :]
            h += v.gamma[fi] * same
        sign, ldh = np.linalg.slogdet(h)
        if sign <= 0:
            raise RankDeficientDesignError("H is not positive definite")
        hinv_x = np.linalg.solve(h, d.x)
        xthx = d.x.T @ hinv_x
        sign2, ldxthx = np.linalg.slogdet(xthx)
        if sign2 <= 0:
            raise RankDeficientDesignError("X'H^-1X is not positive definite")
        hinv_y = np.linalg.solve(h, d.y)
        beta = np.linalg.solve(xthx, d.x.T @ hinv_y)
        py = hinv_y - hinv_x @ beta
        ypy = float(d.y @ py)
        return -0.5 * ((n - p) * math.log(v.sigma2) + ldh + ldxthx
                       + ypy / v.sigma2)
    raise InvalidParameterError(f"unknown form {form!r}; use 'c' or 'h'")


def _trace_weights(zsel: SelectedInverse, slots: np.ndarray) -> np.ndarray:
    """Z at ``slots`` of :meth:`SymbolicFactor.locate`, with the entries
    below the diagonal doubled: tr(Z B) is the sum, over B's stored
    lower-triangle entries, of each value times this at its slot.  Only
    the entries asked for are doubled."""
    z = np.concatenate([zsel.z_values, zsel.z_diag])[slots]
    z[slots < zsel.z_values.size] *= 2.0
    return z


def trace_product(zsel: SelectedInverse, b_mat: SparseSymmetric) -> float:
    """tr(C^-1 B) for a symmetric B on a subpattern of the selected inverse.

    Diagonal entries contribute once, off-diagonal structural entries
    twice (symmetry).  A structural entry of B off the selected pattern
    raises PatternNotCoveredError: that position of the inverse was never
    computed, which signals a modeling error upstream.
    """
    if b_mat.n != zsel.n:
        raise SizeMismatchError("dimension mismatch")
    rows, cols, vals = b_mat.triplets()
    slots = zsel.sym.locate(rows, cols)
    missing = np.flatnonzero(slots < 0)
    if missing.size:
        k = missing[0]
        raise PatternNotCoveredError(
            f"entry ({rows[k]},{cols[k]}) is outside the selected-inverse "
            "pattern")
    return float(_trace_weights(zsel, slots) @ vals)


def logdet_gradient(m: MmeSystem, zsel: SelectedInverse) -> np.ndarray:
    """d logdet(C) / d kappa for every variance ratio, gammas then phis.

    Component k is -tr(C^-1 B_k) / kappa_k^2: one bincount over the
    template indices of ``m.table``, each entry weighted by the selected
    inverse at its slot.  ``zsel`` must come from a factor analyzed on
    ``m.C``'s own pattern; any other pattern raises PatternMismatchError.
    """
    sym = zsel.sym
    sym.require_pattern(m.C)
    z = _trace_weights(zsel, sym.a_slots)
    t = m.table
    return -m.inv_kappa ** 2 * np.bincount(
        t.which, weights=t.value * z[t.slot], minlength=m.inv_kappa.size)


def pev_diagonal(zsel: SelectedInverse, sigma2: float) -> np.ndarray:
    """Prediction-error variances sigma^2 * diag(C^-1), original order."""
    out = np.empty(zsel.n)
    out[zsel.perm.perm] = sigma2 * zsel.z_diag
    return out


@dataclass(frozen=True, eq=False)
class RemlReport:
    """Everything the full pipeline produces at one parameter point.

    ``times`` gives the wall seconds of each phase of the call: assemble,
    ordering, symbolic, factorize, selinv and derivatives.  Ordering and
    symbolic read 0 when the call reused an earlier analysis.
    """

    loglik: float
    logdet_c: float
    logdet_r: float
    logdet_g: float
    ypy: float
    tau: np.ndarray
    u: np.ndarray
    gradient: np.ndarray
    gradient_names: tuple[str, ...]
    pev: np.ndarray
    dim: int
    nnz_c: int
    nnz_l: int
    predicted_ldlt_flops: int
    measured_ldlt_flops: int
    predicted_selinv_flops: int
    measured_selinv_flops: int
    times: dict[str, float]


@contextmanager
def _phase(times: dict[str, float], phase: str):
    """Add the wall seconds of the ``with`` body to ``times[phase]``: the
    one clock behind every phase time the library and the CLI report."""
    t0 = time.perf_counter()
    yield
    times[phase] = times.get(phase, 0.0) + time.perf_counter() - t0


def _order_and_analyze(a: SparseSymmetric, ordering: str | Permutation,
                       times: dict[str, float]) -> SymbolicFactor:
    """Order ``a`` and analyze its pattern, timed as ordering and symbolic."""
    with _phase(times, "ordering"):
        perm = resolve_ordering(ordering, a)
    with _phase(times, "symbolic"):
        return symbolic_factor(a, perm)


def _factor_and_invert(a: SparseSymmetric, sym: SymbolicFactor,
                       times: dict[str, float]
                       ) -> tuple[LdlFactor, SelectedInverse]:
    """Factor ``a`` on ``sym`` and take its selected inverse, timed as
    factorize and selinv."""
    with _phase(times, "factorize"):
        f = ldlt_factorize(a, sym)
    with _phase(times, "selinv"):
        return f, selected_inverse(f)


def _dataset_digest(d: MixedModelDataset) -> bytes:
    """Digest of the content that decides C's pattern: X, every factor's
    codes and level count, the residual codes and block count."""
    h = hashlib.sha256(repr((d.x.shape, [f.n_levels for f in d.factors],
                             d.n_residual_blocks)).encode())
    h.update(d.x)
    for f in d.factors:
        h.update(f.codes)
    h.update(d.residual_codes)
    return h.digest()


@dataclass(frozen=True, eq=False)
class RemlPlan:
    """The pattern work of the REML pipeline for one dataset structure.

    Built by :func:`analyze`; :meth:`evaluate` then does only the value
    work at each parameter point.  It holds, besides a reference to the
    dataset:

    - the permutation and the SymbolicFactor of C, with its lower keys
      (the smallest unsigned type for dim(C)^2, per stored entry of L),
      the slot of each stored entry of C in the factor's and selected
      inverse's storage (``sym.a_slots``, the smallest unsigned type for
      nnz(L)) and, after the first factorization, the supernodes, the
      updates each takes in from columns other than the leaves and the
      factorization's schedule over them (``sym.supernodes``,
      ``sym.block_updates``: 0.94 MB on the C of the benchmark's
      ``reml_fit``) and the layout through
      which the leaves' updates are applied before the factorization's
      loop and their selected inverse read after the sweep
      (``sym.leaves``, ``sym.leaf_batches``: 0.73 MB on the C of the
      benchmark's ``reml_fit``);
    - the template table (:class:`_Table`): C's pattern, one int64 per
      column and per stored entry, and one row per structural entry of
      every template, a slot (the smallest unsigned type for nnz(C)), a
      template index (one byte for up to 255 templates) and a float64.

    On a prob1 trial with one residual block (nnz(C) = 51 549, 54 847
    table rows) the table and the slots take 1.25 MB; with one block per
    year (12 blocks, 76 259 rows) 1.50 MB.  C's values are one bincount
    over the table's slots and the gradient one bincount over its
    template indices.

    The plan is for the dataset content it was analyzed on: evaluating it
    after X, a factor's codes or the residual codes were edited in place
    raises PatternMismatchError.  The check hashes that content; the
    private ``_factorize`` and ``_evaluate`` skip it for callers that
    have just hashed it to find the plan.
    """

    d: MixedModelDataset
    digest: bytes
    sym: SymbolicFactor
    table: _Table
    predicted_flops: tuple[int, int]

    def _require_current(self):
        if _dataset_digest(self.d) != self.digest:
            raise PatternMismatchError(
                "the dataset changed since it was analyzed; analyze it again")

    def factorize(self, v: VarianceParams) -> tuple[LdlFactor, np.ndarray]:
        """The LDL^T factor of C at ``v`` and the right-hand side."""
        self._require_current()
        return self._factorize(v)

    def _factorize(self, v: VarianceParams) -> tuple[LdlFactor, np.ndarray]:
        m = _system(self.table, self.d, v)
        return ldlt_factorize(m.C, self.sym), m.rhs

    def evaluate(self, v: VarianceParams) -> RemlReport:
        """Factor -> selected inverse -> REML quantities at ``v``.

        Per-phase wall times are informational only; both FLOP counters
        come with their symbolic predictions.
        """
        self._require_current()
        return self._evaluate(v)

    def _evaluate(self, v: VarianceParams) -> RemlReport:
        d = self.d
        times = {"ordering": 0.0, "symbolic": 0.0}
        with _phase(times, "assemble"):
            m = _system(self.table, d, v)
        f, zsel = _factor_and_invert(m.C, self.sym, times)
        with _phase(times, "derivatives"):
            x = solve(f, m.rhs)
            grad = logdet_gradient(m, zsel)

        ldc = log_det(f)
        ypy = _ypy(d, v, m.rhs, x)
        pred_ldlt, pred_selinv = self.predicted_flops
        return RemlReport(
            loglik=_loglik(d, v, ldc, ypy),
            logdet_c=ldc,
            logdet_r=_logdet_r(d, v),
            logdet_g=_logdet_g(d, v),
            ypy=ypy,
            tau=x[:d.p],
            u=x[d.p:],
            gradient=grad,
            gradient_names=m.template_names,
            pev=pev_diagonal(zsel, v.sigma2),
            dim=m.C.n,
            nnz_c=m.C.nnz,
            nnz_l=self.sym.nnz_L,
            predicted_ldlt_flops=pred_ldlt,
            measured_ldlt_flops=f.flops,
            predicted_selinv_flops=pred_selinv,
            measured_selinv_flops=zsel.flops,
            times=times,
        )


def _check_dataset(d: MixedModelDataset):
    """Refuse a dataset that has no plan: n <= p or a bad design."""
    n, p = d.x.shape
    if n <= p:
        raise SizeMismatchError(f"need n > p, got n = {n}, p = {p}")
    _check_design(d)


def _analyze(d: MixedModelDataset, ordering: str | Permutation,
             digest: bytes, times: dict[str, float]) -> RemlPlan:
    """The plan of ``d`` (checked by :func:`_check_dataset`) under
    ``ordering``, its analysis timed into ``times`` as assemble (the
    table), ordering and symbolic."""
    with _phase(times, "assemble"):
        table = _template_table(d)
        c_mat = table.c_matrix(np.ones(len(d.factors) + d.n_residual_blocks))
    sym = _order_and_analyze(c_mat, ordering, times)
    predicted = predict_flops(sym)
    return RemlPlan(d=d, digest=digest, sym=sym, table=table,
                    predicted_flops=predicted)


def analyze(d: MixedModelDataset,
            ordering: str | Permutation = "amd") -> RemlPlan:
    """Check the dataset, order C and analyze its pattern once.

    ``ordering`` is anything :func:`resolve_ordering` takes.  The result
    evaluates the REML quantities at any parameter point of this dataset
    structure without repeating the ordering or the symbolic analysis.
    """
    _check_dataset(d)
    return _analyze(d, ordering, _dataset_digest(d), {})


# The one plan held between calls, with its key: (dataset digest, "amd" or
# the bytes of the permutation the spec names).  A list so that it is
# emptied in place before a new analysis.
_held: list[tuple[tuple, RemlPlan]] = []


def _held_plan(d: MixedModelDataset, ordering: str | Permutation,
               times: dict[str, float]) -> RemlPlan:
    """The held plan when its key matches, else a new analysis, timed into
    ``times``, which replaces it."""
    named = _named_order(ordering, d.p + d.b)
    key = (_dataset_digest(d),
           named if isinstance(named, str) else named.perm.tobytes())
    if _held and _held[0][0] == key:
        plan = _held[0][1]
        if plan.d is not d:  # same structure; y and the labels may differ
            plan = replace(plan, d=d)
            _held[0] = (key, plan)
        return plan
    # a refused dataset leaves the held plan in place
    _check_dataset(d)
    _held.clear()  # so that the old plan is freed before the new one is built
    plan = _analyze(d, named, key[0], times)
    _held.append((key, plan))
    return plan


def plan_for(d: MixedModelDataset,
             ordering: str | Permutation = "amd") -> RemlPlan:
    """The plan of ``d``'s structure under ``ordering``, analyzed at most
    once in a row.

    One plan is held between calls, keyed by the content that decides it
    (X, each factor's codes and level count, the residual codes and block
    count, and ``"amd"`` or the permutation that the ordering names),
    never by object identity.  A call with another key frees the held plan and
    analyzes anew.
    """
    return _held_plan(d, ordering, {})


def reml_report(d: MixedModelDataset, v: VarianceParams,
                ordering: str | Permutation = "amd") -> RemlReport:
    """Assemble -> order -> factor -> selected inverse -> REML quantities.

    One call covering the whole pipeline; the ordering and the symbolic
    analysis come from :func:`plan_for`, so along a fit path on one
    dataset only the first call pays for them.
    """
    _check_params(d, v)  # before any pattern work
    times: dict[str, float] = {}
    rep = _held_plan(d, ordering, times)._evaluate(v)  # hashed by _held_plan
    for phase, seconds in times.items():
        rep.times[phase] += seconds
    return rep


# ---------------------------------------------------------------------------
# Dataset file format: tab-separated, UTF-8, one header row.  Column roles
# are carried by the header: `response` (exactly one), `fixed:<name>`
# (numeric covariate columns, typically a constant 1 for the grand mean),
# `random:<name>` (level labels), and `resblock` (residual-block labels,
# optional — one shared block when absent).  Missing values are not in
# scope, so the token NA is rejected outright.


def write_dataset(d: MixedModelDataset, stream: IO[str]):
    """Write ``d`` in the dialect that :func:`read_dataset` reads.

    Anything the file could not give back raises InvalidParameterError
    before a byte is written: a name or label holding a tab, CR or LF, a
    label ``NA`` (read as a missing value), or two columns of one name.
    """
    header = (["response"]
              + [f"fixed:{name}" for name in d.fixed_names]
              + [f"random:{f.name}" for f in d.factors]
              + ["resblock"])
    res_labels = d.residual_labels or tuple(map(str, range(d.n_residual_blocks)))
    factor_labels = [f.labels or tuple(map(str, range(f.n_levels)))
                     for f in d.factors]
    owners = ["column", "residual blocks"] + [f"factor {f.name}" for f in d.factors]
    for owner, words in zip(owners, [header, res_labels, *factor_labels]):
        for word in words:
            if word == "NA" or any(c in word for c in "\t\r\n"):
                raise InvalidParameterError(
                    f"{owner}: {word!r} cannot be read back from a dataset file")
    _check_labels(header, "dataset columns")
    stream.write("\t".join(header) + "\n")
    for i in range(d.n_obs):
        parts = [f"{d.y[i]:.17g}"]
        parts += [f"{d.x[i, c]:.17g}" for c in range(d.p)]
        parts += [factor_labels[fi][f.codes[i]]
                  for fi, f in enumerate(d.factors)]
        parts.append(res_labels[d.residual_codes[i]])
        stream.write("\t".join(parts) + "\n")


def _encode_labels(column: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    labels, codes = np.unique(np.asarray(column), return_inverse=True)
    return codes.astype(np.int64), tuple(str(s) for s in labels)


def read_dataset(stream: IO[str]) -> MixedModelDataset:
    """Parse the tab-separated dataset dialect written by write_dataset.

    ``response`` comes first; the other columns may come in any order, as
    each field is read by its header role.  A response or fixed-column
    value that is NaN or infinite raises NonFiniteValueError naming its
    line and column.
    """
    header_line = stream.readline()
    if not header_line:
        raise ParseError("empty dataset stream")
    header = header_line.rstrip("\n").split("\t")
    if header.count("response") != 1 or header[0] != "response":
        raise ParseError("first column must be 'response'")
    if len(set(header)) != len(header):
        raise ParseError("dataset header names a column twice")
    # each role's column positions, in header order
    fixed_names, fixed_at = [], []
    random_names, random_at = [], []
    res_at = None
    for c, tok in enumerate(header[1:], start=1):
        if tok.startswith("fixed:"):
            fixed_names.append(tok[len("fixed:"):])
            fixed_at.append(c)
        elif tok.startswith("random:"):
            random_names.append(tok[len("random:"):])
            random_at.append(c)
        elif tok == "resblock":
            res_at = c
        else:
            raise ParseError(f"unrecognized dataset column {tok!r}")
    num_at = [0] + fixed_at
    ncol = len(header)
    y_raw: list[float] = []
    fixed_rows: list[list[float]] = []
    random_raw: list[list[str]] = [[] for _ in random_names]
    res_raw: list[str] = []
    for lineno, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != ncol:
            raise ParseError(f"line {lineno}: expected {ncol} columns, got {len(parts)}")
        if "NA" in parts:
            raise ParseError(f"line {lineno}: missing values (NA) are not supported")
        try:
            nums = [float(parts[c]) for c in num_at]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad numeric field") from exc
        bad = [c for c, x in zip(num_at, nums) if not math.isfinite(x)]
        if bad:
            raise NonFiniteValueError(
                f"line {lineno}: column {header[bad[0]]!r} has the value "
                f"{parts[bad[0]]!r}")
        y_raw.append(nums[0])
        fixed_rows.append(nums[1:])
        for col, c in zip(random_raw, random_at):
            col.append(parts[c])
        res_raw.append(parts[res_at] if res_at is not None else "0")
    n = len(y_raw)
    if n == 0:
        raise ParseError("dataset has no observations")
    x = (np.asarray(fixed_rows, dtype=np.float64)
         if fixed_names else np.ones((n, 1)))
    if not fixed_names:
        fixed_names = ["mean"]
    factors = []
    for name, col in zip(random_names, random_raw):
        codes, labels = _encode_labels(col)
        factors.append(RandomFactor(name=name, codes=codes,
                                    n_levels=len(labels), labels=labels))
    res_codes, res_labels = _encode_labels(res_raw)
    return MixedModelDataset(
        y=np.asarray(y_raw),
        x=x,
        fixed_names=tuple(fixed_names),
        factors=tuple(factors),
        residual_codes=res_codes,
        n_residual_blocks=len(res_labels),
        residual_labels=res_labels,
    )
