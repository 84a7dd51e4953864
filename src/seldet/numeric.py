"""Numeric LDL^T factorization on a precomputed symbolic pattern.

The matrix handed to the factorization has exactly the pattern that the
symbolic factor was analyzed on, and only its values are new: they are
scattered into L's storage through the slots that the analysis found
once (``SymbolicFactor.a_slots``).  A matrix with another pattern is
refused with PatternMismatchError.

The factorization is left-looking and runs one Python iteration per
column.  Column j of L is produced by applying the Schur updates of all
earlier columns k with L_jk != 0, then dividing by the pivot.  Column k
contributes L_jk times its pending segment (D L)[i, k], i >= j: the
storage range from the position of L_jk to the end of column k.  The row
structure of L (the positions of every L_jk, grouped by row j, k
ascending, with the end of each one's column) belongs to the symbolic
factor: ``SymbolicFactor.row_structure`` is built on its first
factorization and read by every later one, so a factorization does no
pattern work, and column j's segments are one slice of it.  They are
concatenated into one index array, gathered once, and scattered into the
dense workspace with one ``np.subtract.at``, which applies repeated rows
one after the other.  Its time is the volume it gathers, not its loop:
measured on prob1 under AMD, batching all leaf columns gained only about
10 % (0.098 to 0.086 s), ``np.bincount`` in place of ``np.subtract.at``
changed nothing, and a per-column multifrontal with extend-add was
slower (0.104 to 0.144 s).

A multiply-add counter is maintained and must come out equal to the
symbolic prediction sum(m_i^2) - n on every input.  It adds what the
loop performs: two FLOPs per gathered segment entry (one multiply, one
subtract) and one division per below-diagonal entry of each finalized
column.  The per-position products d_k * L_ik needed by the updates are
kept from the pre-division column values rather than recomputed, which
is what keeps the count exact.

The pivot policy is fixed: a pivot d_j <= 0 or not finite (the matrix is
not positive definite, or holds NaN or inf) stops the factorization, and
accepted pivots below 1e-13 * max |A_ii| are reported by one warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    NearSingularWarning,
    NonFiniteValueError,
    NonPositivePivotError,
    SizeMismatchError,
)
from .sparse_core import Permutation, SparseSymmetric
from .symbolic import SymbolicFactor

__all__ = ["LdlFactor", "ldlt_factorize", "log_det", "solve"]

# An accepted pivot below this times max |A_ii| is reported as near-singular.
NEAR_SINGULAR_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class LdlFactor:
    """Unit-lower-triangular L and diagonal D with PAP^T = LDL^T.

    ``l_values`` aligns with the strictly-lower symbolic pattern and, with
    ``d``, is all that :func:`solve` and the selected inversion read.  The
    matching entries of D*L that the factorization uses as update
    segments are a local of :func:`ldlt_factorize` and are not kept.
    """

    sym: SymbolicFactor
    l_values: np.ndarray
    d: np.ndarray
    flops: int

    @property
    def n(self) -> int:
        return self.sym.n

    @property
    def perm(self) -> Permutation:
        return self.sym.perm


def ldlt_factorize(a: SparseSymmetric, sym: SymbolicFactor) -> LdlFactor:
    """Factor PAP^T = LDL^T on the pattern prepared by ``sym``.

    ``a`` must have exactly the pattern ``sym`` was analyzed on (its
    ``col_ptr`` and ``row_idx`` equal ``sym.a_col_ptr``/``sym.a_row_idx``),
    with any values: ``a`` is never permuted as a whole, its values are
    scattered through the slots ``sym.a_slots`` into L's storage and the
    diagonal.  Any other pattern, a strict subpattern included, raises
    PatternMismatchError; store explicit zeros to keep one pattern across
    value changes.

    Raises NonPositivePivotError as soon as a pivot d_j <= 0 or is not
    finite.  Emits a single NearSingularWarning if any accepted pivot
    falls below 1e-13 * max |A_ii|.
    """
    sym.require_pattern(a)
    by_row, row_ptr, col_end = sym.row_structure
    n = sym.n
    colptr, rows = sym.l_col_ptr, sym.l_row_idx
    placed = np.zeros(rows.size + n)
    placed[sym.a_slots] = a.values
    # ld_values: column j is overwritten with (D L)[:, j] when it is
    # finalized, and the updates read finalized columns only.
    ld_values, a_diag = placed[:rows.size], placed[rows.size:]
    threshold = NEAR_SINGULAR_RTOL * float(np.max(np.abs(a_diag), initial=0.0))
    l_values = np.empty(rows.size)
    d = np.empty(n)
    x = np.zeros(n)

    col_start, row_start = colptr.tolist(), row_ptr.tolist()
    flops = 0

    for j in range(n):
        lo, hi = col_start[j], col_start[j + 1]
        pattern = rows[lo:hi]
        # load column j of PAP^T into the workspace; updates from earlier
        # columns touch only row j and the rows of this pattern
        x[pattern] = ld_values[lo:hi]
        x[j] = a_diag[j]

        # every segment (D L)[p_jk:end_k] that reaches row j, as one
        # index array: one gather, one scatter
        r0, r1 = row_start[j], row_start[j + 1]
        if r1 > r0:
            # index arithmetic in int64, whatever the row structure's
            # type: unsigned arithmetic would wrap or turn to floats
            p = by_row[r0:r1].astype(np.int64)
            lens = np.subtract(col_end[r0:r1], p, dtype=np.int64)
            ends = np.cumsum(lens)
            total = int(ends[-1])
            idx = np.arange(total) + np.repeat(p - (ends - lens), lens)
            np.subtract.at(x, rows[idx],
                           np.repeat(l_values[p], lens) * ld_values[idx])
            flops += 2 * total

        dj = float(x[j])
        if not (dj > 0.0 and math.isfinite(dj)):
            raise NonPositivePivotError(j, dj)
        d[j] = dj
        col = x[pattern]
        ld_values[lo:hi] = col
        l_values[lo:hi] = col / dj
        flops += hi - lo

    near = np.flatnonzero(d < threshold)
    if near.size:
        warnings.warn(
            f"{near.size} pivot(s) below the near-singular threshold "
            f"{threshold:g} (first at column {near[0]})",
            NearSingularWarning,
            stacklevel=2,
        )
    return LdlFactor(sym=sym, l_values=l_values, d=d, flops=flops)


def log_det(f: LdlFactor) -> float:
    """log det A = sum of log d_i (the factorization guarantees d_i > 0)."""
    return float(np.sum(np.log(f.d)))


def solve(f: LdlFactor, b: np.ndarray) -> np.ndarray:
    """Solve A x = b through the factor: x = P^T L^-T D^-1 L^-1 P b.

    A NaN or infinite entry of b raises NonFiniteValueError naming its
    index."""
    b = np.asarray(b, dtype=np.float64)
    n = f.n
    if b.shape != (n,):
        raise SizeMismatchError(f"right-hand side has shape {b.shape}, expected ({n},)")
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        k = int(bad[0])
        raise NonFiniteValueError(f"right-hand side b[{k}] = {float(b[k])!r}")
    perm = f.perm.perm
    colptr, rows = f.sym.l_col_ptr, f.sym.l_row_idx
    lv = f.l_values
    y = b[perm].copy()
    for j in range(n):
        lo, hi = colptr[j], colptr[j + 1]
        if hi > lo:
            y[rows[lo:hi]] -= y[j] * lv[lo:hi]
    y /= f.d
    for j in range(n - 1, -1, -1):
        lo, hi = colptr[j], colptr[j + 1]
        if hi > lo:
            y[j] -= lv[lo:hi] @ y[rows[lo:hi]]
    x = np.empty(n)
    x[perm] = y
    return x

