"""Numeric LDL^T factorization on a precomputed symbolic pattern.

The matrix handed to the factorization has exactly the pattern that the
symbolic factor was analyzed on, and only its values are new: they are
scattered into L's storage through the slots that the analysis found
once (``SymbolicFactor.a_slots``).  A matrix with another pattern is
refused with PatternMismatchError.

The factorization is left-looking.  Column j of L is produced by
applying the Schur updates of all earlier columns k with L_jk != 0, then
dividing by the pivot.  Column k contributes L_jk times its pending
segment (D L)[i, k], i >= j: the storage range from the position of L_jk
to the end of column k.  The leaves and the twigs (below) are done before
the loop, which runs one Python iteration per other fundamental
supernode (``SymbolicFactor.supernodes``): 446 of the 3 009 supernodes
of the C of the benchmark's ``reml_fit`` under AMD.

Every supernode of the loop reads the columns that update it, leaves
left out, from ``SymbolicFactor.block_updates``.  For a single column j
that is the position of every such L_jk, k ascending, with the length of
each one's segment.  It gathers those segments as one index array and
scatters them into a dense workspace with one ``np.subtract.at``, which
applies repeated rows one after the other.  Its time is the volume it
gathers, not its loop.

Most of the loop's structural work goes into multi-column supernodes:
97 % on the C of the benchmark's ``reml_fit`` (92 % into its trailing
supernode of 166 columns), 94 % and 95 % on prob1 seeds 1000 and 1001
(82 % and 91 % into the trailing one) and 99.8 % on the 72x72 AR1 (x)
AR1 field (94 % into supernodes of 8 columns or more), all under AMD.  A
supernode of w columns whose last column has the pattern R is one dense
front over the rows F = [s] + pattern(s), |F| = w + |R|, and takes that
work in as dense work (Ng & Peyton 1993):

- the columns k before it that reach its rows come from
  ``block_updates`` in panels of at most _PANEL columns.
  Each column's segment from the supernode's first row is scattered
  once into one row of a dense panel, and one GEMM subtracts the panel
  from the front;
- the front then factors itself in strips of _STRIP columns: rank-1
  steps on contiguous slices inside a strip, checking each pivot in
  column order, and one GEMM for the strip's update of the later
  columns;
- its columns are written back through their storage range.

Both sizes were measured on the ``reml_fit`` C (2 vCPU, medians of 9).
Panels of 64, 128, 256, 512 and 4096 columns took 51.1, 48.1, 45.6,
44.9 and 45.2 ms, and the tracemalloc peak of a repeat factorization
was 3.46, 3.46, 3.58, 4.11 and 8.72 MB, against 3.51 MB column by
column.  Panels of 128 are kept for the process's peak memory: over 10
alternated benchmark pairs each, ``reml_fit``'s ``peak_rss_mb`` went
64.52 -> 64.31 MB with them and 64.44 -> 65.13 MB with 256.  Strips of 16
columns took 43.9 ms against 48.9 ms unstripped, through the 166-column
trailing supernode; on the field, whose supernodes are narrower, strips
of 8 to 64 columns and none were within 3 % of each other.

The leaves (``SymbolicFactor.leaves``: the single columns without a
child in the elimination tree, 2 443 of the 3 362 columns of that C) are
already (D L)[:, j] as loaded, since a column depends only on the
columns of its subtree (Liu 1990), so each leaf's whole Schur update is
applied before the loop.  The update of leaf k with pattern P
subtracts L_{P[a],k} (D L)_{P[b],k} at the pair (P[b], P[a]) and
L_{P[a],k} (D L)_{P[a],k} on the diagonal at P[a], through the slots of
``SymbolicFactor.leaf_batches``: one ``np.subtract.at`` per batch into
L's storage and one ``np.bincount`` into the diagonal.  A twig, a single
column whose children are all leaves (120 on that C), is then final as
well and is divided with the leaves.  Out of the panels, the leaves no
longer enter the wide trailing fronts as rows that are mostly zero:
``padded_flops`` went from 133.7 M to 37.6 M on that C, from 102.3 M to
32.9 M on prob1 and from 1 078 M to 310 M on prob3 (seed 1000).  A
factorization of that C went from 24.3 to 18.1 ms and one of prob3 from
112.6 to 80.7 ms (medians of 41 and 15 calls alternated with the
previous kernel in one process, 2 vCPU).  The step itself takes about
1.2 ms on that C.  One ``np.bincount`` over all 151 581 pairs took 2.6
ms there: its nnz(L)-long output and index casts are fresh pages on
every call (1 280 page faults), where the batches' temporaries stay
small and none fault.

The first leaf or twig in column order whose pivot fails, a twig's pivot
read after the leaves below it are in, is ``stop``: only the leaves and
twigs before it are pushed and divided, the loop runs over the
supernodes before it and raises the first failing column it meets, and
otherwise ``stop`` is raised.  That is the column that the
column-by-column kernel reports, and no division by a failed pivot is
ever issued.

Measured on the column-by-column kernel, before the dense supernodes:
``np.bincount`` in place of ``np.subtract.at`` changed nothing, and a
per-column multifrontal with extend-add was slower (0.104 to 0.144 s);
neither is to be redone.

A multiply-add counter is maintained and must come out equal to the
symbolic prediction sum(m_i^2) - n on every input.  It adds the
structural work as it is issued: two FLOPs per gathered segment entry of
a single column (one multiply, one subtract), 2 (s_k r_k - s_k (s_k - 1)
/ 2) for each panel column k, where s_k of its r_k segment entries lie in
the supernode's rows, the lower trapezoid of each rank-1 step and strip
GEMM, q (q + 1) for the updates of a leaf with q entries below the
diagonal, and one division per below-diagonal entry of each finalized
column, the step before the loop included.  The per-position products
d_k * L_ik needed by the updates are kept from the pre-division column
values rather than recomputed, which is what keeps the count exact.
What the dense calls issue beyond that (the zeros of the panels, the
upper halves of the squares, and the divisions and square roots that
scale the panels) is added up in ``LdlFactor.padded_flops``.

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
# Updating columns per dense panel of a supernode's Schur update.
_PANEL = 128
# Columns per strip of a supernode's own factorization.
_STRIP = 16


@dataclass(frozen=True, eq=False)
class LdlFactor:
    """Unit-lower-triangular L and diagonal D with PAP^T = LDL^T.

    ``l_values`` aligns with the strictly-lower symbolic pattern and, with
    ``d``, is all that :func:`solve` and the selected inversion read.  The
    matching entries of D*L that the factorization uses as update
    segments are a local of :func:`ldlt_factorize` and are not kept.

    ``flops`` is the structural work, equal to the forecast
    sum(m_i^2) - n; ``padded_flops`` is the work the dense supernode
    calls issued beyond it: zero fill, upper halves and panel scaling.
    """

    sym: SymbolicFactor
    l_values: np.ndarray
    d: np.ndarray
    flops: int
    padded_flops: int = 0

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
    # the pattern's maps first (built on the first call), so that their
    # builds do not stack on the work arrays
    ptr, _, upd_first, upd_len, _ = sym.block_updates
    twigs = sym.leaf_batches.twigs
    bounds = sym.supernodes.tolist()
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
    x = np.zeros(n)         # a single column, over its rows
    where = np.zeros(n, dtype=np.int64)   # each row's place in a block's front

    # the leaves and the twigs before the loop, up to the first of them
    # whose pivot fails (n if none does); the loop then runs over the
    # other supernodes before that column
    flops, stop = _leaves_and_twigs(sym, ld_values, a_diag, l_values, d)
    padded = 0
    rest = np.ones(n, dtype=bool)
    rest[sym.leaves] = rest[twigs] = False
    rest[stop:] = False
    col_start, upd_start = colptr.tolist(), ptr.tolist()
    # one iteration per other supernode, columns j:e, taking the updates
    # u0:u1
    for b in np.flatnonzero(rest[sym.supernodes[:-1]]).tolist():
        j, e, u0, u1 = bounds[b], bounds[b + 1], upd_start[b], upd_start[b + 1]
        if e - j > 1:
            block_flops, block_padded = _factor_block(
                j, e, u0, u1, sym, ld_values, l_values, a_diag, d, where)
            flops += block_flops
            padded += block_padded
            continue
        lo, hi = col_start[j], col_start[j + 1]
        pattern = rows[lo:hi]
        # load column j of PAP^T into the workspace; updates from earlier
        # columns touch only row j and the rows of this pattern
        x[pattern] = ld_values[lo:hi]
        x[j] = a_diag[j]
        # every segment (D L)[p_jk:end_k] that reaches row j, as one index
        # array: one gather, one scatter.  Index arithmetic in int64: the
        # update maps are unsigned (``upd_len`` as small as uint8), and
        # unsigned arithmetic would wrap or turn to floats
        p = upd_first[u0:u1].astype(np.int64)
        lens = upd_len[u0:u1].astype(np.int64)
        idx = _segments(p, lens)
        np.subtract.at(x, rows[idx], l_values[p].repeat(lens) * ld_values[idx])
        flops += 2 * idx.size
        dj = float(x[j])
        if not (dj > 0.0 and math.isfinite(dj)):
            raise NonPositivePivotError(j, dj)
        d[j] = dj
        col = ld_values[lo:hi] = x[pattern]
        l_values[lo:hi] = col / dj
        flops += hi - lo
    if stop < n:
        raise NonPositivePivotError(stop, float(a_diag[stop]))

    near = np.flatnonzero(d < threshold)
    if near.size:
        warnings.warn(
            f"{near.size} pivot(s) below the near-singular threshold "
            f"{threshold:g} (first at column {near[0]})",
            NearSingularWarning,
            stacklevel=2,
        )
    return LdlFactor(sym=sym, l_values=l_values, d=d, flops=flops,
                     padded_flops=padded)


def _first_failure(cols: np.ndarray, pivots: np.ndarray, stop: int) -> int:
    """The first of the ascending columns ``cols`` whose pivot is not
    positive and finite, if it comes before ``stop``; else ``stop``."""
    bad = np.flatnonzero(~((pivots > 0.0) & (pivots < math.inf)))
    return min(stop, int(cols[bad[0]])) if bad.size else stop


def _leaves_and_twigs(sym: SymbolicFactor, ld_values: np.ndarray,
                      a_diag: np.ndarray, l_values: np.ndarray,
                      d: np.ndarray) -> tuple[int, int]:
    """The step before the factorization's loop: the leaves' Schur
    updates, then the leaves and the twigs divided; returns (flops, stop).

    ``stop`` is the first leaf or twig in column order whose pivot fails,
    or n, a twig's pivot read after the updates of the leaves below it.
    Only the leaves and twigs before it are pushed and divided, so no
    division by a failed pivot is issued.  The updates of leaf k with the
    pattern P go through the slots of :attr:`SymbolicFactor.leaf_batches`:
    L_{P[a],k} (D L)_{P[b],k} off the diagonal, batch by batch, and
    L_{P[a],k} (D L)_{P[a],k} on it, in one ``bincount``.
    """
    layout = sym.leaf_batches
    n, colptr = sym.n, sym.l_col_ptr
    leaves, cols, twigs = sym.leaves, layout.cols, layout.twigs
    stop = _first_failure(leaves, a_diag[leaves], n)
    q = sym.col_counts[cols] - 1
    at = layout.at.astype(np.intp)
    on = sym.l_row_idx[at]
    while True:
        early = cols < stop
        ld, pivots = ld_values[at], a_diag[cols]
        if stop < n:
            # the leaves from stop on push nothing and are not divided
            ld[~early.repeat(q)] = 0.0
            pivots[~early] = 1.0
        lv = ld / pivots.repeat(q)
        onto_diag = np.bincount(on, lv * ld, minlength=n)
        # a twig's column is final once its children, all leaves, are in
        first = _first_failure(twigs, a_diag[twigs] - onto_diag[twigs], stop)
        if first == stop:
            break
        stop = first
    # the pairs batch by batch: one np.subtract.at each keeps every
    # temporary at the batch's size.  The unsigned index arrays are cast
    # to intp first, which indexes faster than numpy's buffered casts
    e0 = p0 = 0
    for _, _, batch_at, slots in layout.batches:
        e1, p1 = e0 + batch_at.size, p0 + slots.size
        pairs = lv[e0:e1].repeat(layout.rest[e0:e1])
        pairs *= ld[e0:e1][layout.second[p0:p1].astype(np.intp)]
        np.subtract.at(ld_values, slots.reshape(-1).astype(np.intp), pairs)
        e0, p0 = e1, p1
    a_diag -= onto_diag
    done = leaves[leaves < stop]
    d[done] = a_diag[done]
    l_values[at] = lv
    twigs = twigs[twigs < stop]
    d[twigs] = pivots = a_diag[twigs]
    count = colptr[twigs + 1] - colptr[twigs]
    at = _segments(colptr[twigs], count)
    l_values[at] = ld_values[at] / pivots.repeat(count)
    # q (q + 1) for a leaf's updates and q divisions, a twig's divisions
    q = q[early]
    return int(np.sum(q * (q + 2))) + at.size, stop


def _segments(first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The storage positions of the ranges first[t]:first[t] + lens[t],
    concatenated in order, as int64 (``lens`` in int64)."""
    ends = lens.cumsum()
    out = (first - (ends - lens)).repeat(lens)
    out += np.arange(out.size)
    return out


def _factor_block(s: int, e: int, u0: int, u1: int, sym: SymbolicFactor,
                  ld_values: np.ndarray, l_values: np.ndarray,
                  a_diag: np.ndarray, d: np.ndarray,
                  where: np.ndarray) -> tuple[int, int]:
    """Factor the supernode of columns s:e as one dense front; returns
    (structural flops, padded flops).

    The front holds the block's w columns over its rows F = [s] +
    pattern(s), transposed so that each column is one contiguous row of
    ``front``.  The panels of updates from outside come first, then the
    strips of the block's own factorization (see the module docstring).
    """
    _, upd_cols, upd_first, upd_len, upd_inside = sym.block_updates
    colptr, rows = sym.l_col_ptr, sym.l_row_idx
    w = e - s
    lo, hi, end = int(colptr[s]), int(colptr[s + 1]), int(colptr[e])
    size = hi - lo + 1
    where[s] = 0
    where[rows[lo:hi]] = np.arange(1, size)
    front = np.zeros((w, size))
    flat = front.reshape(-1)
    # column c of the block holds the rows c + 1: of F
    lens = np.arange(size - 1, size - 1 - w, -1)
    stored = _segments(np.arange(1, w * (size + 1), size + 1), lens)
    flat[stored] = ld_values[lo:end]
    flat[::size + 1] = a_diag[s:e]
    flops = padded = 0

    for t0 in range(u0, u1, _PANEL):
        t1 = min(t0 + _PANEL, u1)
        seg = upd_len[t0:t1].astype(np.int64)
        # the columns come in the order of their first row: every segment
        # of this panel starts at row s + top or below
        top = int(rows[upd_first[t0]]) - s
        k, width = t1 - t0, size - top
        panel = np.zeros((k, width))
        idx = _segments(upd_first[t0:t1], seg)
        target = where[rows[idx]]
        target += np.arange(-top, k * width - top, width).repeat(seg)
        panel.reshape(-1)[target] = ld_values[idx]
        del idx, target
        # L_jk (D L)_ik = (D L)_jk (D L)_ik / d_k, one square root each way
        panel /= np.sqrt(d[upd_cols[t0:t1]])[:, None]
        front[top:, top:] -= panel[:, :w - top].T @ panel
        inside = upd_inside[t0:t1]
        # 2 (s_k r_k - s_k (s_k - 1) / 2) for each column k
        structural = int(inside @ (2 * seg - inside + 1))
        flops += structural
        padded += 2 * k * width * (w - top) + k * (width + 1) - structural

    for c0 in range(0, w, _STRIP):
        c1 = min(c0 + _STRIP, w)
        for c in range(c0, c1):
            dj = float(front[c, c])
            if not (dj > 0.0 and math.isfinite(dj)):
                raise NonPositivePivotError(s + c, dj)
            rest = c1 - c - 1
            if rest:
                lcol = front[c, c + 1:c1] / dj
                front[c + 1:c1, c + 1:] -= lcol[:, None] * front[c, c + 1:]
                # the issued update less the upper triangle of the strip's
                # square, and the L entries divided for it
                flops += 2 * rest * (size - c - 1) - rest * (rest - 1)
                padded += rest * (rest - 1) + rest
        if c1 < w:
            # the strip's update of the block's later columns, one GEMM
            k, later = c1 - c0, w - c1
            pivots = flat[c0 * (size + 1):c1 * (size + 1):size + 1]
            strip = front[c0:c1, c1:w] / pivots[:, None]
            front[c1:, c1:] -= strip.T @ front[c0:c1, c1:]
            # 2 (size - c') for each later column c' and strip column
            structural = k * later * (2 * size - c1 - w + 1)
            flops += structural
            padded += (2 * (size - c1) + 1) * k * later - structural
    d[s:e] = flat[::size + 1]
    ld_values[lo:end] = flat[stored]
    l_values[lo:end] = ld_values[lo:end] / d[s:e].repeat(lens)
    flops += end - lo
    return flops, padded


def log_det(f: LdlFactor) -> float:
    """log det A = sum of log d_i (the factorization guarantees d_i > 0)."""
    return float(np.sum(np.log(f.d)))


def solve(f: LdlFactor, b: np.ndarray) -> np.ndarray:
    """Solve A x = b through the factor: x = P^T L^-T D^-1 L^-1 P b.

    Both sweeps loop over the columns that are neither leaves nor twigs,
    which come as two levels, one ``bincount`` per level and sweep.  A
    leaf's y_j is final as loaded in the forward sweep, and a twig's once
    the leaves' updates are in, so the leaves' updates come first, then
    the twigs'.  No column of the loop reads a twig's or a leaf's y_j in
    the backward sweep, and a leaf reads its twig's, so the twigs' dot
    products come last but one and the leaves' last.  That changes the
    order of the sums, not their terms: the result agrees with the column
    loop to roundoff.

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
    sym = f.sym
    colptr, rows = sym.l_col_ptr, sym.l_row_idx
    lv = f.l_values
    layout = sym.leaf_batches
    twigs = layout.twigs
    q = sym.col_counts[layout.cols] - 1
    count = colptr[twigs + 1] - colptr[twigs]
    # the leaves, then the twigs: each level's storage positions and the
    # column of each
    levels = ((layout.at.astype(np.intp), layout.cols.repeat(q)),
              (_segments(colptr[twigs], count), twigs.repeat(count)))
    # the other columns with entries below the diagonal, and where each
    # starts and ends, as Python ints
    inner = np.diff(colptr) > 0
    inner[sym.leaves] = inner[twigs] = False
    cols = np.flatnonzero(inner)
    walk = list(zip(cols.tolist(), colptr[cols].tolist(), colptr[cols + 1].tolist()))
    y = b[perm].copy()
    for at, owner in levels:
        y -= np.bincount(rows[at], y[owner] * lv[at], minlength=n)
    for j, lo, hi in walk:
        y[rows[lo:hi]] -= y[j] * lv[lo:hi]
    y /= f.d
    for j, lo, hi in reversed(walk):
        y[j] -= lv[lo:hi] @ y[rows[lo:hi]]
    for at, owner in reversed(levels):
        y -= np.bincount(owner, lv[at] * y[rows[at]], minlength=n)
    x = np.empty(n)
    x[perm] = y
    return x

