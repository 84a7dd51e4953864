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
to the end of column k.  A column depends only on the columns of its
own subtree (Liu 1990), so the supernodes of one height of the
supernodal elimination tree do not depend on each other.  The leaves
(below) are done before the loop, which then runs the heights in
ascending order through the schedule that ``SymbolicFactor.block_updates``
holds, built once per pattern.  Per height, each multi-column supernode
is one Python iteration, and the height's single columns are one batch,
or a few where they gather more than 16 384 elements
(``symbolic._GROUP``), which keeps the batches' temporaries small.  On
the C of the benchmark's ``reml_fit`` under AMD the loop runs the
heights 0 to 11: 157 multi-column supernodes, one iteration each, and
409 single columns in 8 batches, of the 3 009 supernodes.

The single columns of a batch gather the segments of the columns that
update them, leaves left out, as one index array: for column j the
position of every such L_jk, k ascending, with the length of each one's
segment.  One ``np.subtract.at``, which applies repeated slots one after
the other, scatters them into the batch's workspace, where each column
has its own slots (held by the schedule), and one division finishes the
columns.  A column's updates land in the order of its own column step,
so its values are that step's to the bit.  A single column whose
children are all leaves has no updates left and goes in the batch of
height 1.  Moving the index work into the schedule and the single
columns into batches took a warm factorization from 18.0 to 13.0 ms on
that C, from 25.5 to 18.8 ms on prob1 (seed 1000) and from 77.4 to 62.0
ms on the 72x72 AR1 (x) AR1 field (medians of 41 calls alternated with
the loop over every supernode in one process, faster in 39 of 41 each,
2 vCPU), with the same ``l_values``, ``d`` and counters to the bit.
Building the schedule takes about 10 ms on prob1 and 11 ms on the
field, so a first factorization, the build included, is no slower than
before: 42.7 ms against 44.7 ms on prob1 and 75.6 against 81.8 ms on the
field (medians of 41 alternated calls).

Most of the loop's structural work goes into multi-column supernodes:
97 % on the C of the benchmark's ``reml_fit`` (92 % into its trailing
supernode of 166 columns), 94 % and 95 % on prob1 seeds 1000 and 1001
(82 % and 91 % into the trailing one) and 99.8 % on the 72x72 AR1 (x)
AR1 field (94 % into supernodes of 8 columns or more), all under AMD.  A
supernode of w columns whose last column has the pattern R is one dense
front over the rows F = [s] + pattern(s), |F| = w + |R|, and takes that
work in as dense work (Ng & Peyton 1993):

- the columns k before it that reach its rows come from
  ``block_updates`` in panels of at most 128 columns.  The schedule
  holds each panel's gather positions in L's storage and their flat
  targets in the panel: each column's segment from the supernode's
  first row fills one row of a dense panel, and one GEMM subtracts the
  panel from the front;
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
already (D L)[:, j] as loaded, so each leaf's whole Schur update is
applied before the loop.  The update of leaf k with pattern P
subtracts L_{P[a],k} (D L)_{P[b],k} at the pair (P[b], P[a]) and
L_{P[a],k} (D L)_{P[a],k} on the diagonal at P[a], through the slots of
``SymbolicFactor.leaf_batches``: one ``np.subtract.at`` per batch into
L's storage and one ``np.bincount`` into the diagonal.  A batch's pairs
are formed over its (G, q) views of L and D L, ``lv[:, upper] *
ld[:, lower]`` with ``upper, lower = np.triu_indices(q, 1)``, the way
the selected inversion reads its blocks, so the layout holds no per-pair
index of its own.  Out of the panels, the leaves no longer enter the
wide trailing fronts as rows that are mostly zero: ``padded_flops`` went
from 133.7 M to 37.6 M on that C, from 102.3 M to 32.9 M on prob1 and
from 1 078 M to 310 M on prob3 (seed 1000).  The step itself takes about
1.5 to 2.3 ms on that C, 0.3 to 0.6 ms more than with a held per-pair
index of 0.33 MB (medians of 201 alternated calls, 2 vCPU).  One
``np.bincount`` over all 151 581 pairs took 2.6 ms there: its
nnz(L)-long output and index casts are fresh pages on every call (1 280
page faults), where the batches' temporaries stay small and none fault.

The first leaf in column order whose pivot fails is ``stop``: only the
leaves before it are pushed and divided.  Each height then runs only
its supernodes before ``stop``, and a failure there lowers ``stop`` to
the failing column, with its pivot.  Once the heights are done,
``stop`` is raised: the first failing column in column order, which is
the column that the column-by-column kernel reports, with its value,
though a later column of a lower height may fail first.  No division by
a failed pivot is ever issued.

Measured on the column-by-column kernel, before the dense supernodes:
``np.bincount`` in place of ``np.subtract.at`` changed nothing, and a
per-column multifrontal with extend-add was slower (0.104 to 0.144 s);
neither is to be redone.

A multiply-add counter is maintained and must come out equal to the
symbolic prediction sum(m_i^2) - n on every input.  It adds the
structural work as it is issued: two FLOPs per gathered segment entry of
a single column (one multiply, one subtract), 2 (s_k r_k - s_k (s_k - 1)
/ 2) for each panel column k, where s_k of its r_k segment entries lie in
the supernode's rows (summed per panel in the schedule, and added as the
panel is issued), the lower trapezoid of each rank-1 step and strip
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
from .sparse_core import Permutation, SparseSymmetric, _segments
from .symbolic import BlockUpdates, SymbolicFactor

__all__ = ["LdlFactor", "ldlt_factorize", "log_det", "solve"]

# An accepted pivot below this times max |A_ii| is reported as near-singular.
NEAR_SINGULAR_RTOL = 1e-13
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
    plan = sym.block_updates
    sym.leaf_batches
    levels, blocks = plan.levels.tolist(), plan.blocks.tolist()
    panels = plan.panels.tolist()
    n, nnz = sym.n, sym.l_row_idx.size
    placed = np.zeros(nnz + n)
    placed[sym.a_slots] = a.values
    # ld_values: column j is overwritten with (D L)[:, j] when it is
    # finalized, and the updates read finalized columns only.
    ld_values, a_diag = placed[:nnz], placed[nnz:]
    threshold = NEAR_SINGULAR_RTOL * float(np.max(np.abs(a_diag), initial=0.0))
    l_values = np.empty(nnz)
    d = np.empty(n)

    # the leaves before the loop, up to the first of them whose pivot
    # fails (n if none does); then the heights in ascending order, each
    # row of levels running its supernodes before the first failing
    # column found so far
    flops, stop = _leaves(sym, ld_values, a_diag, l_values, d)
    value = float(a_diag[stop]) if stop < n else 0.0
    padded = 0
    for b0, b1, c0, c1 in levels:
        for s, e, p0, p1 in blocks[b0:b1]:
            if s >= stop:
                break
            try:
                block_flops, block_padded = _factor_block(
                    s, e, panels[p0:p1], plan, sym, ld_values, l_values,
                    a_diag, d)
            except NonPositivePivotError as exc:
                stop, value = exc.index, exc.value
                break
            flops += block_flops
            padded += block_padded
        if c1 > c0:
            try:
                flops += _singles(c0, c1, stop, plan, sym, ld_values,
                                  l_values, a_diag, d)
            except NonPositivePivotError as exc:
                stop, value = exc.index, exc.value
    if stop < n:
        raise NonPositivePivotError(stop, value)

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


def _failing(pivots: np.ndarray) -> np.ndarray:
    """The places of the pivots that are not positive and finite."""
    return np.flatnonzero(~((pivots > 0.0) & (pivots < math.inf)))


def _first_failure(cols: np.ndarray, pivots: np.ndarray, stop: int) -> int:
    """The first of the ascending columns ``cols`` whose pivot fails, if it
    comes before ``stop``; else ``stop``."""
    bad = _failing(pivots)
    return min(stop, int(cols[bad[0]])) if bad.size else stop


def _leaves(sym: SymbolicFactor, ld_values: np.ndarray, a_diag: np.ndarray,
            l_values: np.ndarray, d: np.ndarray) -> tuple[int, int]:
    """The step before the factorization's loop: the leaves' Schur
    updates, then the leaves divided; returns (flops, stop).

    ``stop`` is the first leaf in column order whose pivot fails, or n.
    Only the leaves before it push their updates and are divided, so no
    division by a failed pivot is issued.  The updates of leaf k with the
    pattern P go through the slots of :attr:`SymbolicFactor.leaf_batches`:
    L_{P[a],k} (D L)_{P[b],k} off the diagonal, batch by batch, and
    L_{P[a],k} (D L)_{P[a],k} on it, in one ``bincount``.
    """
    layout = sym.leaf_batches
    n, leaves, cols = sym.n, sym.leaves, layout.cols
    stop = _first_failure(leaves, a_diag[leaves], n)
    q = sym.col_counts[cols] - 1
    at = layout.at.astype(np.intp)
    early = cols < stop
    ld, pivots = ld_values[at], a_diag[cols]
    if stop < n:
        # the leaves from stop on push nothing and are not divided
        ld[~early.repeat(q)] = 0.0
        pivots[~early] = 1.0
    lv = ld / pivots.repeat(q)
    # the pairs batch by batch, over the batch's (G, q) views in the order
    # of its slots: one np.subtract.at each keeps every temporary at the
    # batch's size.  The unsigned slots are cast to intp first, which
    # indexes faster than numpy's buffered casts
    e0 = 0
    for k, _, batch_at, slots in layout.batches:
        e1 = e0 + batch_at.size
        upper, lower = np.triu_indices(k, 1)
        pairs = (lv[e0:e1].reshape(batch_at.shape)[:, upper]
                 * ld[e0:e1].reshape(batch_at.shape)[:, lower])
        np.subtract.at(ld_values, slots.reshape(-1).astype(np.intp),
                       pairs.reshape(-1))
        e0 = e1
    a_diag -= np.bincount(sym.l_row_idx[at], lv * ld, minlength=n)
    done = leaves[leaves < stop]
    d[done] = a_diag[done]
    l_values[at] = lv
    # q (q + 1) for a leaf's updates and q divisions
    q = q[early]
    return int(np.sum(q * (q + 2))), stop


def _singles(c0: int, c1: int, stop: int, plan: BlockUpdates,
             sym: SymbolicFactor, ld_values: np.ndarray, l_values: np.ndarray,
             a_diag: np.ndarray, d: np.ndarray) -> int:
    """Factor the batch ``plan.singles[c0:c1]`` of the single columns of
    one height, those before ``stop``; returns the flops.

    Every update segment (D L)[p_jk:end_k] of the columns is gathered as
    one index array and subtracted, times L_jk, into the batch's
    workspace with one ``np.subtract.at``, which applies repeated slots
    one after the other; each column's slots are its own.  The columns
    are then divided up to the first whose pivot fails, which raises
    NonPositivePivotError."""
    cols = plan.singles[c0:c1]
    keep = c0 + int(np.count_nonzero(cols < stop))
    (u0, x0, s0), (uk, xk, _), (_, _, s1) = (
        plan.single_ptr[[c0, keep, c1]].tolist())
    count = np.diff(plan.single_ptr[c0:c1 + 1, 2])
    at = _segments(sym.l_col_ptr[cols], count)
    work = np.concatenate((ld_values[at], a_diag[cols]))
    # index arithmetic in int64: the update maps are unsigned, and
    # unsigned arithmetic would wrap or turn to floats
    first = plan.single_first[u0:uk]
    length = plan.single_length[u0:uk].astype(np.int64)
    idx = _segments(first, length)
    np.subtract.at(work, plan.single_target[x0:xk].astype(np.intp),
                   l_values[first].repeat(length) * ld_values[idx])
    pivots = work[s1 - s0:s1 - s0 + keep - c0]
    bad = _failing(pivots)
    done = int(bad[0]) if bad.size else keep - c0
    stored = int(count[:done].sum())
    d[cols[:done]] = pivots[:done]
    ld_values[at[:stored]] = work[:stored]
    l_values[at[:stored]] = work[:stored] / pivots[:done].repeat(count[:done])
    if bad.size:
        raise NonPositivePivotError(int(cols[done]), float(pivots[done]))
    # two flops per gathered element, one per division
    return 2 * idx.size + stored


def _factor_block(s: int, e: int, panels: list, plan: BlockUpdates,
                  sym: SymbolicFactor, ld_values: np.ndarray,
                  l_values: np.ndarray, a_diag: np.ndarray,
                  d: np.ndarray) -> tuple[int, int]:
    """Factor the supernode of columns s:e as one dense front; returns
    (structural flops, padded flops).

    The front holds the block's w columns over its rows F = [s] +
    pattern(s), transposed so that each column is one contiguous row of
    ``front``.  The panels of updates from outside come first, each
    gathered through its row of ``plan.panels``, then the strips of the
    block's own factorization (see the module docstring).
    """
    colptr = sym.l_col_ptr
    w = e - s
    lo, hi, end = int(colptr[s]), int(colptr[s + 1]), int(colptr[e])
    size = hi - lo + 1
    front = np.zeros((w, size))
    flat = front.reshape(-1)
    # column c of the block holds the rows c + 1: of F
    lens = np.arange(size - 1, size - 1 - w, -1)
    stored = _segments(np.arange(1, w * (size + 1), size + 1), lens)
    flat[stored] = ld_values[lo:end]
    flat[::size + 1] = a_diag[s:e]
    flops = padded = 0

    for t0, t1, g0, g1, top, structural, issued in panels:
        panel = np.zeros((t1 - t0, size - top))
        panel.reshape(-1)[plan.target[g0:g1]] = ld_values[plan.gather[g0:g1]]
        # L_jk (D L)_ik = (D L)_jk (D L)_ik / d_k, one square root each way
        panel /= np.sqrt(d[plan.cols[t0:t1]])[:, None]
        front[top:, top:] -= panel[:, :w - top].T @ panel
        flops += structural
        padded += issued

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

    Both sweeps walk the factorization's own schedule
    (``SymbolicFactor.block_updates.levels``).  The forward sweep pushes
    the leaves' level first, one ``bincount``, then the rows of
    ``levels`` in ascending height: each row's single columns as one
    ``bincount`` level, and its multi-column supernodes' columns one by
    one in column order.  The backward sweep takes the rows in reverse,
    each one's block columns last to first and then its single columns
    as one ``bincount``, and the leaves last.  The order is valid because
    every descendant of a supernode has a lower height: in the forward
    sweep y_j is final once its descendants have pushed, and in the
    backward sweep once its ancestors are done.  Inside a supernode,
    column c + 1 is the parent of column c.  The levels change the order
    of the sums, not their terms: the result agrees with the column loop
    to roundoff.  The step list is built on each call from ``levels``,
    ``blocks``, ``singles`` and ``l_col_ptr``.

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
    sym, lv = f.sym, f.l_values
    colptr, rows = sym.l_col_ptr, sym.l_row_idx
    plan, layout = sym.block_updates, sym.leaf_batches
    blocks = plan.blocks
    # per step: a level's storage positions, their rows and the column of
    # each, then the block columns with entries as (j, lo, hi)
    at = layout.at.astype(np.intp)
    steps = [(at, rows[at], layout.cols.repeat(sym.col_counts[layout.cols] - 1),
              [])]
    for b0, b1, c0, c1 in plan.levels.tolist():
        cols = plan.singles[c0:c1]
        count = colptr[cols + 1] - colptr[cols]
        at = _segments(colptr[cols], count)
        s, e = blocks[b0:b1, 0], blocks[b0:b1, 1]
        inner = _segments(s, e - s)
        inner = inner[colptr[inner + 1] > colptr[inner]]
        steps.append((at, rows[at], cols.repeat(count),
                      list(zip(inner.tolist(), colptr[inner].tolist(),
                               colptr[inner + 1].tolist()))))
    perm = f.perm.perm
    y = b[perm].copy()
    for at, row, owner, walk in steps:
        if at.size:
            y -= np.bincount(row, y[owner] * lv[at], minlength=n)
        for j, lo, hi in walk:
            y[rows[lo:hi]] -= y[j] * lv[lo:hi]
    y /= f.d
    for at, row, owner, walk in reversed(steps):
        for j, lo, hi in reversed(walk):
            y[j] -= lv[lo:hi] @ y[rows[lo:hi]]
        if at.size:
            y -= np.bincount(owner, lv[at] * y[row], minlength=n)
    x = np.empty(n)
    x[perm] = y
    return x
