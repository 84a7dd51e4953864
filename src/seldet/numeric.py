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
holds, built once per pattern.  Per height, the multi-column supernodes
of one shape are one group, factored as one stack (below), and the
height's single columns are one batch, or a few where they gather more
than 16 384 elements (``symbolic._GROUP``), which keeps the batches'
temporaries small.  On the C of the benchmark's ``reml_fit`` under AMD
the loop runs the heights 0 to 11: 157 multi-column supernodes in 101
groups, and 409 single columns in 8 batches, of the 3 009 supernodes.
On the 72x72 AR1 (x) AR1 field the 673 multi-column supernodes are 97
groups, the largest of 255 supernodes.

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

The supernodes of one height with the same width w, front size |F| and
panel shapes (k, top), position by position, are one group
(``BlockUpdates.groups``), factored as one stack of G fronts: one
gather fills the (G, w, |F|) fronts, one ``matmul`` per panel position
applies the (G, k, |F| - top) panels, each rank-1 step and strip GEMM
covers the G fronts, and one write-back stores them.  ``matmul`` runs
the BLAS call of one front on each of the stack's, with the same shapes
and strides, and the rest is elementwise, so the factor is that of the
supernodes one by one to the bit, and so are both counters.  A
supernode alone in its group runs on 2-D arrays, as before.  Stacked,
the field's 673 dense steps are 97: a warm factorization went from 36.2
to 21.3 ms there, and from 11.4 to 11.3 ms on the ``reml_fit`` C, where
nearly every group is one supernode (medians of 21 calls alternated
with the supernodes one by one in one process, faster in 21 and 13 of
21, 2 vCPU).  The stacks hold no more than the largest panel or front
alone on prob3 and prob5, and the tracemalloc peak of a repeat
factorization of the field went from 3.62 to 3.73 MB.

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
ld[:, lower]`` with ``upper, lower`` the arrays of ``np.triu_indices(q,
1)`` (built by ``sparse_core._upper_pairs`` in a quarter of its time),
the way the selected inversion reads its blocks, so the layout holds no
per-pair index of its own.  Out of the panels, the leaves no longer
enter the wide trailing fronts as rows that are mostly zero:
``padded_flops`` went
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
the failing column, with its pivot.  In a stack, each step checks the G
pivots before it divides: where one fails, the stack shrinks to the
fronts before it, whose columns all come earlier, and they finish and
are written back, since a later height may read them.  Once the heights
are done, ``stop`` is raised: the first failing column in column order,
which is the column that the column-by-column kernel reports, with its
value, though a later column of a lower height may fail first.  No
division by a failed pivot is ever issued.

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

import bisect
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
from .sparse_core import Permutation, SparseSymmetric, _segments, _upper_pairs
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
    levels, groups = plan.levels.tolist(), plan.groups.tolist()
    panels, blocks = plan.panels.tolist(), plan.blocks.tolist()
    starts = [s for s, _ in blocks]
    lows = sym.l_col_ptr[plan.blocks[:, 0]].tolist()
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
    for g0, g1, c0, c1 in levels:
        for b0, b1, p0, p1 in groups[g0:g1]:
            # the group's blocks before stop
            run = bisect.bisect_left(starts, stop, b0, b1) - b0
            if not run:
                continue
            try:
                block_flops, block_padded = _factor_group(
                    starts[b0:b0 + run], lows[b0:b0 + run],
                    blocks[b0][1] - blocks[b0][0], b1 - b0, panels[p0:p1],
                    plan, sym, ld_values, l_values, a_diag, d)
            except NonPositivePivotError as exc:
                stop, value = exc.index, exc.value
                continue
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
        upper, lower = _upper_pairs(k)
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


def _ranges(starts: list, count: int):
    """The index ranges ``starts[m]:starts[m] + count``: one slice for a
    single range, else a (G, count) array."""
    if len(starts) == 1:
        return slice(starts[0], starts[0] + count)
    return np.array(starts)[:, None] + np.arange(count)


def _factor_group(starts: list, lo: list, w: int, group: int, panels: list,
                  plan: BlockUpdates, sym: SymbolicFactor,
                  ld_values: np.ndarray, l_values: np.ndarray,
                  a_diag: np.ndarray, d: np.ndarray) -> tuple[int, int]:
    """Factor the first G blocks of a group of ``group`` blocks of w
    columns, those starting at the columns ``starts`` and at the storage
    positions ``lo``, as one stack of dense fronts; returns (structural
    flops, padded flops).

    Each front holds its block's w columns over its rows F = [s] +
    pattern(s), transposed so that each column is one contiguous row.
    ``panels`` are the group's rows of ``plan.panels``, position-major:
    the panels of one position fill one stacked panel through one slice
    of ``plan.gather`` and ``plan.target``.  Each step of the blocks' own
    factorization (see the module docstring) covers the whole stack and
    checks every front's pivot first: where one fails, the stack shrinks
    to the fronts before it, which finish and are written back, and the
    first failure in column order is raised.  A lone block runs on 2-D
    arrays and slices, as a block factored by itself; a stack adds the
    leading axis G, and ``...`` indexes both alike.
    """
    g = len(starts)
    lead = (g,) if g > 1 else ()
    size = int(sym.l_col_ptr[starts[0] + 1]) - lo[0] + 1
    # column c of a block holds the rows c + 1: of F
    lens = np.arange(size - 1, size - 1 - w, -1)
    stored = _segments(np.arange(1, w * (size + 1), size + 1), lens)
    at, cols = _ranges(lo, stored.size), _ranges(starts, w)
    # the stored entries' places in the stack, as one flat index
    if g > 1:
        stored = (np.arange(g) * (w * size))[:, None] + stored
    fronts = np.zeros(lead + (w, size))
    flat = fronts.reshape(lead + (-1,))
    fronts.reshape(-1)[stored] = ld_values[at]
    flat[..., ::size + 1] = a_diag[cols]
    flops = padded = 0

    if panels:
        # L_jk (D L)_ik = (D L)_jk (D L)_ik / d_k, one square root each way
        n_upd = panels[-group][1] - panels[0][0]
        root = np.sqrt(d[plan.cols[_ranges([row[0] for row in panels[:g]],
                                           n_upd)]])
        u = 0
        for j in range(0, len(panels), group):
            t0, t1, x0, _, top, _, _ = panels[j]
            k, x1 = t1 - t0, panels[j + g - 1][3]
            panel = np.zeros(lead + (k, size - top))
            panel.reshape(-1)[plan.target[x0:x1]] = ld_values[plan.gather[x0:x1]]
            panel /= root[..., u:u + k, None]
            fronts[..., top:, top:] -= panel[..., :w - top].mT @ panel
            u += k
            for row in panels[j:j + g]:
                flops += row[5]
                padded += row[6]

    failed = None
    for c0 in range(0, w, _STRIP):
        c1 = min(c0 + _STRIP, w)
        for c in range(c0, c1):
            # a lone block divides by its pivot as a float, a stack by a
            # column of G pivots
            pivots = fronts[..., c, c]
            piv = pivots.tolist() if lead else [float(pivots)]
            bad = [m for m, dj in enumerate(piv) if not 0.0 < dj < math.inf]
            if bad:
                # the fronts from the failing one on hold later columns only
                g = bad[0]
                failed = NonPositivePivotError(starts[g] + c, piv[g])
                if not g:
                    raise failed
                fronts, flat, pivots = fronts[:g], flat[:g], pivots[:g]
                at, cols, stored = at[:g], cols[:g], stored[:g]
            rest = c1 - c - 1
            if rest:
                lcol = fronts[..., c, c + 1:c1] / (pivots[:, None] if lead
                                                   else piv[0])
                fronts[..., c + 1:c1, c + 1:] -= (lcol[..., :, None]
                                                  * fronts[..., c, None, c + 1:])
                # the issued update less the upper triangle of the strip's
                # square, and the L entries divided for it
                flops += g * (2 * rest * (size - c - 1) - rest * (rest - 1))
                padded += g * (rest * (rest - 1) + rest)
        if c1 < w:
            # the strip's update of the blocks' later columns, one GEMM
            k, later = c1 - c0, w - c1
            diag = flat[..., c0 * (size + 1):c1 * (size + 1):size + 1]
            strip = fronts[..., c0:c1, c1:w] / diag[..., :, None]
            fronts[..., c1:, c1:] -= strip.mT @ fronts[..., c0:c1, c1:]
            # 2 (size - c') for each later column c' and strip column
            structural = k * later * (2 * size - c1 - w + 1)
            flops += g * structural
            padded += g * ((2 * (size - c1) + 1) * k * later - structural)
    d[cols] = pivots = flat[..., ::size + 1]
    ld_values[at] = values = fronts.reshape(-1)[stored]
    l_values[at] = values / pivots.repeat(lens, axis=-1)
    if failed is not None:
        raise failed
    flops += stored.size
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
    ``groups``, ``blocks``, ``singles`` and ``l_col_ptr``.

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
    # a row of levels holds the blocks of its groups, taken here in
    # column order (they are disjoint: their starts and ends sort alike)
    opens = np.append(plan.groups[:, 0], plan.blocks.shape[0])
    # per step: a level's storage positions, their rows and the column of
    # each, then the block columns with entries as (j, lo, hi)
    at = layout.at.astype(np.intp)
    steps = [(at, rows[at], layout.cols.repeat(sym.col_counts[layout.cols] - 1),
              [])]
    for g0, g1, c0, c1 in plan.levels.tolist():
        cols = plan.singles[c0:c1]
        count = colptr[cols + 1] - colptr[cols]
        at = _segments(colptr[cols], count)
        s, e = np.sort(plan.blocks[opens[g0]:opens[g1]], axis=0).T
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
