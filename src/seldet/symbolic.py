"""Structure-only analysis of a permuted symmetric matrix.

Everything here looks only at patterns, never at values, under the
no-cancellation convention: a structural entry whose value happens to be
zero is treated as nonzero.  One pass over the rows yields both the
elimination tree and the explicit pattern of L (Liu 1990; Davis 2006,
ch. 4).  Row k of L is the row subtree of k: the union of the tree paths
from each j with A_kj structural, j < k, up toward k.  Walking those
paths in the tree of the leading k-by-k block appends k to column j of L
at every node reached; a walk that reaches a node still without a parent
has reached a root, whose parent is therefore k.  Per-column nonzero
counts m_i follow from the pattern, and with them the two a-priori FLOP
predictions, each summed from its kernel's cost per column, q_i = m_i - 1:

    ldlt_flops   = sum(m_i^2 - 1)       = sum(m_i^2) - n
    selinv_flops = sum(2 q_i^2 + 3 q_i) = 2 * ldlt_flops - (nnz_L - n)

that the numeric kernels are instrumented to match exactly.

The analysis also finds, once per pattern, the slot of each stored entry
of the analyzed matrix in the factor's storage, so that a numeric
factorization of any matrix on that pattern only scatters its values.
The same holds for the other index maps the kernels read, built on
first use and kept on the symbolic factor.  Among them is the one
layout of the etree's leaves, the single columns without a child
(``SymbolicFactor.leaf_batches``): most of the columns and little of the
work, which the factorization, the selected inversion and the solve do
in batches outside their loops.  Another is the factorization's schedule
(``SymbolicFactor.block_updates``): the updates each supernode takes
in, the heights of the supernodes, the groups of multi-column
supernodes of one shape that the factorization stacks, and the index
work of their panels and of the batches of single columns (a height's
single columns, cut where they gather more than ``_GROUP`` elements).
The solve walks the same heights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PatternMismatchError, SizeMismatchError
from .sparse_core import (Permutation, SparseSymmetric, _entry_columns,
                          _group_by_row, _segments, _upper_pairs)

__all__ = [
    "BlockUpdates",
    "LeafBatches",
    "SelinvSweep",
    "SymbolicFactor",
    "symbolic_factor",
    "predict_flops",
    "selinv_flops_from_ldlt",
]

# Updating columns per dense panel of a supernode's Schur update.
_PANEL = 128
# Block entries per batch of leaves: a (G, q, q) stack of 0.25 MB at most.
# Uncut, one q-group's stack is 0.45 MB on the C of the benchmark's
# reml_fit, 1.77 MB on prob3 and 5.68 MB on prob5, all under AMD.
_LEAF_BATCH = 1 << 15
# Entries of the dense table that maps the rows of a group of fronts in
# the schedule's build, and the gathered elements that a group of the
# build and a batch of single columns take, a height's single columns
# being cut into batches of about that many (0.13 MB in int64).
_ROW_MAP = 1 << 18
_GROUP = 1 << 14


def _row_subtrees(n: int, rows: np.ndarray,
                  cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elimination tree and strictly-lower pattern of L for the pattern
    whose lower-triangle entries are (rows[k], cols[k]), rows[k] >= cols[k];
    each position may be given once at most.

    Returns ``(parent, l_col_ptr, l_row_idx)``; roots get parent -1.
    Since k only grows, each column's row list comes out sorted, whatever
    the order of the entries.
    """
    below = rows > cols
    rows, cols = rows[below], cols[below]
    by_row, row_ptr = _group_by_row(rows, n)
    row_cols, row_ptr = cols[by_row].tolist(), row_ptr.tolist()
    parent = [-1] * n
    visited = [-1] * n
    l_cols: list[list[int]] = [[] for _ in range(n)]
    for k in range(n):
        for j in row_cols[row_ptr[k]:row_ptr[k + 1]]:
            while visited[j] != k:
                l_cols[j].append(k)
                visited[j] = k
                if parent[j] == -1:
                    parent[j] = k
                    break
                j = parent[j]
    lens = [len(c) for c in l_cols]
    l_col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=l_col_ptr[1:])
    l_row_idx = np.fromiter(itertools.chain.from_iterable(l_cols),
                            dtype=np.int64, count=int(l_col_ptr[-1]))
    return np.asarray(parent, dtype=np.int64), l_col_ptr, l_row_idx


@dataclass(frozen=True, eq=False)
class LeafBatches:
    """The layout of the columns that the kernels do outside their loops.

    The leaves with q >= 1 entries below the diagonal come in
    ``(q, cols, at, slots)`` batches, grouped by q (ascending) and cut
    into at most ``max(1, _LEAF_BATCH // q^2)`` columns, ascending within
    a group (``batches``).  For the G columns
    ``cols`` of a batch, with P the pattern of ``cols[g]``:

    - ``at[g]`` (G, q) is the storage range
      ``l_col_ptr[cols[g]]:l_col_ptr[cols[g] + 1]`` of the column, so that
      ``l_row_idx[at[g]]`` is P;
    - ``slots[g]`` (G, q (q - 1) / 2) holds, for the pairs (a, b) of
      ``np.triu_indices(q, 1)``, the storage position of (P[b], P[a]), in
      column P[a]: where the leaf's Schur update L_{P[a],k} (D L)_{P[b],k}
      lands in the factorization, and where its block Z[P, P] lies in a
      selected inverse's ``z_values``, besides its diagonal ``z_diag[P]``.

    Each batch's arrays are views into the flat arrays of every batch in
    order: ``cols`` (int64), ``at`` and ``slots`` (the smallest unsigned
    type that holds ``nnz_L``).  The kernels pair a batch's values over
    its (G, q) views with the ``np.triu_indices(q, 1)`` of its slots.

    All arrays are read-only.  On the C of the benchmark's ``reml_fit``
    under AMD (2 443 leaves): 0.10 MB of positions and 0.61 MB of slots
    (151 581 pairs); 0.04 and 0.13 MB on the 72x72 AR1 (x) AR1 field
    (1 260 leaves).
    """

    batches: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]
    cols: np.ndarray
    at: np.ndarray
    slots: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockUpdates:
    """The factorization's schedule over the Schur updates that each
    supernode takes in, all read-only.

    The updates are those of :func:`_updates`, supernode after supernode:
    the columns k, not leaves, that update a supernode with columns s:e
    from outside it (k < s and L_jk != 0 for some j in s:e), each with
    its segment (D L)[i, k], i >= s, to the end of column k.  ``cols``
    keeps their columns, in the smallest unsigned type that holds n; the
    factorization reads there the pivots of a panel's columns.  The
    leaves' updates are applied before the factorization's loop, through
    :attr:`SymbolicFactor.leaf_batches`, so a single column whose
    children are all leaves has none.

    The rest is the factorization's schedule.  ``height`` is each
    supernode's height in the supernodal elimination tree: 0 without a
    child, else one more than its highest child.  A column depends only
    on its own subtree (Liu 1990), so the supernodes of one height do not
    depend on each other, and the factorization runs the heights in
    ascending order.  The single columns of height 0 are the leaves,
    which it does before.  The rows ``(g0, g1, c0, c1)`` of ``levels``
    come in ascending height, each with the groups of multi-column
    supernodes in the rows g0:g1 of ``groups`` and a batch of single
    columns ``singles[c0:c1]`` in column order.  A height's single
    columns are cut into batches where their gathered elements, counted
    from the height's first one, pass a multiple of ``_GROUP``, which
    keeps a batch's temporaries near ``_GROUP`` elements unless one
    column gathers more.  Each batch is one row, its height's groups go
    with the height's first row, and a height without single columns has
    one row with an empty batch.

    - A row of ``blocks`` is ``(s, e)``: a multi-column supernode's
      columns.  Its updates come in panels of at most ``_PANEL``
      columns.  A panel of the update entries t0:t1 is a dense
      (t1 - t0)-by-(|F| - top) array over the rows of the front
      F = [s] + pattern(s) from place ``top`` on, one row per column.
    - The supernodes of one height with the same width, front size |F|
      and panel shapes (t1 - t0, top), position by position, are a
      group, factored as one stack.  A row of ``groups`` is ``(b0, b1,
      p0, p1)``: the group's supernodes, the rows b0:b1 of ``blocks`` in
      column order, and their panels, the rows p0:p1 of ``panels``,
      position-major: the panel at position j of the m-th of G
      supernodes is row p0 + j G + m.  The groups of a height come in
      the column order of their first supernodes, so each group is a
      run of ``blocks`` and of ``panels``, and the G panels of a
      position are one run of ``gather``.
    - A row of ``panels`` is ``(t0, t1, g0, g1, top, structural,
      padded)``: ``gather[g0:g1]`` are the storage positions of the
      panel's segments and ``target[g0:g1]`` their flat positions in the
      stack of its position's G panels, the m-th panel holding its
      stack's rows m (t1 - t0):(m + 1) (t1 - t0); ``structural`` is the
      structural work of the panel's GEMM and ``padded`` what the GEMM
      and the panel's scaling issue beyond it.
    - ``singles`` are the single columns of height 1 or more.  Row c of
      ``single_ptr`` holds where the update entries, the gathered
      elements and the stored entries of ``singles[c]`` start among those
      of the columns before it, and a last row holds the totals.
      ``single_first`` and ``single_length`` are the storage position of
      each update segment's first entry and its length, in the order of
      ``singles``.  The single columns of
      one batch are updated in one workspace, their stored entries in
      storage order and then their diagonals, and ``single_target`` is
      where each gathered element lands in it.

    ``levels``, ``groups``, ``blocks``, ``panels``, ``singles`` and
    ``single_ptr`` are int64; ``gather`` and ``single_first`` are in the
    smallest unsigned type that holds ``nnz_L``, ``single_length`` in
    that of the largest column count, and ``height``, ``target`` and
    ``single_target`` each in the smallest unsigned type that holds its
    values.  Under AMD, ``cols`` and the schedule hold 5 KB and 0.90 MB
    on the C of the benchmark's ``reml_fit`` (157 supernodes in 101
    groups; 152 panels gather 111 196 elements, and 409 single columns
    97 109), 10 KB and 1.73 MB on prob1 (seed 1000, 157 supernodes in 99
    groups), and 28 KB and 1.75 MB on the 72x72 AR1 (x) AR1 field (673
    supernodes in 97 groups; 711 panels, 277 900 elements).  A panel's
    element takes 6 bytes, in ``gather`` and ``target``, and a single
    column's 2, in ``single_target``: its gather positions are the
    segments, formed on each call.
    """

    cols: np.ndarray
    height: np.ndarray
    levels: np.ndarray
    groups: np.ndarray
    blocks: np.ndarray
    panels: np.ndarray
    gather: np.ndarray
    target: np.ndarray
    singles: np.ndarray
    single_ptr: np.ndarray
    single_first: np.ndarray
    single_length: np.ndarray
    single_target: np.ndarray


@dataclass(frozen=True, eq=False)
class SelinvSweep:
    """The selected inversion's walk over the supernodes, read-only.

    The swept supernodes are all but the leaves, in a depth-first
    preorder of the supernodal elimination tree, children in ascending
    order: every parent comes before its children, and a subtree is
    finished before its next sibling starts.  A row ``(s, e, p, keep,
    drop)`` of ``steps`` is one of them: its columns s:e and p, the
    parent of its last column e - 1, which is its parent supernode's
    first column (n at a root); ``keep`` is 1 when it has a swept child,
    whose gather needs its front, and ``drop`` is 1 when it is its
    parent's last swept child, the last to gather from p's front.

    ``places`` holds, step after step, the places of the rows of the
    step's last column in the front [p] + pattern(p) (Liu 1992's
    relative indices): 0 for p itself, which is the first row, else one
    more than the row's rank in pattern(p).  A root has none.  ``steps``
    is in the smallest unsigned type that holds n and ``places`` in that
    of the largest column count.  Under AMD: 1 407 steps and 24 112
    places, 38 KB, on the 72x72 AR1 (x) AR1 field, and 566 steps and
    42 688 places, 48 KB, on the C of the benchmark's ``reml_fit``.
    """

    steps: np.ndarray
    places: np.ndarray


def _supernode_parents(sym: SymbolicFactor) -> np.ndarray:
    """The parent of each supernode in the supernodal elimination tree,
    -1 at a root, as int64: the supernode of its last column's parent.
    Only a supernode's first column has children outside it."""
    bounds = sym.supernodes.astype(np.int64)
    up = sym.parent[bounds[1:] - 1]
    return np.where(up >= 0, np.searchsorted(bounds, up), -1)


def _updates(sym: SymbolicFactor) -> tuple[np.ndarray, ...]:
    """The Schur updates that each supernode takes in: ``(ptr, cols,
    first, length, inside)``.

    The columns k, not leaves, that update supernode b, with columns s:e,
    from outside it (k < s and L_jk != 0 for some j in s:e) are
    ``cols[ptr[b]:ptr[b + 1]]``, in the order of their first row in s:e,
    k ascending among equal rows.  For each, ``first`` is the storage
    position of that first entry and ``length`` the number of entries
    from there to the end of column k: its segment (D L)[i, k], i >= s.
    ``inside`` is the number of those entries in the rows s:e.  For a
    single column j these are every L_jk, k ascending and not a leaf,
    each with its segment, and ``inside`` is 1.  ``cols`` is in the
    smallest unsigned type that holds n, the rest int64.  Built with
    array work, with no Python loop per supernode."""
    bounds, rows, colptr = sym.supernodes, sym.l_row_idx, sym.l_col_ptr
    width = np.diff(bounds.astype(np.int64))
    column = np.min_scalar_type(sym.n)
    cols = np.repeat(np.arange(sym.n, dtype=column), sym.col_counts - 1)
    # per stored entry of L, through its row: the supernode of the row,
    # and whether the entry's column, not a leaf, updates that
    # supernode from outside
    sup_of = np.repeat(np.arange(width.size, dtype=column), width)
    block = sup_of[rows]
    updates = cols < np.repeat(bounds[:-1], width)[rows]
    branch = np.ones(sym.n, dtype=bool)
    branch[sym.leaves] = False
    updates &= branch.repeat(sym.col_counts - 1)
    del branch
    # a column's entries in one supernode are consecutive in storage:
    # the first of them opens its run and the last closes it
    ends_run = (block[1:] != block[:-1]) | (cols[1:] != cols[:-1])
    del block
    opens = updates.copy()
    opens[1:] &= ends_run
    updates[:-1] &= ends_run
    del ends_run
    first = np.flatnonzero(opens)
    inside = np.flatnonzero(updates) - first + 1
    del opens, updates
    # grouped by supernode, each in the order of its first row (rows
    # in the type of n: numpy sorts 16-bit keys by radix)
    by_row = np.argsort(rows[first].astype(column), kind="stable")
    first, inside = first[by_row], inside[by_row]
    cols = cols[first]
    ptr = np.zeros(bounds.size, dtype=np.int64)
    np.cumsum(np.bincount(sup_of[rows[first]], minlength=width.size),
              out=ptr[1:])
    length = colptr[cols.astype(np.int64) + 1] - first
    return ptr, cols, first, length, inside


def _heights(up: np.ndarray) -> np.ndarray:
    """The height of each node of the forest whose parents are ``up``
    (-1 at a root): 0 without a child, else one more than its highest
    child.  One step per height, over the nodes of that height."""
    pending = np.bincount(up[up >= 0], minlength=up.size)
    height = np.zeros(up.size, dtype=np.int64)
    level, h = np.flatnonzero(pending == 0), 0
    while level.size:
        height[level] = h
        above = up[level]
        above = above[above >= 0]
        np.subtract.at(pending, above, 1)
        # each parent whose last child is in, once (np.unique would import
        # numpy.ma on its first call)
        level = np.sort(above[pending[above] == 0])
        level = level[np.diff(level, prepend=-1) > 0]
        h += 1
    return height


def _segment_places(sym: SymbolicFactor, fronts: np.ndarray, own: np.ndarray,
                    e_cut: np.ndarray, first: np.ndarray, length: np.ndarray):
    """The elements of update segments and their places in the fronts
    they update, a group of fronts at a time.

    The segments ``first[t]:first[t] + length[t]`` for t in
    ``e_cut[f]:e_cut[f + 1]`` update the front [s] + pattern(s) of
    s = ``fronts[f]``; all are int64.  Yields ``(t0, t1, at, place)`` per
    group: its segments t0:t1 and, for each of their elements, its
    storage position and the place of its row in the front: ``own[f]``
    for s itself, else one more than the row's rank in pattern(s).  A
    group's fronts are scattered into their own n-long rows of one dense
    table of at most ``_ROW_MAP`` entries, and its elements' rows are read
    back through it.  A group holds at most ``_GROUP`` elements, or one
    front, so that its temporaries stay small."""
    n, colptr, rows = sym.n, sym.l_col_ptr, sym.l_row_idx
    # a front without segments needs no place
    some = np.diff(e_cut) > 0
    fronts, own = fronts[some], own[some]
    e_cut = np.append(e_cut[:-1][some], e_cut[-1])
    per = max(1, _ROW_MAP // max(n, 1))
    table = np.empty(min(per, fronts.size) * n, dtype=np.int32)
    ends = _starts(length)[e_cut]
    f0 = 0
    while f0 < fronts.size:
        most = int(np.searchsorted(ends, ends[f0] + _GROUP, side="right")) - 1
        f1 = min(f0 + per, max(f0 + 1, most))
        s = fronts[f0:f1]
        base = np.arange(s.size) * n
        m = sym.col_counts[s] - 1
        at = _segments(colptr[s], m)
        table[np.repeat(base, m) + rows[at]] = at - np.repeat(colptr[s] - 1, m)
        table[base + s] = own[f0:f1]
        t0, t1 = e_cut[f0], e_cut[f1]
        seg = length[t0:t1]
        at = _segments(first[t0:t1], seg)
        key = np.repeat(base, np.diff(e_cut[f0:f1 + 1])).repeat(seg)
        key += rows[at]
        yield t0, t1, at, table[key]
        f0 = f1


def _classes(*keys: np.ndarray) -> np.ndarray:
    """An id for each place of the equal-length ``keys``, the same for two
    places exactly when every key agrees there."""
    order = np.lexsort(keys)
    new = np.zeros(order.size, dtype=bool)
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(new)
    return ids


def _groups(keys: tuple[np.ndarray, ...], owner: np.ndarray, pos: np.ndarray,
            top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks, in groups: ``(order, opens)``, the blocks in their new
    order and where each group opens in it.

    Two blocks share a group when their ``keys`` agree and so do their
    panels' ``top`` position by position; ``owner`` and ``pos`` are each
    panel's block and position.  A group keeps its blocks in their
    order, and the groups come in the order of their first blocks."""
    n = keys[0].size
    tops = np.full((int(pos.max(initial=-1)) + 1, n), -1)
    tops[pos, owner] = top
    same = _classes(*tops[::-1], *keys)
    first = np.full(n, n)
    np.minimum.at(first, same, np.arange(n))
    order = np.argsort(first[same], kind="stable")
    opens = np.flatnonzero(np.diff(same[order], prepend=-1) != 0)
    return order, opens


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of the consecutive runs of ``counts`` starts, and their
    total last."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _schedule(sym: SymbolicFactor, width: np.ndarray, ptr: np.ndarray,
              first: np.ndarray, length: np.ndarray,
              inside: np.ndarray) -> tuple[np.ndarray, ...]:
    """The schedule fields of :class:`BlockUpdates`, in order, from the
    supernodes' widths and the update arrays, all in int64."""
    rows = sym.l_row_idx
    starts = sym.supernodes[:-1].astype(np.int64)
    height = _heights(_supernode_parents(sym))
    # the loop's supernodes by height, then by first column
    order = np.lexsort((starts, height))
    multi = width[order] > 1
    blocks_b = order[multi]
    singles_b = order[~multi & (height[order] > 0)]
    cuts = np.arange(int(height.max(initial=-1)) + 2)
    c_cut = np.searchsorted(height[singles_b], cuts)

    # the panels, block by block: panel j of a block holds its updates
    # from j _PANEL on, and the columns come in the order of their first
    # row, so every segment of a panel starts at row s + top or below
    n_upd = np.diff(ptr)
    n_pan = -(-n_upd[blocks_b] // _PANEL)
    pb = np.repeat(blocks_b, n_pan)
    pos = np.arange(pb.size) - np.repeat(_starts(n_pan)[:-1], n_pan)
    t0 = ptr[pb] + _PANEL * pos
    top = rows[first[t0]] - starts[pb]
    # the blocks in groups, each a run of blocks in column order, and the
    # panels block by block in that order
    regroup, opens = _groups(
        (n_upd[blocks_b], sym.col_counts[starts[blocks_b]], width[blocks_b],
         height[blocks_b]),
        np.repeat(np.arange(blocks_b.size), n_pan), pos, top)
    moved = _segments(_starts(n_pan)[regroup], n_pan[regroup])
    blocks_b, n_pan = blocks_b[regroup], n_pan[regroup]
    pb, pos, t0, top = pb[moved], pos[moved], t0[moved], top[moved]
    del moved
    blocks = np.column_stack((starts[blocks_b],
                              starts[blocks_b] + width[blocks_b]))
    closes = np.append(opens, blocks_b.size)[1:]
    p_cut = _starts(n_pan)
    groups = np.column_stack((opens, closes, p_cut[opens], p_cut[closes]))
    h_cut = np.searchsorted(height[blocks_b[opens]], cuts)
    # each panel's group, its block's place in the group and the group's
    # size; the panel of place m at position j is row j G + m of the
    # group's panels (position-major)
    group_of = np.repeat(np.arange(opens.size), closes - opens)
    member = (np.arange(blocks_b.size) - opens[group_of]).repeat(n_pan)
    group_of = group_of.repeat(n_pan)
    many = (closes - opens)[group_of]
    row = p_cut[opens][group_of] + pos * many + member
    del group_of, pos

    t1 = np.minimum(t0 + _PANEL, ptr[pb + 1])
    k = t1 - t0
    s = starts[pb]
    span = sym.col_counts[s] - top
    entry = _segments(t0, k)
    seg, within = length[entry], inside[entry]
    e_cut = _starts(k)
    g_cut = _starts(seg)
    # 2 (s_k r_k - s_k (s_k - 1) / 2) for each column k
    structural = np.diff(_starts(within * (2 * seg - within + 1))[e_cut])
    padded = 2 * k * span * (width[pb] - top) + k * (span + 1) - structural
    elems = np.diff(g_cut[e_cut])
    x0 = np.empty(row.size, dtype=np.int64)
    x0[row] = elems
    x0 = _starts(x0)[row]
    panels = np.empty((row.size, 7), dtype=np.int64)
    panels[row] = np.column_stack((t0, t1, x0, x0 + elems, top, structural,
                                   padded))
    # each column's segment fills its own row of its group's stacked
    # panel, at the places of its rows in the front, less top: the panel
    # of place m holds the rows m k:(m + 1) k of the stack
    panel_of = np.repeat(np.arange(pb.size), k)
    shift = ((np.arange(entry.size) - e_cut[panel_of] + (member * k)[panel_of])
             * span[panel_of] - top[panel_of])
    del panel_of
    kind = np.min_scalar_type(sym.nnz_L)
    gather = np.empty(g_cut[-1], dtype=kind)
    flat = np.min_scalar_type(int((many * k * span).max(initial=0)))
    target = np.empty(g_cut[-1], dtype=flat)
    for u0, u1, at, place in _segment_places(
            sym, blocks[:, 0], np.zeros(blocks_b.size, dtype=np.int64),
            _starts(n_upd[blocks_b]), first[entry], seg):
        gather[g_cut[u0]:g_cut[u1]] = at
        place += np.repeat(shift[u0:u1], seg[u0:u1])
        target[g_cut[u0]:g_cut[u1]] = place
    del entry, seg, within, shift
    # filled block by block; a group of several blocks with several
    # panels each is moved to position-major order
    if (row != np.arange(row.size)).any():
        moved = np.empty(row.size, dtype=np.int64)
        moved[row] = np.arange(row.size)
        moved = _segments(g_cut[e_cut[:-1]][moved], elems[moved])
        gather, target = gather[moved], target[moved]

    # the single columns, in the order of singles
    cols = starts[singles_b]
    entry = _segments(ptr[singles_b], n_upd[singles_b])
    single_first, single_length = first[entry], length[entry]
    e_cut = _starts(n_upd[singles_b])
    e_of = np.repeat(np.arange(cols.size), n_upd[singles_b])
    g_cut = _starts(single_length)
    single_ptr = np.column_stack((e_cut, g_cut[e_cut],
                                  _starts(sym.col_counts[cols] - 1)))
    # a height's single columns are cut into batches where their gathered
    # elements, counted from the height's first one, pass a multiple of
    # _GROUP; every batch is a row of levels, and every height without
    # single columns a row with none, the height's blocks going with its
    # first row
    c = np.arange(cols.size)
    h = height[singles_b]
    gathered = single_ptr[:-1, 1]
    chunk = (gathered - gathered[c_cut[h]]) // _GROUP
    opens = np.ones(cols.size, dtype=bool)
    opens[1:] = (h[1:] != h[:-1]) | (chunk[1:] != chunk[:-1])
    batch0 = np.flatnonzero(opens)
    batch1 = np.append(batch0, cols.size)[1:]
    none = np.flatnonzero(np.diff(c_cut) == 0)
    row_h = np.concatenate((h[batch0], none))
    row_c0 = np.concatenate((batch0, c_cut[none]))
    row_c1 = np.concatenate((batch1, c_cut[none]))
    order = np.lexsort((row_c0, row_h))
    row_h, row_c0, row_c1 = row_h[order], row_c0[order], row_c1[order]
    later = np.zeros(row_h.size, dtype=bool)
    later[1:] = row_h[1:] == row_h[:-1]
    levels = np.column_stack((np.where(later, h_cut[row_h + 1], h_cut[row_h]),
                              h_cut[row_h + 1], row_c0, row_c1))
    # in its batch's workspace, a column's stored entries follow those of
    # the columns before it, and its diagonal follows all of them
    lo = np.repeat(batch0, batch1 - batch0)
    hi = np.repeat(batch1, batch1 - batch0)
    stored = single_ptr[:, 2]
    offset = stored[c] - stored[lo] - 1
    room = int((stored[hi] - stored[lo] + hi - lo).max(initial=0))
    single_target = np.empty(g_cut[-1], dtype=np.min_scalar_type(room))
    for u0, u1, _, place in _segment_places(
            sym, cols, stored[hi] - stored[c] + c - lo + 1, e_cut,
            single_first, single_length):
        place += np.repeat(offset[e_of[u0:u1]], single_length[u0:u1])
        single_target[g_cut[u0]:g_cut[u1]] = place
    count = np.min_scalar_type(int(sym.col_counts.max(initial=1)))
    return (height.astype(np.min_scalar_type(int(height.max(initial=0)))),
            levels, groups, blocks, panels, gather, target, cols, single_ptr,
            single_first.astype(kind), single_length.astype(count),
            single_target)


@dataclass(frozen=True, eq=False)
class SymbolicFactor:
    """Pattern-level factorization plan for PAP^T.

    ``l_col_ptr``/``l_row_idx`` hold the strictly-lower pattern of L; the
    unit diagonal is implicit, so ``col_counts[j]`` equals one plus the
    j-th pattern segment length and ``nnz_L`` sums the diagonal back in.

    ``a_col_ptr``/``a_row_idx`` are the pattern of the matrix A that was
    analyzed, in original indices: references to A's own read-only
    arrays, so they cost no memory of their own.  ``a_slots`` is built
    from them on construction: the slot (see :meth:`locate`) of each
    stored entry of A, in storage order, in the smallest unsigned type
    that holds ``nnz_L``, read-only.  That is 4 bytes per entry of A for
    65 536 <= nnz_L < 2^32: 0.21 MB for the 51 549 entries of a prob1 C.
    A factorization places A's values through it, and the REML gradient
    reads the selected inverse at C's entries through it.  A stored
    entry of A off the pattern of L raises PatternMismatchError.

    More read-only arrays are kept for the factor's life.
    :attr:`lower_keys` is built with it (one entry of L each, in the
    smallest unsigned type that holds n^2: 4 bytes for 256 <= n < 65 536).
    The first factorization builds the supernode maps: the partition
    :attr:`supernodes` (one entry per supernode) and :attr:`block_updates`
    (the column of each pair of a supernode and a column other than a
    leaf that updates it, and the factorization's schedule: mostly one
    position and one target per gathered element of a panel and one
    target per gathered element of a single column), together 1.74 MB
    on a prob1 C, 0.91 MB on the C of the benchmark's ``reml_fit`` and
    1.78 MB on the 72x72 AR1 (x) AR1 field, all under AMD, and the one
    layout of the etree's leaves:
    :attr:`leaves` (one int64 each) and :attr:`leaf_batches` (each leaf's
    storage positions and the slots of the pairs of its pattern, in the
    smallest unsigned type that holds ``nnz_L``: 0.73 MB on the C of the
    benchmark's ``reml_fit`` and 0.18 MB on the field).  The selected
    inversion builds one on its first call, :attr:`selinv_sweep`: a row
    per supernode other than a leaf and the places of the rows of each
    one's last column in its parent's front, 47 KB on a prob1 C, 48 KB
    on the ``reml_fit`` C and 38 KB on the field under AMD.
    """

    n: int
    perm: Permutation
    parent: np.ndarray
    col_counts: np.ndarray
    l_col_ptr: np.ndarray
    l_row_idx: np.ndarray
    nnz_L: int
    a_col_ptr: np.ndarray
    a_row_idx: np.ndarray
    a_slots: np.ndarray = field(init=False)

    def __post_init__(self):
        slots = self.locate(self.a_row_idx, _entry_columns(self.a_col_ptr))
        if (slots < 0).any():
            raise PatternMismatchError(
                "the analyzed matrix has an entry off the pattern of L")
        slots = slots.astype(np.min_scalar_type(self.nnz_L))
        slots.flags.writeable = False
        object.__setattr__(self, "a_slots", slots)

    @cached_property
    def lower_keys(self) -> np.ndarray:
        """Keys ``col * n + row`` of the strictly-lower pattern in storage
        order, closed by the sentinel ``n * n``; built with the factor (the
        slots of ``a_slots`` are found with them) and kept (read-only) for
        its life, one per stored entry of L, in the smallest unsigned type
        that holds the sentinel.  Keys looked up are cast to that type, so
        that ``np.searchsorted`` never converts this array.

        Columns are stored in order with ascending rows, so the keys come
        out sorted.  Every position below the diagonal has a key below the
        sentinel: ``np.searchsorted`` of such keys always yields an index
        into this array, and a position is in the pattern exactly when the
        key found there equals its own.
        """
        n = self.n
        keys = np.append(_entry_columns(self.l_col_ptr) * n + self.l_row_idx, n * n)
        keys = keys.astype(np.min_scalar_type(n * n))
        keys.flags.writeable = False
        return keys

    @cached_property
    def supernodes(self) -> np.ndarray:
        """The fundamental-supernode partition: supernode b holds the
        columns ``supernodes[b]:supernodes[b + 1]``, read-only, in the
        smallest unsigned type that holds n.

        Column j + 1 joins the supernode of column j when parent(j) = j + 1,
        m_{j+1} = m_j - 1 and j + 1 has no other child (Liu, Ng & Peyton
        1993).  The pattern of each column is then the next column plus the
        next column's pattern, so a supernode of width w whose last column
        has the pattern R is one dense (w + |R|)-by-w front, and only its
        first column can have children outside it.
        """
        n, parent, m = self.n, self.parent, self.col_counts
        children = np.bincount(parent[parent >= 0], minlength=n)
        joins = ((parent[:-1] == np.arange(1, n)) & (m[1:] == m[:-1] - 1)
                 & (children[1:] == 1))
        starts = np.flatnonzero(np.concatenate(([n > 0], ~joins)))
        out = np.append(starts, n).astype(np.min_scalar_type(n))
        out.flags.writeable = False
        return out

    @cached_property
    def block_updates(self) -> BlockUpdates:
        """The factorization's schedule over the Schur updates that each
        supernode takes in (see :class:`BlockUpdates`).  Built with array
        work on the first factorization, with no Python loop per
        supernode, and kept for the factor's life."""
        ptr, cols, first, length, inside = _updates(self)
        width = np.diff(self.supernodes.astype(np.int64))
        arrays = (cols, *_schedule(self, width, ptr, first, length, inside))
        for a in arrays:
            a.flags.writeable = False
        return BlockUpdates(*arrays)

    @cached_property
    def selinv_sweep(self) -> SelinvSweep:
        """The selected inversion's walk over the supernodes and the
        places of its gathers (see :class:`SelinvSweep`), built on the
        first selected inversion and kept for the factor's life.

        The order is one Python walk over the swept supernodes, the
        places one ``searchsorted`` of the keys of the positions (i, p)
        of the last columns' rows against :attr:`lower_keys`.  The
        pattern of a factor is closed: pattern(j) minus p = parent(j)
        lies inside pattern(p).  A row missing there raises
        PatternMismatchError: the search checks the swept last columns;
        a multi-column supernode's other columns j, whose parent is
        j + 1, have the pattern ``[j + 1] + pattern(j + 1)`` when closed,
        which one comparison of their rows with the next columns' checks;
        and :attr:`leaf_batches` checks the leaves.  The comparison holds
        at most two int64 arrays of nnz(L) entries at once, besides
        boolean masks.
        """
        bounds = self.supernodes.astype(np.int64)
        colptr, rows, parent, n = (self.l_col_ptr, self.l_row_idx,
                                   self.parent, self.n)
        counts = np.diff(colptr)
        # a multi-column supernode's columns but its last, after their
        # first row, against the next columns' rows (the last column of
        # all is never inner, so the roll brings in no column)
        inner = np.ones(n, dtype=bool)
        inner[bounds[1:] - 1] = False
        tail = np.repeat(inner, counts)
        tail[colptr[:-1][inner]] = False
        closed = np.array_equal(rows[tail],
                                rows[np.repeat(np.roll(inner, 1), counts)])
        del tail

        # the swept supernodes depth-first, children ascending
        up = _supernode_parents(self)
        swept = np.ones(up.size, dtype=bool)
        swept[np.searchsorted(bounds, self.leaves)] = False
        children: list[list[int]] = [[] for _ in range(up.size + 1)]
        for b, p in zip(np.flatnonzero(swept).tolist(), up[swept].tolist()):
            children[p].append(b)           # roots go to children[-1]
        order: list[int] = []
        stack = children[-1][::-1]
        while stack:
            b = stack.pop()
            order.append(b)
            stack.extend(reversed(children[b]))
        order = np.array(order, dtype=np.int64)
        # a front is kept for the swept children and dropped after the
        # last of them, the highest
        above = up[order]
        child = above >= 0
        last = np.full(up.size, -1)
        np.maximum.at(last, above[child], order[child])
        keep = np.bincount(above[child], minlength=up.size)[order] > 0
        drop = child & (last[above] == order)

        # the places of the last columns' rows: the first is p itself, the
        # others are found in column p
        end = bounds[order + 1] - 1
        p = parent[end]
        q = counts[end]
        keys = np.repeat(p * n, q)
        keys += rows[_segments(colptr[end], q)]
        keys = keys.astype(self.lower_keys.dtype)
        at = np.searchsorted(self.lower_keys, keys)
        found = self.lower_keys[at] == keys     # (i, p) is stored in column p
        del keys
        at -= np.repeat(colptr[p] - 1, q)
        first = _starts(q)[:-1][q > 0]
        found[first] = True
        at[first] = 0
        if not (closed and found.all()):
            raise PatternMismatchError(
                "selected pattern is not closed: a row of a column is "
                "missing from its parent's pattern")
        steps = np.column_stack((bounds[order], end + 1, np.where(child, p, n),
                                 keep, drop)).astype(np.min_scalar_type(n))
        places = at.astype(np.min_scalar_type(int(self.col_counts.max(initial=1))))
        for a in (steps, places):
            a.flags.writeable = False
        return SelinvSweep(steps, places)

    @cached_property
    def leaves(self) -> np.ndarray:
        """The leaves, ascending, as int64, read-only: the width-1
        supernodes without a child in the elimination tree.  No column
        updates a leaf, and no column reads a leaf's entries of Z or of a
        solve's backward sweep, so every kernel does the leaves as the
        batches of :attr:`leaf_batches`, outside its loop.  Built on first
        use and kept for the factor's life."""
        bounds, parent = self.supernodes, self.parent
        children = np.bincount(parent[parent >= 0], minlength=self.n)
        alone = bounds[:-1][np.diff(bounds) == 1].astype(np.int64)
        out = alone[children[alone] == 0]
        out.flags.writeable = False
        return out

    @cached_property
    def leaf_batches(self) -> LeafBatches:
        """The layout of the columns that the kernels do outside their
        loops: the leaves with q >= 1 entries below the diagonal, in
        batches (see :class:`LeafBatches`).  Built on first use (the first
        factorization) and kept for the factor's life.

        One ``searchsorted`` per batch against :attr:`lower_keys`, with
        the keys formed in its own type: P is sorted, so P[a] < P[b] and
        ``P[a] * n + P[b]`` is the key.  A pair missing from the pattern
        (it is not closed) raises PatternMismatchError.
        """
        leaves = self.leaves
        q = self.col_counts[leaves] - 1
        leaves, q = leaves[q > 0], q[q > 0]
        order = np.argsort(q, kind="stable")
        leaves, q = leaves[order], q[order]
        starts = np.flatnonzero(np.diff(q, prepend=0)).tolist()
        colptr, rows, keys = self.l_col_ptr, self.l_row_idx, self.lower_keys
        kind = np.min_scalar_type(self.nnz_L)
        at_all = np.empty(int(q.sum()), dtype=kind)
        slots_all = np.empty(int((q * (q - 1) // 2).sum()), dtype=kind)
        # each batch's q and slices of the leaves, entries and pairs; the
        # views are taken once the flat arrays are read-only
        cuts = []
        e0 = p0 = 0
        for g0, g1 in zip(starts, starts[1:] + [q.size]):
            k = int(q[g0])
            step = max(1, _LEAF_BATCH // (k * k))
            upper, lower = _upper_pairs(k)
            for t in range(g0, g1, step):
                cols = leaves[t:min(t + step, g1)]
                e1 = e0 + cols.size * k
                p1 = p0 + cols.size * upper.size
                at = colptr[cols][:, None] + np.arange(k)
                pattern = rows[at].astype(keys.dtype)
                want = pattern[:, upper] * self.n + pattern[:, lower]
                found = np.searchsorted(keys, want)
                if not np.array_equal(keys[found], want):
                    raise PatternMismatchError(
                        "selected pattern is not closed: a pair of a leaf's "
                        "pattern is missing from L")
                at_all[e0:e1] = at.ravel()
                slots_all[p0:p1] = found.ravel()
                cuts.append((k, slice(t, t + cols.size), slice(e0, e1),
                             slice(p0, p1)))
                e0, p0 = e1, p1
        for a in (leaves, at_all, slots_all):
            a.flags.writeable = False
        batches = tuple(
            (k, leaves[t], at_all[e].reshape(-1, k),
             slots_all[p].reshape(t.stop - t.start, k * (k - 1) // 2))
            for k, t, e, p in cuts)
        return LeafBatches(batches, leaves, at_all, slots_all)

    def require_pattern(self, a: SparseSymmetric):
        """Raise unless ``a`` has exactly the pattern this factor was
        analyzed on: SizeMismatchError for another dimension,
        PatternMismatchError for any other pattern, a strict subpattern
        included."""
        if a.n != self.n:
            raise SizeMismatchError(
                f"symbolic factor is for n={self.n}, matrix has n={a.n}")
        if not (np.array_equal(a.col_ptr, self.a_col_ptr)
                and np.array_equal(a.row_idx, self.a_row_idx)):
            raise PatternMismatchError(
                "matrix pattern differs from the one the symbolic factor was "
                "analyzed on")

    def locate(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Where each entry (rows[k], cols[k]) lives in the factor's storage.

        Indices are original ones, either triangle.  The slots index the
        strictly-lower storage followed by the diagonal, that is
        ``np.concatenate([l_values, d])`` of a factor or
        ``np.concatenate([z_values, z_diag])`` of a selected inverse: an
        entry below the diagonal gets its position in ``l_row_idx``, a
        diagonal entry ``nnz_L - n`` plus its permuted index.  An entry off
        the pattern gets -1; each caller decides what that means.  One
        ``searchsorted`` against :attr:`lower_keys`.
        """
        inv = self.perm.inverse
        pr, pc = inv[rows], inv[cols]
        lo, hi = np.minimum(pr, pc), np.maximum(pr, pc)
        want = lo * self.n + hi
        keys = self.lower_keys
        at = np.searchsorted(keys, want.astype(keys.dtype))
        slots = np.where(keys[at] == want, at, -1)
        on = lo == hi
        slots[on] = self.l_row_idx.size + lo[on]
        return slots


def symbolic_factor(a: SparseSymmetric, p: Permutation) -> SymbolicFactor:
    """Full symbolic analysis of ``a`` under the ordering ``p``.

    Works on the permuted indices of ``a``'s entries; PAP^T is never
    formed.
    """
    if p.n != a.n:
        raise SizeMismatchError(f"permutation size {p.n} != matrix size {a.n}")
    pr, pc = p.inverse[a.row_idx], p.inverse[_entry_columns(a.col_ptr)]
    parent, l_col_ptr, l_row_idx = _row_subtrees(
        a.n, np.maximum(pr, pc), np.minimum(pr, pc))
    counts = np.diff(l_col_ptr) + 1
    return SymbolicFactor(
        n=a.n,
        perm=p,
        parent=parent,
        col_counts=counts,
        l_col_ptr=l_col_ptr,
        l_row_idx=l_row_idx,
        nnz_L=int(counts.sum()),
        a_col_ptr=a.col_ptr,
        a_row_idx=a.row_idx,
    )


def selinv_flops_from_ldlt(ldlt_flops: int, nnz_l: int, n: int) -> int:
    """Selected-inversion work implied by factorization work.

    Both kernels walk the same column structure, so the inversion count is
    determined by the factorization count alone:

        selinv_flops = 2 * ldlt_flops - (nnz_L - n)

    Plain integer arithmetic; usable on reported counts without redoing the
    symbolic analysis.
    """
    return 2 * int(ldlt_flops) - (int(nnz_l) - int(n))


def predict_flops(sym: SymbolicFactor) -> tuple[int, int]:
    """A-priori multiply-add counts (factorization, selected inversion),
    each summed from its kernel's own cost per column; ``seldet analyze``
    checks them against :func:`selinv_flops_from_ldlt`."""
    m = sym.col_counts.astype(object)  # exact integer arithmetic
    q = m - 1
    return int(np.sum(m * m)) - sym.n, int(np.sum(2 * q * q + 3 * q))
