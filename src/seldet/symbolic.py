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
in batches outside their loops.  The layout also holds the twigs, the
single columns whose children are all leaves, which the factorization
and the solve do outside their loops too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import PatternMismatchError, SizeMismatchError
from .sparse_core import (Permutation, SparseSymmetric, _entry_columns,
                          _group_by_row)

__all__ = [
    "LeafBatches",
    "SymbolicFactor",
    "symbolic_factor",
    "predict_flops",
    "selinv_flops_from_ldlt",
]

# Block entries per batch of leaves: a (G, q, q) stack of 0.25 MB at most.
# Uncut, one q-group's stack is 0.45 MB on the C of the benchmark's
# reml_fit, 1.77 MB on prob3 and 5.68 MB on prob5, all under AMD.
_LEAF_BATCH = 1 << 15


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
    type that holds ``nnz_L``).  Besides them, per entry of ``at``,
    ``rest`` is q - 1 - a, the number of pairs whose first row P[a] it
    is, and per pair ``second`` is the place of its second row P[b] in
    its batch's ``at.ravel()``, each in the smallest unsigned type that
    holds it (a batch holds at most ``max(_LEAF_BATCH, q)`` entries): the
    pairs come leaf by leaf in the order of ``np.triu_indices``, so that
    for values ``v`` over a batch's entries, ``v.repeat(rest)`` and
    ``v[second]`` line up with its slots.

    The twigs are the width-1 supernodes with children, all of them
    leaves (int64, ascending).  Once the leaves' updates are in, a twig's
    column is final: its own updaters are its children.

    All arrays are read-only.  On the C of the benchmark's ``reml_fit``
    under AMD (2 443 leaves, 120 twigs): 0.10 MB of positions and 0.61 MB
    of slots (151 581 pairs), and 0.33 MB for ``rest`` and ``second``;
    0.04 and 0.13 MB, and 0.08 MB, on the 72x72 AR1 (x) AR1 field
    (1 260 leaves, 678 twigs).
    """

    batches: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]
    cols: np.ndarray
    at: np.ndarray
    slots: np.ndarray
    rest: np.ndarray
    second: np.ndarray
    twigs: np.ndarray


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
    (one entry per pair of a supernode and a column other than a leaf
    that updates it), together 0.06 MB on a prob1 C, 0.04 MB on the C of
    the benchmark's ``reml_fit`` and 0.13 MB on the 72x72 AR1 (x) AR1
    field, all under AMD, and the one layout of the etree's leaves:
    :attr:`leaves` (one int64 each) and :attr:`leaf_batches` (each leaf's
    storage positions and the slots of the pairs of its pattern, in the
    smallest unsigned type that holds ``nnz_L``, an index of each pair's
    rows within its batch, and the twigs: 1.06 MB on the C of the
    benchmark's ``reml_fit`` and 0.26 MB on the field).  The selected
    inversion builds two on its first call: :attr:`preorder` (one int64
    per column) and :attr:`parent_positions` (one entry of L each, in the
    smallest unsigned type that holds the largest column count: 1 byte,
    0.10 MB, on a prob1 C under AMD).
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
    def block_updates(self) -> tuple[np.ndarray, ...]:
        """The Schur updates that each supernode takes in:
        ``(ptr, cols, first, length, inside)``, read-only.

        The columns k, not leaves, that update supernode b, with columns
        s:e, from outside it (k < s and L_jk != 0 for some j in s:e) are
        ``cols[ptr[b]:ptr[b + 1]]``, in the order of their first row in
        s:e, k ascending among equal rows.  For each, ``first`` is the
        storage position of that first entry and ``length`` the number of
        entries from there to the end of column k: its segment
        (D L)[i, k], i >= s.  ``inside`` is the number of those entries in
        the rows s:e.  For a single column j these are every L_jk, k
        ascending and not a leaf, each with its segment, and ``inside`` is
        1.  The leaves' updates are applied before the factorization's
        loop, through :attr:`leaf_batches`, so a twig's range is empty.

        Each array is in the smallest unsigned type that holds its values:
        ``ptr`` and ``first`` that of ``nnz_L``, ``cols`` that of n, and
        ``length`` and ``inside`` that of the largest column count.  One
        entry per (supernode, column) pair: 2 633 pairs, 33 KB in all, on
        the C of the benchmark's ``reml_fit`` (1 370 of them into
        multi-column supernodes; 12 017 with the leaves), and 13 900,
        122 KB, on the 72x72 AR1 (x) AR1 field, both under AMD.  Built with
        array work on the first factorization and kept for the factor's
        life.
        """
        bounds, rows = self.supernodes, self.l_row_idx
        width = np.diff(bounds.astype(np.int64))
        column = np.min_scalar_type(self.n)
        cols = np.repeat(np.arange(self.n, dtype=column), self.col_counts - 1)
        # per stored entry of L, through its row: the supernode of the row,
        # and whether the entry's column, not a leaf, updates that
        # supernode from outside
        sup_of = np.repeat(np.arange(width.size, dtype=column), width)
        block = sup_of[rows]
        updates = cols < np.repeat(bounds[:-1], width)[rows]
        branch = np.ones(self.n, dtype=bool)
        branch[self.leaves] = False
        updates &= branch[cols]
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
        # grouped by supernode, each in the order of its first row
        by_row = np.argsort(rows[first], kind="stable")
        first, inside = first[by_row], inside[by_row]
        cols = cols[first]
        kind = np.min_scalar_type(self.nnz_L)
        ptr = np.zeros(bounds.size, dtype=kind)
        np.cumsum(np.bincount(sup_of[rows[first]], minlength=width.size),
                  out=ptr[1:])
        count = np.min_scalar_type(int(self.col_counts.max(initial=1)))
        out = (ptr, cols, first.astype(kind),
               (self.l_col_ptr[cols.astype(np.int64) + 1] - first).astype(count),
               inside.astype(count))
        for a in out:
            a.flags.writeable = False
        return out

    @cached_property
    def preorder(self) -> np.ndarray:
        """The columns in a depth-first preorder of the elimination forest,
        read-only: every parent comes before its children, and a subtree
        is finished before its next sibling starts.  One int64 per column,
        built on first use and kept for the factor's life."""
        children: list[list[int]] = [[] for _ in range(self.n + 1)]
        for j, p in enumerate(self.parent.tolist()):
            children[p].append(j)           # roots go to children[-1]
        order: list[int] = []
        stack = children[-1][::-1]
        while stack:
            j = stack.pop()
            order.append(j)
            stack.extend(reversed(children[j]))
        out = np.array(order, dtype=np.int64)
        out.flags.writeable = False
        return out

    @cached_property
    def parent_positions(self) -> np.ndarray:
        """Where each row of L's pattern sits in its column's parent front.

        Column j's front is the index list ``[j] + pattern(j)``.  For a
        stored entry of column j with row i, the value is the position of
        i in the front of p = parent(j): 0 for i = p, which is the first
        row of every column's pattern, and 1 + the position of i in
        pattern(p) otherwise.  Aligned with ``l_row_idx``, in the smallest
        unsigned type that holds the largest column count, read-only,
        built on first use and kept for the factor's life: 1 byte per
        entry while no column count exceeds 255, 0.10 MB for the 96 231
        strictly-lower entries of a prob1 L under AMD.

        The pattern of a factor is closed: pattern(j) minus p lies inside
        pattern(p).  A row that is missing there raises
        PatternMismatchError.  One ``searchsorted`` of the keys of the
        positions (i, p) against :attr:`lower_keys` finds every row; the
        build holds at most two int64 arrays of nnz(L) entries at once,
        and the keys in :attr:`lower_keys`' type for the search.
        """
        colptr, rows = self.l_col_ptr, self.l_row_idx
        counts = np.diff(colptr)
        nonempty = np.flatnonzero(counts)
        first, last = colptr[nonempty], colptr[nonempty + 1] - 1
        want = np.repeat(self.parent * self.n, counts)
        want += rows                # the key of position (i, p)
        at = np.searchsorted(self.lower_keys, want.astype(self.lower_keys.dtype))
        # the row stored in each slot found, written over the keys
        np.take(rows, at, out=want, mode="clip")
        found = want == rows
        del want
        at -= np.repeat(colptr[self.parent] - 1, counts)
        found[first] = True
        at[first] = 0
        # positions grow down a column: its last one shows whether every
        # slot found lies inside the parent's column
        inside = at[last] < self.col_counts[self.parent[nonempty]]
        if not (found.all() and inside.all()):
            raise PatternMismatchError(
                "selected pattern is not closed: a row of a column is "
                "missing from its parent's pattern")
        pos = at.astype(np.min_scalar_type(int(self.col_counts.max(initial=1))))
        pos.flags.writeable = False
        return pos

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
        batches, and the twigs (see :class:`LeafBatches`).  Built on first
        use (the first factorization) and kept for the factor's life.

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
        n_entries = int(q.sum())
        n_pairs = int((q * (q - 1) // 2).sum())
        at_all = np.empty(n_entries, dtype=kind)
        slots_all = np.empty(n_pairs, dtype=kind)
        # a batch holds G q <= max(_LEAF_BATCH, q) entries
        widest = int(q.max(initial=0))
        second = np.empty(n_pairs, dtype=np.min_scalar_type(max(_LEAF_BATCH, widest)))
        rest = np.empty(n_entries, dtype=np.min_scalar_type(widest))
        # each batch's q and slices of the leaves, entries and pairs; the
        # views are taken once the flat arrays are read-only
        cuts = []
        e0 = p0 = 0
        for g0, g1 in zip(starts, starts[1:] + [q.size]):
            k = int(q[g0])
            step = max(1, _LEAF_BATCH // (k * k))
            upper, lower = np.triu_indices(k, 1)
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
                second[p0:p1] = (k * np.arange(cols.size)[:, None] + lower).ravel()
                rest[e0:e1] = np.tile(np.arange(k - 1, -1, -1), cols.size)
                cuts.append((k, slice(t, t + cols.size), slice(e0, e1),
                             slice(p0, p1)))
                e0, p0 = e1, p1
        # the twigs: the single columns, not leaves, whose children are
        # all leaves
        parent = self.parent
        branch = np.ones(self.n, dtype=bool)
        branch[self.leaves] = False
        branches = np.bincount(parent[(parent >= 0) & branch], minlength=self.n)
        bounds = self.supernodes
        alone = bounds[:-1][np.diff(bounds) == 1].astype(np.int64)
        twigs = alone[branch[alone] & (branches[alone] == 0)]
        for a in (leaves, at_all, slots_all, second, rest, twigs):
            a.flags.writeable = False
        batches = tuple(
            (k, leaves[t], at_all[e].reshape(-1, k),
             slots_all[p].reshape(t.stop - t.start, k * (k - 1) // 2))
            for k, t, e, p in cuts)
        return LeafBatches(batches, leaves, at_all, slots_all, rest,
                           second, twigs)

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
