"""Structure-only analysis of a permuted symmetric matrix.

Everything here looks only at patterns, never at values, under the
no-cancellation convention: a structural entry whose value happens to be
zero is treated as nonzero.  The analysis produces the elimination tree,
per-column nonzero counts m_i of the factor L, the explicit pattern of L,
and the two a-priori FLOP predictions

    ldlt_flops   = sum(m_i^2) - n
    selinv_flops = 2 * ldlt_flops - (nnz_L - n)

that the numeric kernels are instrumented to match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CycleDetectedError, IndexOutOfRangeError, SizeMismatchError
from .sparse_core import Permutation, SparseSymmetric, permute_symmetric

__all__ = [
    "SymbolicFactor",
    "elimination_tree",
    "postorder",
    "column_counts",
    "symbolic_factor",
    "predict_flops",
    "selinv_flops_from_ldlt",
]


def _row_lists(a: SparseSymmetric) -> list[np.ndarray]:
    """For each row k, the column indices j < k of its stored entries.

    This is the strictly-lower pattern of ``a`` grouped by row instead of
    by column — the orientation both the elimination-tree scan and the
    row-subtree traversals consume.
    """
    if a.n == 0:
        return []
    rows, cols, _ = a.triplets()
    off = rows != cols
    rows, cols = rows[off], cols[off]
    order = np.argsort(rows, kind="stable")  # cols already ascend per row
    rows, cols = rows[order], cols[order]
    counts = np.bincount(rows, minlength=a.n)
    splits = np.cumsum(counts)[:-1]
    return np.split(cols, splits)


def elimination_tree(a: SparseSymmetric) -> np.ndarray:
    """Parent array of the elimination forest of ``a`` (roots get -1).

    parent[j] = min{ i > j : L_ij != 0 } for the no-cancellation factor L,
    found by the standard path-compression ancestor scan without forming L.
    """
    n = a.n
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for k, row in enumerate(_row_lists(a)):
        for j in row:
            j = int(j)
            while j != -1 and j < k:
                nxt = ancestor[j]
                ancestor[j] = k
                if nxt == -1:
                    parent[j] = k
                j = int(nxt)
    return parent


def postorder(parent: np.ndarray) -> Permutation:
    """Postorder of a forest: children (ascending) before their parent.

    Raises CycleDetectedError if ``parent`` does not describe a forest.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    if n and (parent.max() >= n or parent.min() < -1):
        raise IndexOutOfRangeError("parent index outside -1..n-1")
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for j in range(n):
        p = int(parent[j])
        if p == -1:
            roots.append(j)
        else:
            children[p].append(j)
    order = np.empty(n, dtype=np.int64)
    k = 0
    for r in roots:
        # iterative DFS; push children reversed so the smallest pops first
        stack = [(r, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order[k] = node
                k += 1
            else:
                stack.append((node, True))
                for c in reversed(children[node]):
                    stack.append((c, False))
    if k != n:
        raise CycleDetectedError("parent array contains a cycle")
    return Permutation(order)


def column_counts(a: SparseSymmetric, parent: np.ndarray) -> np.ndarray:
    """Nonzero count (diagonal included) of each column of L.

    Computed by walking, for every row k, the row subtree: the paths from
    each entry j (A_kj structural, j < k) up the elimination tree toward k.
    Each tree node visited contributes one below-diagonal entry L_kj.
    """
    n = a.n
    counts = np.ones(n, dtype=np.int64)
    visited = np.full(n, -1, dtype=np.int64)
    for k, row in enumerate(_row_lists(a)):
        visited[k] = k
        for j in row:
            j = int(j)
            while j != -1 and visited[j] != k:
                counts[j] += 1
                visited[j] = k
                j = int(parent[j])
    return counts


@dataclass(frozen=True)
class SymbolicFactor:
    """Pattern-level factorization plan for PAP^T.

    ``l_col_ptr``/``l_row_idx`` hold the strictly-lower pattern of L; the
    unit diagonal is implicit, so ``col_counts[j]`` equals one plus the
    j-th pattern segment length and ``nnz_L`` sums the diagonal back in.
    """

    n: int
    perm: Permutation
    parent: np.ndarray
    col_counts: np.ndarray
    l_col_ptr: np.ndarray
    l_row_idx: np.ndarray
    nnz_L: int

    @property
    def ldlt_flops(self) -> int:
        return predict_flops(self)[0]

    @property
    def selinv_flops(self) -> int:
        return predict_flops(self)[1]

    @cached_property
    def lower_keys(self) -> np.ndarray:
        """Keys ``col * n + row`` of the strictly-lower pattern in storage
        order, closed by the sentinel ``n * n``; built on first use and
        kept (read-only) for the life of this factor.

        Columns are stored in order with ascending rows, so the keys come
        out sorted.  Every position below the diagonal has a key below the
        sentinel: ``np.searchsorted`` of such keys always yields an index
        into this array, and a position is in the pattern exactly when the
        key found there equals its own.
        """
        n = self.n
        keys = np.empty(self.l_row_idx.size + 1, dtype=np.int64)
        col_base = np.repeat(np.arange(n, dtype=np.int64) * n,
                             np.diff(self.l_col_ptr))
        np.add(col_base, self.l_row_idx, out=keys[:-1])
        keys[-1] = n * n
        keys.flags.writeable = False
        return keys


def symbolic_factor(a: SparseSymmetric, p: Permutation) -> SymbolicFactor:
    """Full symbolic analysis of ``a`` under the ordering ``p``."""
    if p.n != a.n:
        raise SizeMismatchError(f"permutation size {p.n} != matrix size {a.n}")
    ap = permute_symmetric(a, p)
    n = ap.n
    parent = elimination_tree(ap)
    # Row-subtree walk again, this time materializing the pattern: row k
    # lands in column j of L for every j in k's row subtree.  Since k only
    # grows, each column's row list comes out already sorted.
    cols: list[list[int]] = [[] for _ in range(n)]
    visited = np.full(n, -1, dtype=np.int64)
    for k, row in enumerate(_row_lists(ap)):
        visited[k] = k
        for j in row:
            j = int(j)
            while j != -1 and visited[j] != k:
                cols[j].append(k)
                visited[j] = k
                j = int(parent[j])
    lens = np.asarray([len(c) for c in cols], dtype=np.int64)
    l_col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=l_col_ptr[1:])
    l_row_idx = (np.concatenate([np.asarray(c, dtype=np.int64) for c in cols])
                 if n else np.empty(0, dtype=np.int64))
    counts = lens + 1
    return SymbolicFactor(
        n=n,
        perm=p,
        parent=parent,
        col_counts=counts,
        l_col_ptr=l_col_ptr,
        l_row_idx=l_row_idx,
        nnz_L=int(counts.sum()),
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
    """A-priori multiply-add counts (factorization, selected inversion)."""
    m = sym.col_counts.astype(object)  # exact integer arithmetic
    ldlt = int(np.sum(m * m)) - sym.n
    return ldlt, selinv_flops_from_ldlt(ldlt, sym.nnz_L, sym.n)
