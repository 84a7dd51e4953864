"""Selected inversion: entries of the inverse on the factor's pattern.

The inverse of a sparse SPD matrix is dense, but the trace identities
used for log-determinant derivatives only ever read it at positions where
the matrix itself (in fact, where its factor L) is structurally nonzero.
Those entries satisfy a closed recurrence in terms of L and D alone:

    Z_ij = -sum_{k in pattern(col j)} Z_ik * L_kj          (i in pattern(col j))
    Z_jj = 1/d_j - sum_{k in pattern(col j)} L_kj * Z_kj

Column j needs the whole q-by-q block Z[pat, pat] of its pattern, and
every row of the pattern is an ancestor of j in the elimination tree.

The sweep runs one Python iteration per fundamental supernode other
than a leaf (``SymbolicFactor.supernodes``), parents before children:
the steps of ``SymbolicFactor.selinv_sweep``, a depth-first preorder of
the supernodal elimination tree, children ascending.  It keeps the
front of each finished supernode: the dense Z[F, F] with F = [s] +
pattern(s) for its first column s.  Inside a supernode of w columns,
column s + c has the trailing rows c + 1: of F as its pattern, so its
block is the trailing square of the front and is read in place: the
columns run last to first, each one matrix-vector product on a
contiguous trailing slice of the one front, which then serves the
supernode's children.  Only a supernode's first column can have children
outside it.  Each supernode gathers the block of its last column's
pattern once from its parent's front, with two ``take`` calls through
the places that the plan holds for that column's rows, and for no other
column's (Liu 1992's relative indices; SelInv, Lin et al. 2011, reads
its blocks the same way).  A width-1 supernode is one column step.  Each
step says whether the supernode keeps its front (a width-1 supernode
whose children are all leaves keeps none) and whether it is the last
to gather from its parent's front, which then goes.  The plan depends
on the pattern only: it is built on the first call and kept on the
symbolic factor, so an analysis that evaluates many parameter points
builds it once.  A pattern that is not closed has no plan, and raises
PatternMismatchError.

The leaves (``SymbolicFactor.leaves``: the width-1 supernodes without a
child in the elimination tree) are most of the columns and little of the
work: 2 443 of 3 362 columns and 4.7 % of the forecast on the C of the
benchmark's ``reml_fit`` under AMD.  No column reads a leaf's entries, and a leaf's pattern holds
ancestors only, which are all finished when the sweep ends.  So the
sweep leaves them out, and they do not count as children that keep a
front alive.  After it they run in the batches of
``SymbolicFactor.leaf_batches``, G leaves with q rows each at a time,
each batch with the storage positions of its columns and the slots of
the pairs of their patterns: a (G, q, q) stack of their blocks Z[P, P]
is filled from ``z_values`` at the slots and from ``z_diag[P]``, one
``np.matmul`` of the stack by the (G, q, 1) columns of L gives their
columns of Z, and one ``np.matmul`` of (G, 1, q) by (G, q, 1) their
diagonal updates.  numpy runs each slice of those products as the same
gemv and dot that a column step issues, so the values are the column
step's to the bit; an ``einsum`` or a row-major (G, q) product sums in
another order and is not.  A batch holds at most 2^15 block entries
(0.25 MB).  A selected inversion went from 57.0 to 31.8 ms on the
``reml_fit`` C and from 69.5 to 53.2 ms on the 72x72 AR1 (x) AR1 field
(medians of 41 calls alternated with the sweep over every column in one
process, 2 vCPU).  The batches are views into the one leaf layout that
the factorization reads too, pattern work built with the first
factorization of a pattern and kept on the symbolic factor: 0.73 MB on
that C and 0.18 MB on the field.  The factorization pairs a batch's
entries through the same ``np.triu_indices`` as the stacks here.

A front is dropped as soon as its last child has gathered from it, so
the fronts held at any time belong to ancestors of the current supernode
that still have a child to visit: 0.43 MB at most on a prob1 C under
AMD, against 31 MB when the columns run in reverse index order.  The
arithmetic is the column-by-column sweep's, on the same values: given
the same factor, the output is bit-identical to it.  Reading the blocks
in place cut the sweep from 0.072 to 0.061 s on the C of the
benchmark's ``reml_fit`` and from 0.114 to 0.075 s on the 72x72 AR1 (x)
AR1 field (2 vCPU, medians of 11).

Instrumented cost per column with q below-diagonal entries, added as the
loop or a batch of leaves performs it: the block product costs 2q^2
(multiply-accumulate from zero), the sign flip q, and the diagonal
update 2q — in total 2q^2 + 3q, which summed over columns equals the
symbolic prediction 2*(sum m^2 - n) - (nnz_L - n) exactly.  The gathers,
the front copies and the filling of the leaves' stacks move values and
are not counted, and no padded work is issued: every product reads the
block of a column's own pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    SingularMatrixError,
    TooLargeError,
)
from .numeric import LdlFactor
from .sparse_core import Permutation, SparseSymmetric, _index_array, _upper_pairs
from .symbolic import SymbolicFactor

__all__ = ["SelectedInverse", "selected_inverse", "get_entry", "dense_inverse_oracle"]

DENSE_ORACLE_LIMIT = 500


@dataclass(frozen=True, eq=False)
class SelectedInverse:
    """Entries of Z = A^-1 on the selected pattern (L's pattern + diagonal).

    ``z_values`` aligns with the strictly-lower symbolic pattern of L;
    ``z_diag`` holds the diagonal.  Indices are in PERMUTED coordinates;
    use :func:`get_entry` to query with original indices.
    """

    sym: SymbolicFactor
    z_values: np.ndarray
    z_diag: np.ndarray
    flops: int

    @property
    def n(self) -> int:
        return self.sym.n

    @property
    def perm(self) -> Permutation:
        return self.sym.perm


def selected_inverse(f: LdlFactor) -> SelectedInverse:
    """Compute the selected inverse from an LDL^T factor."""
    sym = f.sym
    colptr = sym.l_col_ptr.tolist()
    # the pattern's maps first (built on the first call), so that their
    # builds do not stack on the work arrays
    sweep, batches = sym.selinv_sweep, sym.leaf_batches.batches
    places = sweep.places
    lv = f.l_values
    z = np.empty(lv.size)
    z_diag = 1.0 / f.d
    fronts: dict[int, np.ndarray] = {}
    flops = x = 0

    for s, e, p, keep, drop in sweep.steps.tolist():
        lo, hi = colptr[e - 1], colptr[e]
        q = hi - lo
        if q:
            r = places[x:x + q]
            x += q
            block = fronts[p].take(r, 0).take(r, 1)
            if drop:
                del fronts[p]
        if e - s == 1 and not keep:
            # a single column whose children are all leaves keeps no front
            if q:
                flops += _column(s, block, lv[lo:hi], z[lo:hi], z_diag)
            continue
        size = e - s + q
        front = np.empty((size, size))
        if q:
            front[-q:, -q:] = block
        # column s + c has the rows c + 1: of the front as its pattern, so
        # its block is the front's trailing square, read in place
        for c in range(e - s - 1, -1, -1):
            j = s + c
            lo, hi = colptr[j], colptr[j + 1]
            if hi > lo:
                flops += _column(j, front[c + 1:, c + 1:], lv[lo:hi], z[lo:hi],
                                 z_diag)
                front[c, c + 1:] = front[c + 1:, c] = z[lo:hi]
            front[c, c] = z_diag[j]
        if keep:
            fronts[s] = front

    # the leaves, G with q rows each at a time: each slice of the stacked
    # products is the column step's own gemv and dot.  Each batch's
    # unsigned index arrays are cast to intp once, which indexes faster
    # than numpy's buffered casts
    rows = sym.l_row_idx
    for q, cols, at, slots in batches:
        at, slots = at.astype(np.intp), slots.astype(np.intp)
        block = np.empty((cols.size, q, q))
        upper, lower = _upper_pairs(q)
        block[:, upper, lower] = block[:, lower, upper] = z[slots]
        block[:, np.arange(q), np.arange(q)] = z_diag[rows[at]]
        lcol = lv[at][:, :, None]
        zcol = np.matmul(block, lcol)
        np.negative(zcol, out=zcol)
        z[at] = zcol[:, :, 0]
        z_diag[cols] -= np.matmul(lcol.transpose(0, 2, 1), zcol)[:, 0, 0]
        flops += cols.size * (2 * q * q + 3 * q)

    return SelectedInverse(sym=sym, z_values=z, z_diag=z_diag, flops=flops)


def _column(j: int, block: np.ndarray, lcol: np.ndarray, zcol: np.ndarray,
            z_diag: np.ndarray) -> int:
    """Column j of Z from the q-by-q block Z[pattern, pattern] of its
    pattern: writes Z[pattern, j] into ``zcol`` and updates Z_jj; returns
    the flops, 2q^2 + 3q."""
    q = lcol.size
    w = block @ lcol
    np.negative(w, out=zcol)
    z_diag[j] -= lcol @ zcol
    return 2 * q * q + q + 2 * q


def get_entry(zsel: SelectedInverse, i: int, j: int) -> float | None:
    """Entry (i, j) of the inverse in ORIGINAL indices, or None if the
    position is off the selected pattern (not computed — the true inverse
    is dense, so absence never means zero)."""
    n = zsel.n
    i, j = _index_array([i, j], "(i, j)", IndexOutOfRangeError).tolist()
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRangeError(f"index ({i},{j}) outside 0..{n - 1}")
    slot = int(zsel.sym.locate(np.array([i]), np.array([j]))[0])
    if slot < 0:
        return None
    nnz = zsel.z_values.size
    return float(zsel.z_values[slot] if slot < nnz else zsel.z_diag[slot - nnz])


def dense_inverse_oracle(a: SparseSymmetric) -> np.ndarray:
    """Full inverse by dense elimination; guarded to n <= 500.

    Reference path for tests and the CLI --verify flag only.
    """
    if a.n > DENSE_ORACLE_LIMIT:
        raise TooLargeError(
            f"dense inverse limited to n <= {DENSE_ORACLE_LIMIT}, got n = {a.n}")
    dense = a.to_dense()
    try:
        return np.linalg.inv(dense)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
