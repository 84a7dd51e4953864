"""Selected inversion: entries of the inverse on the factor's pattern.

The inverse of a sparse SPD matrix is dense, but the trace identities
used for log-determinant derivatives only ever read it at positions where
the matrix itself (in fact, where its factor L) is structurally nonzero.
Those entries satisfy a closed recurrence in terms of L and D alone:

    Z_ij = -sum_{k in pattern(col j)} Z_ik * L_kj          (i in pattern(col j))
    Z_jj = 1/d_j - sum_{k in pattern(col j)} L_kj * Z_kj

one Python iteration per column.  Column j needs the whole q-by-q block
Z[pat, pat] of its pattern, and every row of the pattern is an ancestor
of j in the elimination tree.  The sweep keeps, for each finished column
j, its front: the dense Z[F_j, F_j] with F_j = [j] + pattern(j).  The
pattern of L is closed, so pattern(j) lies inside F_p for p = parent(j),
and column j gathers its block from the parent's front with two ``take``
calls through ``SymbolicFactor.parent_positions`` (Liu 1992's relative
indices; SelInv, Lin et al. 2011, reads its blocks the same way).  That
map and the traversal order, ``SymbolicFactor.preorder``, depend on the
pattern only: they are built on the first call and kept on the symbolic
factor, so a plan that evaluates many parameter points builds them once.
A pattern that is not closed has no map, and raises PatternMismatchError.

The columns run in a depth-first preorder, parents before children.  A
front is stored only for a column with children, and dropped as soon as
its last child has gathered from it, so the fronts held at any time
belong to ancestors of the current column that still have a child to
visit: 0.43 MB at most on a prob1 C under AMD, against 31 MB when the
columns run in reverse index order.  Gathering the blocks of each
parent's leaf children in one batch was measured slower on prob1 under
AMD (0.055 to 0.077 s), so every column gathers its own.

Instrumented cost per column with q below-diagonal entries, added as the
loop performs it: the block product costs 2q^2 (multiply-accumulate from
zero), the sign flip q, and the diagonal update 2q — in total 2q^2 + 3q,
which summed over columns equals the symbolic prediction
2*(sum m^2 - n) - (nnz_L - n) exactly.  The gathers and the front copies
move values and are not counted.
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
from .sparse_core import Permutation, SparseSymmetric, _index_array
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
    parent = sym.parent.tolist()
    pos = sym.parent_positions
    lv = f.l_values
    z = np.empty(lv.size)
    z_diag = 1.0 / f.d
    # children that have yet to gather from each column's front
    pending = np.bincount(sym.parent[sym.parent >= 0], minlength=sym.n).tolist()
    fronts: dict[int, np.ndarray] = {}
    flops = 0

    for j in sym.preorder.tolist():
        lo, hi = colptr[j], colptr[j + 1]
        q = hi - lo
        if q:
            p = parent[j]
            r = pos[lo:hi]
            block = fronts[p].take(r, 0).take(r, 1)
            pending[p] -= 1
            if not pending[p]:
                del fronts[p]
            lcol = lv[lo:hi]
            w = block @ lcol
            flops += 2 * q * q
            zcol = -w
            flops += q
            z[lo:hi] = zcol
            z_diag[j] -= lcol @ zcol
            flops += 2 * q
        if pending[j]:
            front = np.empty((q + 1, q + 1))
            front[0, 0] = z_diag[j]
            if q:
                front[0, 1:] = front[1:, 0] = zcol
                front[1:, 1:] = block
            fronts[j] = front

    return SelectedInverse(sym=sym, z_values=z, z_diag=z_diag, flops=flops)


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
