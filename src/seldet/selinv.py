"""Selected inversion: entries of the inverse on the factor's pattern.

The inverse of a sparse SPD matrix is dense, but the trace identities
used for log-determinant derivatives only ever read it at positions where
the matrix itself (in fact, where its factor L) is structurally nonzero.
Those entries satisfy a closed recurrence in terms of L and D alone:

    Z_ij = -sum_{k in pattern(col j)} Z_ik * L_kj          (i in pattern(col j))
    Z_jj = 1/d_j - sum_{k in pattern(col j)} L_kj * Z_kj

swept over columns right to left, one Python iteration per column.  Every
Z_ik the recurrence reads lies on the already-computed part of the
pattern: for i, k both in column j's pattern with i > k, position (i, k)
is structural in column k — the same closure that creates fill during
factorization guarantees it here.  So column j gathers its whole q-by-q
block Z[pat, pat] at once: the keys col*n + row of the pattern are
sorted by the storage order and built once per symbolic factor, and one
``searchsorted`` of the q(q-1)/2 pair keys finds every off-diagonal
entry.  A pair key that is not found means the pattern is not closed, and
raises PatternMismatchError.  The column is then one dense product.

Instrumented cost per column with q below-diagonal entries, added as the
loop performs it: the block product costs 2q^2 (multiply-accumulate from
zero), the sign flip q, and the diagonal update 2q — in total 2q^2 + 3q,
which summed over columns equals the symbolic prediction
2*(sum m^2 - n) - (nnz_L - n) exactly.  The gather moves values and is
not counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    PatternMismatchError,
    SingularMatrixError,
    TooLargeError,
)
from .numeric import LdlFactor
from .sparse_core import Permutation, SparseSymmetric
from .symbolic import SymbolicFactor

__all__ = ["SelectedInverse", "selected_inverse", "get_entry", "dense_inverse_oracle"]

DENSE_ORACLE_LIMIT = 500


@dataclass(frozen=True)
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
    n = sym.n
    colptr, rows = sym.l_col_ptr.tolist(), sym.l_row_idx
    lv = f.l_values
    z = np.empty(rows.size)
    z_diag = 1.0 / f.d
    keys = sym.lower_keys
    # The pairs of tril_indices(q_max, -1) come row by row, so those of any
    # q <= q_max are its first q(q-1)/2: one array, the size of the largest
    # block, serves every column.
    q_max = int(np.diff(sym.l_col_ptr).max(initial=0))
    pair_a, pair_b = np.tril_indices(q_max, -1)
    flops = 0

    for j in range(n - 1, -1, -1):
        lo, hi = colptr[j], colptr[j + 1]
        q = hi - lo
        if q == 0:
            continue
        pat = rows[lo:hi]
        lcol = lv[lo:hi]
        # Gather the symmetric q-by-q block Z[pat, pat] from the columns
        # already computed (all have index > j): one search of the keys of
        # its strictly-lower pairs (pat[a], pat[b]), a > b.
        m = q * (q - 1) // 2
        ia, ib = pair_a[:m], pair_b[:m]
        want = pat[ib] * n + pat[ia]
        at = np.searchsorted(keys, want)
        if (keys[at] != want).any():
            raise PatternMismatchError(
                "selected pattern is not closed under the recurrence")
        block = np.empty((q, q))
        block[ia, ib] = block[ib, ia] = z[at]
        idx = np.arange(q)
        block[idx, idx] = z_diag[pat]
        w = block @ lcol
        flops += 2 * q * q
        zcol = -w
        flops += q
        z[lo:hi] = zcol
        z_diag[j] -= lcol @ zcol
        flops += 2 * q

    return SelectedInverse(sym=sym, z_values=z, z_diag=z_diag, flops=flops)


def get_entry(zsel: SelectedInverse, i: int, j: int) -> float | None:
    """Entry (i, j) of the inverse in ORIGINAL indices, or None if the
    position is off the selected pattern (not computed — the true inverse
    is dense, so absence never means zero)."""
    n = zsel.n
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
