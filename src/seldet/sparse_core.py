"""Symmetric sparse matrices in compressed-column, lower-triangle storage.

Only the lower triangle (diagonal included) is stored; the upper triangle
is implied by symmetry.  Structural entries whose value happens to be zero
are kept, because derivative matrices share the pattern of the system
matrix even where their values vanish at a particular parameter point.
"""

from __future__ import annotations

import io
import itertools
import warnings
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import (
    AsymmetricInputError,
    IndexOutOfRangeError,
    NonFiniteValueError,
    NotAPermutationError,
    ParseError,
    SeldetError,
    SizeMismatchError,
    UnsupportedFormatError,
)

__all__ = [
    "SparseSymmetric",
    "Permutation",
    "from_coo_arrays",
    "identity_matrix",
    "read_matrix_market",
    "write_matrix_market",
    "permute_symmetric",
]

# Relative tolerance for explicit (i,j)/(j,i) pairs to count as consistent.
SYMMETRY_RTOL = 1e-12
# Records that read_matrix_market parses, and write_matrix_market formats,
# at a time.
_RECORD_CHUNK = 1 << 12


def _index_array(values, name: str, error: type[SeldetError]) -> np.ndarray:
    """``values`` as contiguous int64; a value that a cast would truncate
    raises ``error`` naming ``name`` and its first such position."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        bad = np.flatnonzero(np.isinf(arr) | (arr != np.floor(arr)))
        if bad.size:
            k = int(bad[0])
            raise error(f"{name}[{k}] = {float(arr.flat[k])!r} is not an integer")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _entry_columns(col_ptr: np.ndarray) -> np.ndarray:
    """The column index of each stored entry of a compressed-column pattern."""
    return np.repeat(np.arange(col_ptr.size - 1, dtype=np.int64), np.diff(col_ptr))


def _segments(first: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions of the ranges first[t]:first[t] + lens[t],
    concatenated in order, as int64 (``lens`` in int64)."""
    ends = lens.cumsum()
    out = (first - (ends - lens)).repeat(lens)
    out += np.arange(out.size)
    return out


def _upper_pairs(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of ``np.triu_indices(q, 1)``, the pairs a < b of 0..q-1
    in row-major order, built in a quarter of its time."""
    return np.nonzero(np.arange(q)[:, None] < np.arange(q))


def _group_by_row(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Group entries by row: ``(order, row_ptr)``, where
    ``order[row_ptr[i]:row_ptr[i + 1]]`` are the indices of the entries of
    row i in the order given (a stable sort), rows in 0..n-1."""
    order = np.argsort(rows, kind="stable")
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_ptr[1:])
    return order, row_ptr


@dataclass(frozen=True, eq=False)
class SparseSymmetric:
    """Lower triangle of a symmetric matrix in compressed-column form.

    Attributes
    ----------
    n : int
        Matrix dimension.
    col_ptr : ndarray of int64, shape (n + 1,)
        Start offset of each column's entries; ``col_ptr[n]`` is the total
        number of stored entries.
    row_idx : ndarray of int64
        Row indices, strictly increasing within each column, all >= the
        column index.
    values : ndarray of float64
        Entry values aligned with ``row_idx``.
    """

    n: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        col_ptr = _index_array(self.col_ptr, "col_ptr", SizeMismatchError)
        row_idx = _index_array(self.row_idx, "row_idx", IndexOutOfRangeError)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "col_ptr", col_ptr)
        object.__setattr__(self, "row_idx", row_idx)
        object.__setattr__(self, "values", values)
        if self.n < 0 or col_ptr.shape != (self.n + 1,):
            raise SizeMismatchError("col_ptr must have length n + 1")
        if col_ptr[0] != 0 or col_ptr[-1] != row_idx.size or values.size != row_idx.size:
            raise SizeMismatchError("col_ptr does not index row_idx/values")
        if np.any(np.diff(col_ptr) < 0):
            raise SizeMismatchError("col_ptr must be non-decreasing")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= self.n:
                raise IndexOutOfRangeError("row index outside matrix dimension")
            cols = _entry_columns(col_ptr)
            if np.any(row_idx < cols):
                raise SizeMismatchError("entry above the diagonal in lower-triangle storage")
            # rows rise within each column exactly when the keys col * n + row
            # rise: from one column to the next they always do
            if np.any(np.diff(cols * self.n + row_idx) <= 0):
                raise SizeMismatchError("row indices must strictly increase within a column")
        for arr in (col_ptr, row_idx, values):
            arr.flags.writeable = False

    @property
    def nnz(self) -> int:
        """Number of stored (lower-triangle) entries."""
        return int(self.row_idx.size)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored entries as parallel (row, col, value) arrays."""
        return self.row_idx.copy(), _entry_columns(self.col_ptr), self.values.copy()

    def to_dense(self) -> np.ndarray:
        """Full symmetric dense matrix; intended for tests and small oracles."""
        a = np.zeros((self.n, self.n))
        rows, cols, vals = self.triplets()
        a[rows, cols] = vals
        off = rows != cols
        a[cols[off], rows[off]] = vals[off]
        return a


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection on 0..n-1; ``perm`` maps new index -> old index."""

    perm: np.ndarray
    inverse: np.ndarray = field(init=False)

    def __post_init__(self):
        perm = _index_array(self.perm, "perm", NotAPermutationError)
        object.__setattr__(self, "perm", perm)
        n = perm.size
        if n and (perm.min() < 0 or perm.max() >= n):
            raise NotAPermutationError("indices outside 0..n-1")
        counts = np.bincount(perm, minlength=n)
        if np.any(counts != 1):
            raise NotAPermutationError("indices are not a bijection")
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n, dtype=np.int64)
        inverse.flags.writeable = False
        perm.flags.writeable = False
        object.__setattr__(self, "inverse", inverse)

    @property
    def n(self) -> int:
        return int(self.perm.size)


def _from_lower_keys(n: int, keys: np.ndarray,
                     vals: np.ndarray) -> SparseSymmetric:
    """CSC lower-triangle storage from distinct ascending keys col*n + row."""
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=col_ptr[1:])
    return SparseSymmetric(n=n, col_ptr=col_ptr, row_idx=keys % n, values=vals)


def from_coo_arrays(n: int, rows: np.ndarray, cols: np.ndarray,
                    vals: np.ndarray) -> SparseSymmetric:
    """Assemble from parallel index/value arrays (either triangle, duplicates summed).

    Entries given above the diagonal are mirrored into the lower triangle.
    An explicit (i, j)/(j, i) pair must agree to a relative 1e-12 or the
    input is rejected as asymmetric.  A NaN or infinite value raises
    NonFiniteValueError naming its (i, j) as given.
    """
    rows = _index_array(rows, "rows", IndexOutOfRangeError)
    cols = _index_array(cols, "cols", IndexOutOfRangeError)
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise IndexOutOfRangeError("triplet index outside 0..n-1")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]
        raise NonFiniteValueError(
            f"entry ({rows[k]},{cols[k]}) has the value {float(vals[k])!r}")
    # The distinct keys 2 * (col*n + row) + side, in lower-triangle
    # coordinates, where side 1 marks an entry given above the diagonal:
    # duplicates are summed on each side separately, in the order given,
    # and a position given on both sides has its lower sum just before its
    # upper one.
    upper = rows < cols
    lo_r, lo_c = np.maximum(rows, cols), np.minimum(rows, cols)
    keys, at = np.unique(2 * (lo_c * n + lo_r) + upper, return_inverse=True)
    sums = np.bincount(at, weights=vals)
    pos = keys >> 1
    mirrored = np.flatnonzero(pos[1:] == pos[:-1]) + 1
    lv, uv = sums[mirrored - 1], sums[mirrored]
    scale = np.maximum(np.abs(lv), np.abs(uv))
    bad = np.flatnonzero(np.abs(lv - uv) > SYMMETRY_RTOL * np.maximum(scale, 1.0))
    if bad.size:
        i, j = divmod(int(pos[mirrored[bad[0]]]), n)[::-1]
        raise AsymmetricInputError(
            f"entries ({j},{i}) and ({i},{j}) disagree beyond tolerance")
    keep = np.ones(pos.size, dtype=bool)
    keep[mirrored] = False  # the lower sum stands for the pair
    return _from_lower_keys(n, pos[keep], sums[keep])


def identity_matrix(n: int, scale: float = 1.0) -> SparseSymmetric:
    """scale * I as a SparseSymmetric (handy for tests and demos)."""
    idx = np.arange(n, dtype=np.int64)
    return SparseSymmetric(
        n=n,
        col_ptr=np.arange(n + 1, dtype=np.int64),
        row_idx=idx,
        values=np.full(n, float(scale)),
    )


# ---------------------------------------------------------------------------
# Matrix Market coordinate I/O (the only on-disk matrix format).


def read_matrix_market(stream: IO[str] | str) -> SparseSymmetric:
    """Read a symmetric real/pattern coordinate Matrix Market stream.

    File indices are 1-based; entries above the diagonal are reflected into
    the lower triangle.  ``pattern`` entries get the value 1.0.  A NaN or
    infinite value raises NonFiniteValueError naming the record and its
    1-based (i, j).

    The records are parsed by numpy's C reader (``np.loadtxt``), one call
    per chunk of ``_RECORD_CHUNK`` records: the whole read of the 72x72
    AR1 (x) AR1 field's 25 490 records took 15.4 ms, against 21.5 ms
    with one token split and three array conversions per chunk (medians
    of 31 alternated calls, 2 vCPU).  A record it refuses raises
    ParseError naming the first bad record, also where Python's int and
    float would read it ("1_0", a digit outside ASCII): such tokens are
    refused.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    header = stream.readline()
    if not header:
        raise ParseError("empty stream")
    parts = header.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise ParseError(f"bad Matrix Market header: {header.strip()!r}")
    _, obj, fmt, fieldkind, symmetry = (p.lower() for p in parts)
    if obj != "matrix" or fmt != "coordinate":
        raise UnsupportedFormatError("only coordinate matrices are supported")
    if fieldkind not in ("real", "pattern"):
        raise UnsupportedFormatError(f"unsupported field {fieldkind!r}")
    if symmetry != "symmetric":
        raise UnsupportedFormatError(f"unsupported symmetry {symmetry!r}")
    is_pattern = fieldkind == "pattern"

    size_line = None
    for line in stream:
        s = line.strip()
        if s and not s.startswith("%"):
            size_line = s
            break
    if size_line is None:
        raise ParseError("missing size line")
    toks = size_line.split()
    if len(toks) != 3:
        raise ParseError(f"bad size line: {size_line!r}")
    try:
        nrows, ncols, nnz = (int(tk) for tk in toks)
    except ValueError as exc:
        raise ParseError(f"bad size line: {size_line!r}") from exc
    if nrows != ncols:
        raise UnsupportedFormatError("symmetric matrix must be square")
    if nrows < 0 or nnz < 0:
        raise ParseError("negative dimensions")
    if nrows > 2 ** 31:  # beyond it the keys of from_coo_arrays overflow int64
        raise ParseError(f"dimension {nrows} exceeds 2**31")

    # The records are read _RECORD_CHUNK lines at a time into arrays, and
    # their count is compared with the declared one after that, so that a
    # header cannot size memory on its own.
    want = 2 if is_pattern else 3
    kept = (s for s in map(str.strip, stream) if s and s[0] != "%")
    parts = []
    while chunk := list(itertools.islice(kept, _RECORD_CHUNK)):
        parts.append(_read_records(chunk, want, nrows))
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts)) if parts else (
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    if rows.size != nnz:
        raise ParseError(f"declared {nnz} records, found {rows.size}")
    if is_pattern:
        vals = np.ones(rows.size)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]
        raise NonFiniteValueError(
            f"record {k + 1}: entry ({rows[k]},{cols[k]}) has the "
            f"value {float(vals[k])!r}")
    return from_coo_arrays(nrows, rows - 1, cols - 1, vals)


def _read_records(kept: list[str], want: int, nrows: int):
    """The 1-based indices and the values (none for ``want`` = 2) of the
    stripped coordinate records ``kept``, parsed by numpy's reader.  A
    record it refuses is found again one by one for the error, the first
    in file order."""
    try:
        rec = _parse_records(kept, want)
    except (ValueError, DeprecationWarning) as exc:
        _raise_first_bad_record(kept, want, nrows)
        raise ParseError(f"bad coordinate records: {exc}") from exc
    rows, cols = rec["i"], rec["j"]
    vals = rec["v"] if want == 3 else np.empty(0)
    outside = np.flatnonzero((rows < 1) | (rows > nrows) | (cols < 1) | (cols > nrows))
    if outside.size:
        k = outside[0]
        raise ParseError(f"coordinate ({rows[k]},{cols[k]}) outside 1..{nrows}")
    return rows, cols, vals


def _parse_records(kept: list[str], want: int) -> np.ndarray:
    """The records ``kept`` as one structured array with the int64 fields
    i and j and, for ``want`` = 3, the float64 field v.  numpy's C reader
    refuses a record of another length or with a token that does not
    convert with ValueError; the numpy releases that still read an index
    through a float ("1.5" as 1) warn with a DeprecationWarning, which is
    raised here."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(kept, dtype=[("i", "i8"), ("j", "i8"), ("v", "f8")][:want],
                          comments=None, ndmin=1)


def _raise_first_bad_record(kept: list[str], want: int, nrows: int):
    """Raise ParseError for the first of the records, in file order, that
    has other than ``want`` tokens, whose indices or value do not convert
    with Python's int and float, whose indices lie outside 1..nrows, or
    that numpy's reader refuses all the same: it reads no "_" between
    digits, no digit outside ASCII and no line break inside a record."""
    for s in kept:
        toks = s.split()
        if len(toks) != want:
            raise ParseError(f"bad coordinate record: {s!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
            if want == 3:
                float(toks[2])
        except ValueError as exc:
            raise ParseError(f"bad coordinate record: {s!r}") from exc
        if not (1 <= i <= nrows and 1 <= j <= nrows):
            raise ParseError(f"coordinate ({i},{j}) outside 1..{nrows}")
        try:
            _parse_records([s], want)
        except (ValueError, DeprecationWarning) as exc:
            raise ParseError(f"bad coordinate record: {s!r}") from exc


def write_matrix_market(a: SparseSymmetric, stream: IO[str]):
    """Write coordinate symmetric real format (lower triangle, 1-based).

    Values carry 17 significant digits so that read(write(A)) reproduces A
    exactly.
    """
    stream.write("%%MatrixMarket matrix coordinate real symmetric\n")
    stream.write(f"{a.n} {a.n} {a.nnz}\n")
    rows, cols, vals = a.triplets()
    for k in range(0, a.nnz, _RECORD_CHUNK):
        part = slice(k, k + _RECORD_CHUNK)
        stream.write("".join(f"{i} {j} {v:.17g}\n" for i, j, v in zip(
            (rows[part] + 1).tolist(), (cols[part] + 1).tolist(),
            vals[part].tolist())))


# ---------------------------------------------------------------------------
# Structural operations.


def permute_symmetric(a: SparseSymmetric, p: Permutation) -> SparseSymmetric:
    """Symmetric permutation P A P^T, restricted to its lower triangle:
    A's entries at their new indices, assembled by :func:`from_coo_arrays`
    (which also refuses a NaN or infinite value)."""
    if p.n != a.n:
        raise SizeMismatchError(f"permutation size {p.n} != matrix size {a.n}")
    rows, cols, vals = a.triplets()
    return from_coo_arrays(a.n, p.inverse[rows], p.inverse[cols], vals)

