"""Shared builders and brute-force oracles for the test suite.

Everything here is deliberately naive: dense boolean elimination for fill
patterns, dense linear algebra for numeric references, explicit loops where
that makes the intent obvious.  The point is independence from the library
code under test.
"""

import dataclasses
import heapq
import math
import warnings

import numpy as np

import seldet as sd
from seldet.errors import (NearSingularWarning, NonPositivePivotError,
                           NotAPermutationError, ParseError,
                           PatternMismatchError)
from seldet.numeric import NEAR_SINGULAR_RTOL


# ---------------------------------------------------------------- builders


def tridiag(diag, off):
    """Symmetric tridiagonal matrix from its diagonal and subdiagonal."""
    i, k = np.arange(len(diag)), np.arange(len(off))
    return sd.from_coo_arrays(len(diag), np.concatenate([i, k + 1]),
                              np.concatenate([i, k]),
                              np.concatenate([diag, off]).astype(float))


def grid_laplacian(k):
    """Shifted 5-point Laplacian on a k-by-k grid (SPD, 4 on the diagonal)."""
    n = k * k
    node = np.arange(n).reshape(k, k)    # node i*k + j sits at (i, j)
    down, right = node[:-1, :].ravel(), node[:, :-1].ravel()
    return sd.from_coo_arrays(
        n,
        np.concatenate([node.ravel(), down + k, right + 1]),
        np.concatenate([node.ravel(), down, right]),
        np.concatenate([np.full(n, 4.0), np.full(down.size + right.size, -1.0)]))


def arrowhead(n, dense_first=True):
    """SPD arrowhead: one row/column dense, the rest diagonal.

    dense_first puts the dense column at index 0 (worst case for the
    natural ordering: factors completely full); otherwise it goes last
    (already fill-free).
    """
    hub = 0 if dense_first else n - 1
    i = np.arange(n)
    spoke = i[i != hub]
    return sd.from_coo_arrays(
        n, np.concatenate([i, np.maximum(spoke, hub)]),
        np.concatenate([i, np.minimum(spoke, hub)]),
        np.concatenate([np.full(n, float(n)), np.ones(spoke.size)]))


def random_spd(rng, n, extra_per_row=2.0):
    """Random sparse strictly diagonally dominant (hence SPD) matrix.

    Off-diagonal entries are uniform in [-1, 1]; each diagonal entry covers
    its row's absolute sum plus a margin in [0.5, 2], which keeps the
    condition number far below 1e6.
    """
    m = int(round(extra_per_row * n))
    if m > 0 and n > 1:
        i = rng.integers(1, n, size=m)
        j = (rng.random(m) * i).astype(np.int64)
        key = np.unique(i * n + j)
        i, j = key // n, key % n
        v = rng.uniform(-1.0, 1.0, size=key.size)
    else:
        i = j = np.zeros(0, dtype=np.int64)
        v = np.zeros(0)
    slack = rng.uniform(0.5, 2.0, size=n)
    np.add.at(slack, i, np.abs(v))
    np.add.at(slack, j, np.abs(v))
    rows = np.concatenate([i, np.arange(n)])
    cols = np.concatenate([j, np.arange(n)])
    vals = np.concatenate([v, slack])
    return sd.from_coo_arrays(n, rows, cols, vals)


def random_dataset(rng, n_obs, p, level_sizes, n_blocks):
    """Random mixed-model dataset: grand mean plus p-1 numeric covariates,
    one random factor per entry of level_sizes, n_blocks residual groups.
    Every factor level and every block is guaranteed at least one
    observation."""
    cols = [np.ones(n_obs)]
    cols += [rng.standard_normal(n_obs) for _ in range(p - 1)]
    x = np.column_stack(cols)
    factors = []
    for fi, nl in enumerate(level_sizes):
        codes = rng.integers(0, nl, size=n_obs)
        codes[:nl] = rng.permutation(nl)
        factors.append(sd.RandomFactor(name=f"f{fi}", codes=codes, n_levels=nl))
    rb = rng.integers(0, n_blocks, size=n_obs)
    rb[n_obs - n_blocks:] = np.arange(n_blocks)
    return sd.MixedModelDataset(
        y=rng.standard_normal(n_obs),
        x=x,
        fixed_names=tuple(f"x{c}" for c in range(p)),
        factors=tuple(factors),
        residual_codes=rb,
        n_residual_blocks=n_blocks,
    )


def random_params(rng, d):
    return sd.VarianceParams(
        sigma2=float(rng.uniform(0.5, 2.0)),
        gamma=tuple(rng.uniform(0.3, 3.0, size=len(d.factors))),
        phi=tuple(rng.uniform(0.3, 3.0, size=d.n_residual_blocks)),
    )


def field_precision(m, rho_row, rho_col):
    """Precision of an m-by-m AR1 (x) AR1 field, plot (r, c) at index
    c*m + r: the Kronecker product of two dense AR1 precisions, a 9-point
    mesh pattern."""
    def ar1(rho):
        q = np.diag(np.full(m, 1.0 + rho * rho))
        q[0, 0] = q[-1, -1] = 1.0
        i = np.arange(m - 1)
        q[i, i + 1] = q[i + 1, i] = -rho
        return q / (1.0 - rho * rho)
    # the nonzeros of np.kron(ar1(rho_col), ar1(rho_row)), without the
    # dense m^2-by-m^2 product
    qc, qr = ar1(rho_col), ar1(rho_row)
    ic, jc = np.nonzero(qc)
    ir, jr = np.nonzero(qr)
    rows = (ic[:, None] * m + ir).ravel()
    cols = (jc[:, None] * m + jr).ravel()
    vals = np.multiply.outer(qc[ic, jc], qr[ir, jr]).ravel()
    low = rows >= cols
    return sd.from_coo_arrays(m * m, rows[low], cols[low], vals[low])


def unit_c(d):
    """C at unit variance ratios; its pattern is the same at every ratio."""
    v = sd.VarianceParams(1.0, np.ones(len(d.factors)),
                          np.ones(d.n_residual_blocks))
    return sd.assemble_mme(d, v).C


def per_year_c(seed):
    """C of a prob1 trial with one residual block per year: the matrix of
    the benchmark's ``reml_fit``."""
    d = sd.generate(sd.preset_config("prob1", seed=seed))
    year = next(f for f in d.factors if f.name == "year")
    return unit_c(dataclasses.replace(
        d, residual_codes=year.codes, n_residual_blocks=year.n_levels,
        residual_labels=year.labels))


def pattern_spd(rng, n, rows, cols):
    """A diagonally dominant SPD matrix with random values whose entries
    below the diagonal are (rows[t], cols[t])."""
    v = rng.uniform(-1.0, 1.0, size=len(rows))
    slack = rng.uniform(0.5, 2.0, size=n)
    np.add.at(slack, rows, np.abs(v))
    np.add.at(slack, cols, np.abs(v))
    i = np.arange(n)
    return sd.from_coo_arrays(n, np.concatenate([rows, i]),
                              np.concatenate([cols, i]),
                              np.concatenate([v, slack]))


def bordered_spd(rng, n_sparse, border, extra_per_row=1.0):
    """Random SPD matrix with a sparse leading part and ``border`` dense
    last rows and columns (a clique joined to everything): strictly
    diagonally dominant, off-diagonal entries uniform in [-1, 1].  Column
    0 touches the border only, so that for n_sparse >= 2 and the border
    last, the border is a supernode of its own that takes updates."""
    n = n_sparse + border
    m = int(round(extra_per_row * n_sparse)) if n_sparse > 2 else 0
    i = rng.integers(2, max(n_sparse, 3), size=m)
    j = 1 + (rng.random(m) * (i - 1)).astype(np.int64)
    bi, bj = np.tril_indices(n, -1)
    dense = bi >= n_sparse
    key = np.unique(np.concatenate([i * n + j, bi[dense] * n + bj[dense]]))
    i, j = key // n, key % n
    v = rng.uniform(-1.0, 1.0, size=key.size)
    diag = rng.uniform(0.5, 2.0, size=n)
    np.add.at(diag, i, np.abs(v))
    np.add.at(diag, j, np.abs(v))
    return sd.from_coo_arrays(n, np.concatenate([i, np.arange(n)]),
                              np.concatenate([j, np.arange(n)]),
                              np.concatenate([v, diag]))


# ----------------------------------------------------------------- oracles


def fill_pattern(a):
    """No-cancellation elimination fill, simulated on a dense boolean matrix.

    Returns the lower-triangular (diagonal included) structure of L: after
    eliminating column k, every pair of remaining rows adjacent to k becomes
    adjacent.  Quadratic and value-free — the reference the symbolic module
    is checked against.
    """
    n = a.n
    s = (a.to_dense() != 0.0) | np.eye(n, dtype=bool)
    for k in range(n - 1):
        below = np.flatnonzero(s[k + 1:, k]) + k + 1
        if below.size > 1:
            s[np.ix_(below, below)] = True
    return np.tril(s)


def etree_from_pattern(lpat):
    """parent[j] = first below-diagonal row of column j, -1 for roots."""
    n = lpat.shape[0]
    parent = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        below = np.flatnonzero(lpat[j + 1:, j])
        if below.size:
            parent[j] = j + 1 + below[0]
    return parent


def dense_ldlt(a_dense):
    """Dense LDL^T without pivoting; returns (L, d)."""
    n = a_dense.shape[0]
    a = a_dense.astype(float).copy()
    l_mat = np.eye(n)
    d = np.zeros(n)
    for k in range(n):
        d[k] = a[k, k]
        l_mat[k + 1:, k] = a[k + 1:, k] / d[k]
        a[k + 1:, k + 1:] -= np.outer(l_mat[k + 1:, k], a[k + 1:, k])
    return l_mat, d


def dense_design(d):
    """W = [X, Z_1 ... Z_F] as one dense matrix."""
    n = d.n_obs
    w = [d.x]
    for f in d.factors:
        zf = np.zeros((n, f.n_levels))
        zf[np.arange(n), f.codes] = 1.0
        w.append(zf)
    return np.column_stack(w)


def dense_mme(d, v):
    """C = W'R^-1W + G^-1 and every template dC/d(kappa), gammas then phis,
    formed densely from W = [X, Z_1 ... Z_F] with plain numpy."""
    w = dense_design(d)
    phi = np.asarray(v.phi, dtype=float)
    c = w.T @ (w / phi[d.residual_codes][:, None])
    templates = []
    start = d.p
    for f, g in zip(d.factors, v.gamma):
        e = np.zeros(c.shape[0])
        e[start:start + f.n_levels] = 1.0
        c += np.diag(e / g)
        templates.append(-np.diag(e) / g ** 2)
        start += f.n_levels
    for k, ph in enumerate(phi):
        mask = (d.residual_codes == k).astype(float)
        templates.append(-(w.T @ (w * mask[:, None])) / ph ** 2)
    return c, templates


def dense_blue_blup(d, v):
    """BLUE of tau and BLUP of u: the dense solve of C [tau; u] = W'R^-1 y."""
    c, _ = dense_mme(d, v)
    phi = np.asarray(v.phi, dtype=float)
    x = np.linalg.solve(c, dense_design(d).T @ (d.y / phi[d.residual_codes]))
    return x[:d.p], x[d.p:]


def reconstruct_dense(f):
    """Dense P^T (L D L^T) P of an LdlFactor, in original indices."""
    n = f.n
    ldense = np.eye(n)
    colptr, rows = f.sym.l_col_ptr, f.sym.l_row_idx
    for j in range(n):
        lo, hi = colptr[j], colptr[j + 1]
        ldense[rows[lo:hi], j] = f.l_values[lo:hi]
    ap = ldense @ np.diag(f.d) @ ldense.T
    perm = f.perm.perm
    out = np.empty_like(ap)
    out[np.ix_(perm, perm)] = ap
    return out


def dense_inverse(a_dense):
    """Full inverse by numpy's dense LU solver; no sparse code involved."""
    return np.linalg.solve(a_dense, np.eye(a_dense.shape[0]))


def spearman(x, y):
    """Spearman rank correlation with average ranks for ties."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size)
        r[order] = np.arange(1, v.size + 1, dtype=float)
        _, inv = np.unique(v, return_inverse=True)
        sums = np.bincount(inv, weights=r)
        cnts = np.bincount(inv)
        return (sums / cnts)[inv]

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def _reference_adjacency(a):
    """Per-node sorted neighbor lists of the symmetrized pattern (no diagonal)."""
    rows, cols, _ = a.triplets()
    off = rows != cols
    r, c = rows[off], cols[off]
    src = np.concatenate([r, c])
    dst = np.concatenate([c, r])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=a.n)
    splits = np.cumsum(counts)[:-1]
    return [seg.tolist() for seg in np.split(dst, splits)]


def reference_amd_order(a):
    """The list-based ``amd_order`` kept as the permutation oracle: every
    pivot's quotient-graph scan is a Python loop over plain lists, and
    supervariables are grouped by sorted-tuple signatures.

    Nodes whose degree exceeds 10·sqrt(n) are deferred to the end of the
    ordering (ascending); aggressive element absorption and supervariable
    merging are applied; among minimum-degree candidates the smallest
    original index is eliminated first.

    A variable is live exactly when its weight ``nv[i]`` is positive (dense
    nodes start at 0; elimination or merging into another sets it to 0),
    and an element exactly when its variable list ``elem_vars[e]`` is
    non-empty.
    """
    n = a.n
    if n == 0:
        return sd.Permutation(np.empty(0, dtype=np.int64))
    adj = _reference_adjacency(a)
    dense_cut = 10.0 * math.sqrt(n)

    # Quotient-graph state.  Ids serve double duty: a variable that gets
    # eliminated becomes the element with the same id.
    nv = [0 if len(nbrs) > dense_cut else 1 for nbrs in adj]  # supervariable weight
    dense = [i for i in range(n) if not nv[i]]
    n_sparse = n - len(dense)
    members: list[list[int]] = [[i] for i in range(n)]
    adj_v = [[j for j in nbrs if nv[j]] if nv[i] else []  # variable neighbors
             for i, nbrs in enumerate(adj)]
    adj_e: list[list[int]] = [[] for _ in range(n)]   # element neighbors
    elem_vars: list[list[int]] = [[] for _ in range(n)]
    elem_weight = [0] * n
    degree = [len(vs) for vs in adj_v]
    del adj

    # Pivot candidates: degree * n + id is pushed at every degree change,
    # so the smallest entry that is still current is the live variable of
    # least degree and, among those, of least id.  One int per entry, not
    # a tuple, keeps the stale entries small.
    heap = [degree[i] * n + i for i in range(n) if nv[i]]
    heapq.heapify(heap)
    order: list[int] = []

    def eliminate(i: int):
        """Append i's members to the order and drop i from the graph."""
        order.extend(sorted(members[i]))
        nv[i] = 0
        adj_v[i] = []
        adj_e[i] = []

    while len(order) < n_sparse:
        deg, p = divmod(heapq.heappop(heap), n)
        if not nv[p] or deg != degree[p]:
            continue  # p is dead, or its degree changed after this push

        # --- Le: live variables adjacent to p directly or through one of
        # p's elements, which the new element p absorbs.
        reach = dict.fromkeys(adj_v[p])
        for e in adj_e[p]:
            reach.update(dict.fromkeys(elem_vars[e]))
            elem_vars[e] = []
        le = [v for v in reach if nv[v] and v != p]
        eliminate(p)
        dk = sum(nv[v] for v in le)

        # --- set differences |Le' \ Le| for every live element touching
        # Le; an element fully covered by the new one is absorbed outright.
        residual: dict[int, int] = {}
        for i in le:
            for e in adj_e[i]:
                if elem_vars[e]:
                    residual[e] = residual.get(e, elem_weight[e]) - nv[i]
        for e, res in residual.items():
            if res == 0:
                elem_vars[e] = []

        # --- prune, attach p, approximate external degrees and signatures.
        tmp_deg: dict[int, int] = {}
        signature: dict[tuple, list[int]] = {}
        for i in le:
            adj_e[i] = [e for e in adj_e[i] if elem_vars[e]]
            adj_v[i] = [v for v in adj_v[i] if nv[v] and v not in reach]
            tmp_deg[i] = (sum(residual[e] for e in adj_e[i])
                          + sum(nv[v] for v in adj_v[i]))
            adj_e[i].append(p)
            key = (tuple(sorted(adj_e[i])), tuple(sorted(adj_v[i])))
            signature.setdefault(key, []).append(i)

        # --- merge indistinguishable supervariables (smallest id survives);
        # a merged variable's members move to its keeper first.
        for group in signature.values():
            group.sort()
            keeper = group[0]
            for j in group[1:]:
                nv[keeper] += nv[j]
                members[keeper] += members[j]
                members[j] = []
                eliminate(j)

        # --- final degrees; zero external degree means the variable can be
        # eliminated along with this pivot (mass elimination).
        for i in sorted(v for v in le if nv[v]):
            d = min(tmp_deg[i] + dk, n_sparse - len(order)) - nv[i]
            if d <= 0:
                eliminate(i)
            else:
                degree[i] = d
                heapq.heappush(heap, d * n + i)

        elem_vars[p] = [v for v in le if nv[v]]
        elem_weight[p] = sum(nv[v] for v in elem_vars[p])

    order.extend(dense)
    if len(order) != n:
        raise NotAPermutationError("internal ordering error: incomplete elimination")
    return sd.Permutation(np.asarray(order, dtype=np.int64))


def reference_read_records(kept, want, nrows):
    """The token-split record parser that numpy's reader replaced in
    ``read_matrix_market``, kept as the reader's oracle: the 1-based
    indices and the values (none for ``want`` = 2) of the stripped
    coordinate records ``kept``, or the ParseError of the first record,
    in file order, that has other than ``want`` tokens, whose indices or
    value do not convert, or whose indices lie outside 1..nrows.

    The records are split as one text, joined by a ";" token: each then
    spans want + 1 tokens, the last of them ";"."""
    tokens = " ; ".join(kept).split()
    step = want + 1
    try:
        if (len(tokens) != step * len(kept) - 1
                or set(tokens[want::step]) - {";"}):
            raise ValueError("records of another length")
        rows = np.array(tokens[0::step], dtype=np.int64)
        cols = np.array(tokens[1::step], dtype=np.int64)
        vals = np.array(tokens[2::step] if want == 3 else (), dtype=np.float64)
    except (ValueError, OverflowError):
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
        raise
    outside = np.flatnonzero((rows < 1) | (rows > nrows) | (cols < 1) | (cols > nrows))
    if outside.size:
        k = outside[0]
        raise ParseError(f"coordinate ({rows[k]},{cols[k]}) outside 1..{nrows}")
    return rows, cols, vals


def reference_parent_positions(sym):
    """Where each stored entry of L sits in its column's parent front, as
    one search over every stored entry, kept as the oracle of the places
    of ``SymbolicFactor.selinv_sweep``: the key of each position (i, p),
    p the column's parent, is looked up in ``sym.lower_keys``; the row
    stored in the slot found must be i, and the slot must lie in column
    p, or PatternMismatchError is raised.  Returned as int64."""
    colptr, rows = sym.l_col_ptr, sym.l_row_idx
    counts = np.diff(colptr)
    nonempty = np.flatnonzero(counts)
    first, last = colptr[nonempty], colptr[nonempty + 1] - 1
    keys = np.repeat(sym.parent * sym.n, counts) + rows
    at = np.searchsorted(sym.lower_keys, keys.astype(sym.lower_keys.dtype))
    found = rows.take(at, mode="clip") == rows
    at -= np.repeat(colptr[sym.parent] - 1, counts)
    found[first] = True         # row p, the first of every column
    at[first] = 0
    inside = at[last] < sym.col_counts[sym.parent[nonempty]]
    if not (found.all() and inside.all()):
        raise PatternMismatchError("selected pattern is not closed")
    return at


def reference_ldlt_factorize(a, sym):
    """The column-by-column ``ldlt_factorize`` kept as the factor oracle:
    every column, supernode or not, gathers the segments (D L)[p_jk:end_k]
    of the earlier columns that reach its row and applies them with one
    ``np.subtract.at``, then divides by its pivot.  Same pivot policy and
    exact counter as the library kernel; no padded work.  It groups L's
    pattern by row itself: the positions of every L_jk of row j, k
    ascending, and the end of each one's column."""
    sym.require_pattern(a)
    n = sym.n
    colptr, rows = sym.l_col_ptr, sym.l_row_idx
    by_row = np.argsort(rows, kind="stable")
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    col_end = np.repeat(colptr[1:], np.diff(colptr))[by_row]
    placed = np.zeros(rows.size + n)
    placed[sym.a_slots] = a.values
    ld_values, a_diag = placed[:rows.size], placed[rows.size:]
    threshold = NEAR_SINGULAR_RTOL * float(np.max(np.abs(a_diag), initial=0.0))
    l_values = np.empty(rows.size)
    d = np.empty(n)
    x = np.zeros(n)
    col_start, row_start = colptr.tolist(), row_ptr.tolist()
    flops = 0
    for j in range(n):
        lo, hi = col_start[j], col_start[j + 1]
        pattern = rows[lo:hi]
        x[pattern] = ld_values[lo:hi]
        x[j] = a_diag[j]
        r0, r1 = row_start[j], row_start[j + 1]
        if r1 > r0:
            p = by_row[r0:r1]
            lens = col_end[r0:r1] - p
            ends = np.cumsum(lens)
            total = int(ends[-1])
            idx = np.arange(total) + np.repeat(p - (ends - lens), lens)
            np.subtract.at(x, rows[idx],
                           np.repeat(l_values[p], lens) * ld_values[idx])
            flops += 2 * total
        dj = float(x[j])
        if not (dj > 0.0 and math.isfinite(dj)):
            raise NonPositivePivotError(j, dj)
        d[j] = dj
        col = x[pattern]
        ld_values[lo:hi] = col
        l_values[lo:hi] = col / dj
        flops += hi - lo
    near = np.flatnonzero(d < threshold)
    if near.size:
        warnings.warn(f"{near.size} pivot(s) below the near-singular threshold",
                      NearSingularWarning, stacklevel=2)
    return sd.LdlFactor(sym=sym, l_values=l_values, d=d, flops=flops)


def reference_preorder(parent):
    """The columns of the elimination forest whose parents are the list
    ``parent`` (-1 at a root) in a depth-first preorder, children and
    roots ascending, and each column's children: ``(preorder,
    children)``."""
    children = [[] for _ in parent]
    roots = []
    for k, p in enumerate(parent):
        (children[p] if p >= 0 else roots).append(k)
    preorder, stack = [], roots[::-1]
    while stack:
        j = stack.pop()
        preorder.append(j)
        stack.extend(reversed(children[j]))
    return preorder, children


def reference_selected_inverse(f):
    """The column-by-column ``selected_inverse`` kept as the selected
    inversion oracle: in a preorder of the elimination forest, every column
    with a pattern gathers its q-by-q block from a copy of its parent's
    front, and every column with children keeps a front of its own.  The
    walk comes from ``sym.parent`` (:func:`reference_preorder`) and each
    row's place in the parent's front from the pattern of L, not from the
    symbolic factor's ``selinv_sweep``."""
    sym = f.sym
    colptr = sym.l_col_ptr.tolist()
    rows = sym.l_row_idx.tolist()
    parent = sym.parent.tolist()
    preorder, children = reference_preorder(parent)
    lv = f.l_values
    z = np.empty(lv.size)
    z_diag = 1.0 / f.d
    pending = [len(c) for c in children]
    fronts = {}
    flops = 0
    for j in preorder:
        lo, hi = colptr[j], colptr[j + 1]
        q = hi - lo
        if q:
            p = parent[j]
            front, place = fronts[p]
            r = [place[i] for i in rows[lo:hi]]
            block = front.take(r, 0).take(r, 1)
            pending[p] -= 1
            if not pending[p]:
                del fronts[p]
            lcol = lv[lo:hi]
            zcol = -(block @ lcol)
            z[lo:hi] = zcol
            z_diag[j] -= lcol @ zcol
            flops += 2 * q * q + 3 * q
        if pending[j]:
            front = np.empty((q + 1, q + 1))
            front[0, 0] = z_diag[j]
            if q:
                front[0, 1:] = front[1:, 0] = zcol
                front[1:, 1:] = block
            # the front's rows: j, then the pattern of column j
            fronts[j] = front, {i: k for k, i in
                                enumerate([j] + rows[lo:hi])}
    return sd.SelectedInverse(sym=sym, z_values=z, z_diag=z_diag, flops=flops)


def reference_supernodes(lpat):
    """Fundamental supernodes from the dense lower pattern of L: column
    j + 1 joins the supernode of j when it is j's parent, its count is one
    less than j's and j is its only child.  Returns the first column of
    each supernode and n."""
    n = lpat.shape[0]
    parent = etree_from_pattern(lpat)
    counts = lpat.sum(axis=0)
    starts = []
    for j in range(n):
        children = [k for k in range(n) if parent[k] == j]
        joins = (j > 0 and parent[j - 1] == j and counts[j] == counts[j - 1] - 1
                 and children == [j - 1])
        if not joins:
            starts.append(j)
    return starts + [n]


def reference_block_updates(lpat, bounds):
    """For each supernode, columns s:e, the columns k < s with an entry in
    the rows s:e that are not leaves, each as (k, row of its first entry
    there, entries from there down, entries in the rows s:e), in the order
    of that first row and k ascending among equal rows: for a single
    column j, every L_jk, k ascending, k not a leaf.  A leaf is a
    supernode of one column that is no column's parent."""
    parents = set(etree_from_pattern(lpat).tolist())
    leaves = set()
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s == 1 and s not in parents:
            leaves.add(s)
    out = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        pairs = []
        for k in range(s):
            if k in leaves:
                continue
            below = np.flatnonzero(lpat[s:, k])
            if below.size:
                inside = int(np.sum(below < e - s))
                if inside:
                    pairs.append((k, s + int(below[0]), below.size, inside))
        pairs.sort(key=lambda pair: pair[1])
        out.append(pairs)
    return out


def reference_schedule(lpat, bounds, panel=128, group=1 << 14):
    """The factorization's schedule, read naively off the dense pattern of
    L and the supernode partition, one supernode at a time.

    Returns ``(height, rows)``.  ``height[b]`` is the most supernodes a
    walk up the elimination tree enters from a supernode below b.  The
    rows come by height, each ``(groups, singles)``.  A height's single
    columns (height 1 or more) are cut into batches, one row each, where
    their gathered elements, counted from the height's first one, pass a
    multiple of ``group``; its multi-column supernodes go with its first
    row, and a height without single columns has one row.  A
    multi-column supernode s:e has panels ``(t0, t1, gather, target, top,
    structural, padded)``, each over at most ``panel`` of its entries in
    :func:`reference_block_updates` (t0:t1 counted over every
    supernode's entries in order), with ``target`` its flat positions in
    a (t1 - t0)-by-(|F| - top) panel.  The supernodes of a height with
    equal width, front size |F| and panel shapes (t1 - t0, top) form a
    group ``(blocks, panels)``: its supernodes ``(s, e)`` in column order,
    and their panels position-major, the panel at position j of the m-th
    supernode next to the others of position j, its targets moved by m
    panel sizes into their stack.  The groups come in the column order of
    their first supernodes.  A single column j is ``(j, segments,
    targets, stored)``: its segments ``(first, length)``, where each
    gathered element lands in its batch's workspace (the stored entries
    of the batch's columns, then their diagonals) and the number of its
    stored entries.  Storage positions count the entries below the
    diagonal column by column."""
    n = lpat.shape[0]
    parent = etree_from_pattern(lpat)
    below = [(np.flatnonzero(lpat[k + 1:, k]) + k + 1).tolist() for k in range(n)]
    start = np.concatenate([[0], np.cumsum([len(r) for r in below])]).tolist()

    def position(i, k):
        return start[k] + below[k].index(i)

    sup = {j: b for b, (s, e) in enumerate(zip(bounds[:-1], bounds[1:]))
           for j in range(s, e)}
    height = [0] * (len(bounds) - 1)
    for b in range(len(bounds) - 1):
        j, steps = bounds[b + 1] - 1, 0
        while parent[j] >= 0:
            up = int(parent[j])
            if sup[up] != sup[j]:
                steps += 1
                height[sup[up]] = max(height[sup[up]], steps)
            j = up
    updates = reference_block_updates(lpat, bounds)
    ptr = np.concatenate([[0], np.cumsum([len(u) for u in updates])]).tolist()
    rows_out = []
    for h in range(max(height, default=-1) + 1):
        groups, singles = {}, []
        for b in range(len(bounds) - 1):
            s, e = bounds[b], bounds[b + 1]
            if height[b] != h:
                continue
            front = [s] + below[s]
            if e - s > 1:
                panels = []
                for c in range(0, len(updates[b]), panel):
                    chunk = updates[b][c:c + panel]
                    top = chunk[0][1] - s
                    width = len(front) - top
                    gather, target, structural = [], [], 0
                    for r, (k, row, length, inside) in enumerate(chunk):
                        rows = below[k][below[k].index(row):]
                        assert len(rows) == length
                        gather += [position(i, k) for i in rows]
                        target += [r * width + front.index(i) - top for i in rows]
                        structural += inside * (2 * length - inside + 1)
                    size = len(chunk)
                    padded = (2 * size * width * (e - s - top)
                              + size * (width + 1) - structural)
                    panels.append((ptr[b] + c, ptr[b] + c + size, gather,
                                   target, top, structural, padded))
                shapes = tuple((p[1] - p[0], p[4]) for p in panels)
                groups.setdefault((e - s, len(front), shapes), []).append(
                    (s, e, panels))
            elif h > 0:
                segments = [(position(row, k), length)
                            for k, row, length, _ in updates[b]]
                rows = [i for k, row, _, _ in updates[b]
                        for i in below[k][below[k].index(row):]]
                singles.append((s, segments, rows, len(below[s])))
        grouped = []
        for (_, size, shapes), members in groups.items():
            stacked = []
            for j, (k, top) in enumerate(shapes):
                for m, (_, _, panels) in enumerate(members):
                    t0, t1, gather, target, _, structural, padded = panels[j]
                    shift = m * k * (size - top)
                    stacked.append((t0, t1, gather, [x + shift for x in target],
                                    top, structural, padded))
            grouped.append(([(s, e) for s, e, _ in members], stacked))
        batches, gathered = {}, 0
        for single in singles:
            batches.setdefault(gathered // group, []).append(single)
            gathered += len(single[2])
        if not batches:
            rows_out.append((grouped, []))
        for k, batch in enumerate(batches.values()):
            # the workspace: the stored entries of the batch's columns,
            # then their diagonals
            stored = sum(single[3] for single in batch)
            offset = 0
            for c, (j, segments, rows, count) in enumerate(batch):
                places = [stored + c if i == j else offset + below[j].index(i)
                          for i in rows]
                batch[c] = (j, segments, places, count)
                offset += count
            rows_out.append((grouped if k == 0 else [], batch))
    return height, rows_out
