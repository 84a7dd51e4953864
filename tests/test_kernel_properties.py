"""Property tests of the symbolic phase and both numeric kernels against
the naive oracles.

Hypothesis draws random patterns — empty and 1-by-1 matrices, diagonal
matrices, disconnected forests, columns with no entry below the diagonal,
a dense trailing block, and random trees with a dense tail, whose leaves
the kernels batch next to multi-column supernodes; a second strategy draws block-structured SPD
matrices (a dense border on a sparse part, grid Laplacians) in orderings
that keep a multi-column supernode, so that the kernels' dense path is
always exercised.  Under a random permutation, the elimination
tree, the pattern of L, the column counts and the FLOP forecasts must
match the boolean fill of PAP^T, and ``SymbolicFactor.locate`` must
find every position of that fill and no other.  The selected inversion's
pattern work must match it too: ``parent_positions`` gives each row's
place in its parent's front, ``preorder`` puts parents first, and
``leaves`` are the single-column supernodes without a child.  SPD matrices on such
patterns are factored under both orderings: the exact counters must equal
the symbolic forecasts, D and L must match dense LDL^T, the selected
entries must match the dense inverse (and the column kernel bit for bit),
and a solve must match a dense one.  A third strategy draws random
elimination trees whose leaves reach twigs, single columns and a dense
tail: the leaves' updates, applied before the factorization's loop, must
leave the factor equal to the column kernel's to roundoff.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import seldet as sd
from helpers import (bordered_spd, dense_inverse, dense_ldlt,
                     etree_from_pattern, fill_pattern, grid_laplacian,
                     reference_ldlt_factorize, reference_selected_inverse)

SHAPES = ("random", "diagonal", "forest", "empty_columns", "dense_tail",
          "tree")


@st.composite
def lower_pairs(draw, n, shape):
    """Strictly-lower positions (i, j), i > j, of one pattern shape."""
    if n < 2 or shape == "diagonal":
        return set()
    pair = st.integers(1, n - 1).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(0, i - 1)))
    if shape == "forest":
        # each node links to at most one earlier node: a forest whose
        # roots (parent -1) split it into components
        pairs = set()
        for i in range(1, n):
            p = draw(st.integers(-1, i - 1))
            if p >= 0:
                pairs.add((i, p))
        return pairs
    if shape == "tree":
        # each column links to one later column, its parent under the
        # natural order, and a dense tail of t columns is one supernode:
        # leaves mixed with multi-column supernodes
        pairs = {(draw(st.integers(j + 1, n - 1)), j) for j in range(n - 1)}
        t = draw(st.integers(1, n))
        return pairs | {(i, j) for i in range(n - t, n) for j in range(n - t, i)}
    pairs = draw(st.sets(pair, max_size=3 * n))
    if shape == "empty_columns":
        empty = draw(st.sets(st.integers(0, n - 2), min_size=1))
        pairs = {(i, j) for i, j in pairs if j not in empty}
    elif shape == "dense_tail":
        t = draw(st.integers(2, n))
        pairs |= {(i, j) for i in range(n - t, n) for j in range(n - t, i)}
    return pairs


@st.composite
def permuted_patterns(draw):
    n = draw(st.integers(0, 24))
    pairs = sorted(draw(lower_pairs(n, draw(st.sampled_from(SHAPES)))))
    rows = np.array([i for i, _ in pairs] + list(range(n)), dtype=np.int64)
    cols = np.array([j for _, j in pairs] + list(range(n)), dtype=np.int64)
    a = sd.from_coo_arrays(n, rows, cols, np.ones(rows.size))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return a, sd.Permutation(perm)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=permuted_patterns())
def test_symbolic_phase_matches_fill_oracle(case):
    a, p = case
    n = a.n
    ap = sd.permute_symmetric(a, p)
    lpat = fill_pattern(ap)
    sym = sd.symbolic_factor(a, p)
    parent = etree_from_pattern(lpat)
    assert np.array_equal(sym.parent, parent)
    sym_ap = sd.symbolic_factor(ap, sd.natural_order(n))
    assert np.array_equal(sym_ap.parent, parent)
    for j in range(n):
        segment = sym.l_row_idx[sym.l_col_ptr[j]:sym.l_col_ptr[j + 1]]
        assert np.array_equal(segment, j + 1 + np.flatnonzero(lpat[j + 1:, j]))
    m = lpat.sum(axis=0)
    assert np.array_equal(sym.col_counts, m)
    assert np.array_equal(sym_ap.col_counts, m)
    ldlt = int(np.sum(m * m)) - n
    assert sd.predict_flops(sym) == (ldlt, 2 * ldlt - (int(m.sum()) - n))
    # locate: every position, both triangles, original indices
    i, j = (ix.ravel() for ix in np.indices((n, n)))
    slots = sym.locate(i, j)
    lo = np.minimum(p.inverse[i], p.inverse[j])
    hi = np.maximum(p.inverse[i], p.inverse[j])
    assert np.array_equal(slots >= 0, lpat[hi, lo])
    below = (slots >= 0) & (hi > lo)
    cols = np.repeat(np.arange(n), np.diff(sym.l_col_ptr))
    assert np.array_equal(sym.l_row_idx[slots[below]], hi[below])
    assert np.array_equal(cols[slots[below]], lo[below])
    assert np.array_equal(slots[hi == lo], sym.l_row_idx.size + lo[hi == lo])
    # parent_positions: each row's place in [parent] + pattern(parent)
    pos = sym.parent_positions
    assert not pos.flags.writeable
    for j in range(n):
        rows = np.flatnonzero(lpat[j + 1:, j]) + j + 1
        if rows.size:
            par = parent[j]
            front = [par, *(np.flatnonzero(lpat[par + 1:, par]) + par + 1)]
            want = [front.index(i) for i in rows]
            assert pos[sym.l_col_ptr[j]:sym.l_col_ptr[j + 1]].tolist() == want
    # preorder: a permutation in which every parent precedes its children
    order = sym.preorder
    assert not order.flags.writeable
    assert np.array_equal(np.sort(order), np.arange(n))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    child = np.flatnonzero(parent >= 0)
    assert np.all(rank[parent[child]] < rank[child])
    # leaves: the columns without a child that are supernodes of their own
    bounds = sym.supernodes.astype(np.int64)
    alone = bounds[:-1][np.diff(bounds) == 1]
    childless = np.setdiff1d(np.arange(n), parent)
    assert np.array_equal(sym.leaves, np.intersect1d(alone, childless))


@st.composite
def spd_matrices(draw):
    n = draw(st.integers(0, 24))
    shape = draw(st.sampled_from(SHAPES))
    pairs = sorted(draw(lower_pairs(n, shape)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    i = np.array([p[0] for p in pairs], dtype=np.int64)
    j = np.array([p[1] for p in pairs], dtype=np.int64)
    v = rng.uniform(-1.0, 1.0, size=i.size)
    # strict diagonal dominance makes the matrix SPD
    diag = rng.uniform(0.5, 2.0, size=n)
    np.add.at(diag, i, np.abs(v))
    np.add.at(diag, j, np.abs(v))
    rows = np.concatenate([i, np.arange(n)])
    cols = np.concatenate([j, np.arange(n)])
    return sd.from_coo_arrays(n, rows, cols, scale * np.concatenate([v, diag]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(a=spd_matrices(), ordering=st.sampled_from(["natural", "amd"]))
def test_kernels_match_forecasts_and_dense_oracles(a, ordering):
    n = a.n
    p = sd.amd_order(a) if ordering == "amd" else sd.natural_order(n)
    sym = sd.symbolic_factor(a, p)
    f = sd.ldlt_factorize(a, sym)
    z = sd.selected_inverse(f)
    assert (f.flops, z.flops) == sd.predict_flops(sym)

    perm = p.perm
    ap = a.to_dense()[np.ix_(perm, perm)]
    l_ref, d_ref = dense_ldlt(ap)
    np.testing.assert_allclose(f.d, d_ref, rtol=1e-12)
    l_mat = np.eye(n)
    cols = np.repeat(np.arange(n), np.diff(sym.l_col_ptr))
    l_mat[sym.l_row_idx, cols] = f.l_values
    # the pattern holds every nonzero of the dense factor
    np.testing.assert_allclose(l_mat, l_ref, rtol=0, atol=1e-12)

    inv = dense_inverse(ap)
    np.testing.assert_allclose(z.z_diag, np.diag(inv), rtol=1e-10)
    scale = np.sqrt(np.diag(inv)[sym.l_row_idx] * np.diag(inv)[cols])
    err = np.abs(z.z_values - inv[sym.l_row_idx, cols])
    assert np.all(err <= 1e-10 * scale)
    zref = reference_selected_inverse(f)
    assert np.array_equal(z.z_values, zref.z_values)
    assert np.array_equal(z.z_diag, zref.z_diag)

    b = np.linspace(-1.0, 1.0, n)
    want = np.linalg.solve(a.to_dense(), b) if n else b
    x = sd.solve(f, b)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


@st.composite
def block_structured_spd(draw):
    """SPD matrices whose factors hold multi-column supernodes, with the
    ordering that keeps them: a sparse part bordered by a dense clique
    joined to everything (the clique last, the sparse part in a random
    order), or a grid Laplacian with a random diagonal scaling (natural
    order: its trailing band triangle is one supernode).  Either way the
    last supernode is wider than one column and takes updates from
    columns before it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n_sparse, border = draw(st.integers(2, 20)), draw(st.integers(2, 8))
        a = bordered_spd(rng, n_sparse, border,
                         extra_per_row=draw(st.sampled_from([0.0, 1.0, 3.0])))
        perm = np.concatenate([rng.permutation(n_sparse),
                               np.arange(n_sparse, a.n)])
    else:
        k = draw(st.integers(2, 5))
        lap = grid_laplacian(k)
        scale = rng.uniform(0.5, 2.0, size=lap.n)
        rows, cols, vals = lap.triplets()
        a = sd.from_coo_arrays(lap.n, rows, cols, vals * scale[rows] * scale[cols])
        perm = np.arange(a.n)
    return a, sd.Permutation(perm)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=block_structured_spd())
def test_dense_supernode_path_matches_oracles_and_forecasts(case):
    a, p = case
    n = a.n
    sym = sd.symbolic_factor(a, p)
    width = np.diff(sym.supernodes.astype(np.int64))
    # the last supernode takes updates from columns before it: through
    # its panels, or, from leaves, before the loop
    s = int(sym.supernodes[-2])
    assert width[-1] > 1 and (sym.l_row_idx[:sym.l_col_ptr[s]] >= s).any()
    f = sd.ldlt_factorize(a, sym)
    z = sd.selected_inverse(f)
    assert (f.flops, z.flops) == sd.predict_flops(sym)
    assert f.padded_flops >= 0

    perm = p.perm
    ap = a.to_dense()[np.ix_(perm, perm)]
    l_ref, d_ref = dense_ldlt(ap)
    np.testing.assert_allclose(f.d, d_ref, rtol=1e-12)
    l_mat = np.eye(n)
    cols = np.repeat(np.arange(n), np.diff(sym.l_col_ptr))
    l_mat[sym.l_row_idx, cols] = f.l_values
    np.testing.assert_allclose(l_mat, l_ref, rtol=0, atol=1e-12)

    inv = dense_inverse(ap)
    np.testing.assert_allclose(z.z_diag, np.diag(inv), rtol=1e-10)
    scale = np.sqrt(np.diag(inv)[sym.l_row_idx] * np.diag(inv)[cols])
    assert np.all(np.abs(z.z_values - inv[sym.l_row_idx, cols]) <= 1e-10 * scale)

    # the column kernels on the same factor: the same counts, the same
    # selected inverse bit for bit
    ref = reference_ldlt_factorize(a, sym)
    assert ref.flops == f.flops
    np.testing.assert_allclose(f.d, ref.d, rtol=1e-12)
    zref = reference_selected_inverse(f)
    assert np.array_equal(z.z_values, zref.z_values)
    assert np.array_equal(z.z_diag, zref.z_diag)


@st.composite
def leaf_trees(draw):
    """SPD matrices on random elimination trees under the natural order,
    with a dense tail of t columns: one supernode.  The first five
    columns are fixed: the leaves 0 (rows 2, 4) and 1 (rows 2 and the
    tail) below the twig 2, which with the leaf 3 hangs below the single
    column 4, below the tail.  Each later column of the head hangs below
    a random later one or the tail, with up to two more rows drawn from
    the path above its parent, so that the leaves hold patterns of
    several rows and reach twigs, single columns and the tail alike."""
    h, t = draw(st.integers(5, 20)), draw(st.integers(2, 5))
    n, top = h + t, h
    parent = {0: 2, 1: 2, 2: 4, 3: 4, 4: top}
    rows = {0: {2, 4}, 1: {2, top}, 2: {4, top}, 3: {4, top}, 4: {top}}
    for j in range(h - 1, 4, -1):
        p = draw(st.sampled_from(list(range(j + 1, h)) + [top]))
        path, k = [], p
        while k < h:
            k = parent[k]
            path.append(k)
        path += range(top + 1, n)
        parent[j] = p
        rows[j] = {p} | draw(st.sets(st.sampled_from(path), max_size=2))
    pairs = sorted({(i, j) for j, r in rows.items() for i in r}
                   | {(i, j) for i in range(top, n) for j in range(top, i)})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i = np.array([p[0] for p in pairs], dtype=np.int64)
    j = np.array([p[1] for p in pairs], dtype=np.int64)
    v = rng.uniform(-1.0, 1.0, size=i.size)
    diag = rng.uniform(0.5, 2.0, size=n)
    np.add.at(diag, i, np.abs(v))
    np.add.at(diag, j, np.abs(v))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return sd.from_coo_arrays(n, np.concatenate([i, np.arange(n)]),
                              np.concatenate([j, np.arange(n)]),
                              scale * np.concatenate([v, diag]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(a=leaf_trees())
def test_leaves_pushed_before_the_loop_match_the_column_kernel(a):
    n = a.n
    sym = sd.symbolic_factor(a, sd.natural_order(n))
    bounds = sym.supernodes.astype(np.int64)
    leaves = sym.leaves
    assert {0, 1, 3} <= set(leaves.tolist())
    # column 2 is a single column whose children are all leaves: the
    # height-1 batch holds it
    children = np.flatnonzero(sym.parent == 2)
    assert children.size and np.isin(children, leaves).all()
    assert 2 in bounds and 3 in bounds
    assert sym.block_updates.height[np.searchsorted(bounds, 2)] == 1
    # the leaves reach it, a single column of the loop and the tail
    cols = np.repeat(np.arange(n), np.diff(sym.l_col_ptr))
    reached = sym.l_row_idx[np.isin(cols, leaves)]
    tail = int(bounds[-2])
    assert bounds[-1] - tail > 1 and (reached >= tail).any()
    assert 4 in bounds and 5 in bounds and np.isin([2, 4], reached).all()
    # no leaf is among the updaters the loop reads
    assert not np.isin(sym.block_updates.cols, leaves).any()

    f = sd.ldlt_factorize(a, sym)
    z = sd.selected_inverse(f)
    assert (f.flops, z.flops) == sd.predict_flops(sym)
    ref = reference_ldlt_factorize(a, sym)
    assert ref.flops == f.flops
    np.testing.assert_allclose(f.d, ref.d, rtol=1e-10, atol=0)
    a_diag = np.diag(a.to_dense())
    scale = np.sqrt(a_diag[sym.l_row_idx] / ref.d[cols])
    assert np.all(np.abs(f.l_values - ref.l_values) <= 1e-10 * scale)
    zref = reference_selected_inverse(f)
    assert np.array_equal(z.z_values, zref.z_values)
    assert np.array_equal(z.z_diag, zref.z_diag)

    b = np.linspace(-1.0, 1.0, n)
    want = np.linalg.solve(a.to_dense(), b)
    x = sd.solve(f, b)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_prob1_padded_flops_are_pinned():
    # the leaves' updates come before the loop, not as rows of the panels:
    # 102 346 380 padded flops before, on the same pattern
    d = sd.generate(sd.preset_config("prob1", seed=1000))
    v = sd.VarianceParams(1.0, np.ones(len(d.factors)),
                          np.ones(d.n_residual_blocks))
    c = sd.assemble_mme(d, v).C
    f = sd.ldlt_factorize(c, sd.symbolic_factor(c, sd.amd_order(c)))
    assert f.flops == sd.predict_flops(f.sym)[0] == 7_630_787
    assert f.padded_flops == 32_869_844
