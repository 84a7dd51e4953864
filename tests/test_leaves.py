"""The leaves of the elimination tree, done in batches outside the loops of
``ldlt_factorize``, ``selected_inverse`` and ``solve``.

A leaf is a width-1 supernode without a child in the elimination tree,
so no column updates it.  On leaf-heavy patterns (a star, two hubs,
random trees, a diagonal matrix, prob1 under AMD) the batches must leave
the selected inverse bit-identical to the column kernel, both counters
equal to the forecasts, and the solve equal to a dense one.
"""

import numpy as np
import pytest

import seldet as sd
from seldet.errors import PatternMismatchError
from helpers import (arrowhead, pattern_spd, reference_ldlt_factorize,
                     reference_selected_inverse)


def leaf_heavy_cases():
    rng = np.random.default_rng(31)
    spokes = np.arange(7)
    cases = {
        "star": (arrowhead(12, dense_first=False), "natural"),
        # two hubs, each spoke reaching both, and one spoke the last only
        "two-hubs": (pattern_spd(
            rng, 10, np.concatenate([np.full(7, 8), np.full(8, 9)]),
            np.concatenate([spokes, spokes, [7]])), "natural"),
        "diagonal": (sd.from_coo_arrays(6, np.arange(6), np.arange(6),
                                        rng.uniform(0.5, 2.0, 6)), "natural"),
    }
    # random trees: column j's one entry below the diagonal is its parent
    for n in (12, 40, 90):
        parent = rng.integers(np.arange(1, n), n)
        tree = pattern_spd(rng, n, parent, np.arange(n - 1))
        cases[f"tree-{n}"] = (tree, "natural")
        cases[f"tree-{n}-amd"] = (tree, "amd")
    d = sd.generate(sd.preset_config("prob1", seed=1000))
    v = sd.VarianceParams(1.0, np.ones(len(d.factors)),
                          np.ones(d.n_residual_blocks))
    cases["prob1"] = (sd.assemble_mme(d, v).C, "amd")
    return cases


CASES = leaf_heavy_cases()


@pytest.mark.parametrize("name", list(CASES))
def test_leaf_heavy_patterns_match_the_column_kernels(name):
    a, ordering = CASES[name]
    p = sd.amd_order(a) if ordering == "amd" else sd.natural_order(a.n)
    sym = sd.symbolic_factor(a, p)
    bounds = sym.supernodes.astype(np.int64)
    childless = np.setdiff1d(np.arange(a.n), sym.parent)
    alone = bounds[:-1][np.diff(bounds) == 1]
    assert np.array_equal(sym.leaves, np.intersect1d(childless, alone))
    assert sym.leaves.size >= a.n // 3
    f = sd.ldlt_factorize(a, sym)
    z, ref = sd.selected_inverse(f), reference_selected_inverse(f)
    assert np.array_equal(z.z_values, ref.z_values)
    assert np.array_equal(z.z_diag, ref.z_diag)
    assert (f.flops, z.flops) == sd.predict_flops(sym)
    assert reference_ldlt_factorize(a, sym).flops == f.flops
    b = np.random.default_rng(3).standard_normal(a.n)
    x, want = sd.solve(f, b), np.linalg.solve(a.to_dense(), b)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_leaf_batches_and_slots_match_their_definitions():
    a, _ = CASES["prob1"]
    sym = sd.symbolic_factor(a, sd.amd_order(a))
    colptr, rows = sym.l_col_ptr, sym.l_row_idx
    cols_of = np.repeat(np.arange(a.n), np.diff(colptr))
    layout = sym.leaf_batches
    assert sym.leaf_batches is layout and isinstance(layout, sd.LeafBatches)
    assert sym.leaves is sym.leaves and not sym.leaves.flags.writeable
    batches = layout.batches
    q_all = sym.col_counts[sym.leaves] - 1
    assert np.array_equal(np.sort(layout.cols), sym.leaves[q_all > 0])
    assert [b[0] for b in batches] == sorted(b[0] for b in batches)
    kind = np.min_scalar_type(sym.nnz_L)
    assert layout.at.dtype == layout.slots.dtype == kind
    for arr in (layout.cols, layout.at, layout.slots):
        assert not arr.flags.writeable
    e0 = p0 = g0 = 0
    for q, cols, at, s in batches:
        # each batch is a view of its stretch of the flat arrays
        for view, flat, start in ((cols, layout.cols, g0), (at, layout.at, e0),
                                  (s, layout.slots, p0)):
            assert np.shares_memory(view, flat)
            assert np.array_equal(view.ravel(), flat[start:start + view.size])
        assert cols.dtype == np.int64 and np.all(np.diff(cols) > 0)
        assert np.all(sym.col_counts[cols] == q + 1)
        assert cols.size * q * q <= max(1 << 15, q * q)
        assert at.shape == (cols.size, q)
        assert s.shape == (cols.size, q * (q - 1) // 2)
        for arr in (cols, at, s):
            assert not arr.flags.writeable
        upper, lower = np.triu_indices(q, 1)
        for g, j in enumerate(cols.tolist()):
            assert np.array_equal(at[g], np.arange(colptr[j], colptr[j + 1]))
            pattern = rows[colptr[j]:colptr[j + 1]]
            assert np.array_equal(cols_of[s[g]], pattern[upper])
            assert np.array_equal(rows[s[g]], pattern[lower])
        e0, p0, g0 = e0 + at.size, p0 + s.size, g0 + cols.size
    assert (e0, p0, g0) == (layout.at.size, layout.slots.size, layout.cols.size)


def test_a_leaf_pair_off_the_pattern_is_refused():
    # leaf 0 has the pattern {2, 3}, but column 2 stores no row 3: the
    # pair (3, 2) of its block is not in L
    sym = sd.SymbolicFactor(
        n=4, perm=sd.natural_order(4),
        parent=np.array([2, 2, -1, -1]),
        col_counts=np.array([3, 2, 1, 1]),
        l_col_ptr=np.array([0, 2, 3, 3, 3]),
        l_row_idx=np.array([2, 3, 2]),
        nnz_L=7,
        a_col_ptr=np.array([0, 3, 5, 6, 7]),
        a_row_idx=np.array([0, 2, 3, 1, 2, 2, 3]),
    )
    # the leaves come from the tree: 3 has no child in ``parent``
    assert sym.leaves.tolist() == [0, 1, 3]
    with pytest.raises(PatternMismatchError, match="not closed"):
        sym.leaf_batches
