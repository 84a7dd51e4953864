"""Property tests of triplet assembly and of every file round trip.

``from_coo_arrays`` is checked against a dense accumulation oracle on
random triplet lists: duplicates, entries above the diagonal, mirrored
pairs whose sides agree (accepted) and pairs whose sides differ beyond
1e-12 (rejected).  Values are multiples of 1/8 of modest size, so every
sum is exact whatever the order of summation and the oracle can be
compared bit for bit.  A second oracle sums values that round off against
each other one after the other, in input order, as ``from_coo_arrays``
promises to.  The Matrix Market writer must round-trip values
exactly, and datasets and orderings must come back as they were written.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seldet as sd
from seldet.errors import AsymmetricInputError

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
DYADIC = st.integers(-800, 800).map(lambda k: k / 8.0)


@st.composite
def triplet_lists(draw):
    """(n, rows, cols, vals): items drawn at random positions, each given
    once or several times, some mirrored to the other triangle with the
    same sum or with a sum that differs by at least 1."""
    n = draw(st.integers(1, 10))
    rows, cols, vals = [], [], []
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        parts = draw(st.lists(DYADIC, min_size=1, max_size=3))
        rows += [i] * len(parts)
        cols += [j] * len(parts)
        vals += parts
        mirror = draw(st.sampled_from(["none", "none", "agree", "differ"]))
        if i != j and mirror != "none":
            total = sum(parts)
            rows.append(j)
            cols.append(i)
            vals.append(total if mirror == "agree" else total + 1.0 + abs(total))
    order = np.array(draw(st.permutations(range(len(vals)))), dtype=np.int64)
    return (n, np.array(rows, dtype=np.int64)[order],
            np.array(cols, dtype=np.int64)[order], np.array(vals)[order])


def accumulate(n, rows, cols, vals):
    """Dense oracle: (lower-triangle values, structural mask), or None when
    some position's two sides disagree."""
    sums = np.zeros((2, n, n))  # [0]: given at or below the diagonal
    given_at = np.zeros((2, n, n), dtype=bool)
    for i, j, v in zip(rows, cols, vals):
        side, r, c = (0, i, j) if i >= j else (1, j, i)
        sums[side, r, c] += v
        given_at[side, r, c] = True
    lower, upper = sums
    both = given_at[0] & given_at[1]
    scale = np.maximum(np.maximum(np.abs(lower), np.abs(upper)), 1.0)
    if np.any(both & (np.abs(lower - upper) > 1e-12 * scale)):
        return None
    return np.where(given_at[0], lower, upper), given_at[0] | given_at[1]


@SETTINGS
@given(case=triplet_lists())
def test_from_coo_arrays_matches_dense_accumulation(case):
    n, rows, cols, vals = case
    want = accumulate(n, rows, cols, vals)
    if want is None:
        with pytest.raises(AsymmetricInputError, match="disagree beyond"):
            sd.from_coo_arrays(n, rows, cols, vals)
        return
    values, structural = want
    a = sd.from_coo_arrays(n, rows, cols, vals)
    r, c, v = a.triplets()
    # every position given is stored, exact zeros from cancellation too
    assert np.array_equal(np.sort(c * n + r),
                          np.sort(np.flatnonzero(structural.T.ravel())))
    assert np.array_equal(v, values[r, c])


ORDER_SENSITIVE = st.one_of(st.sampled_from([1e16, -1e16, 1.0, 0.1, 1 / 3]),
                            st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def order_sensitive_triplets(draw):
    """(n, rows, cols, vals) whose sums depend on the order of summation,
    every position given on one side of the diagonal only."""
    n = draw(st.integers(1, 5))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    cells = draw(st.lists(cell, min_size=1, max_size=30))
    above = draw(st.sets(cell))     # positions given above the diagonal
    rows, cols = [], []
    for i, j in cells:
        lo, hi = min(i, j), max(i, j)
        r, c = (lo, hi) if (hi, lo) in above else (hi, lo)
        rows.append(r)
        cols.append(c)
    vals = draw(st.lists(ORDER_SENSITIVE, min_size=len(cells),
                         max_size=len(cells)))
    return (n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals))


def summed_in_order(rows, cols, vals):
    """{(row, col) in the lower triangle: sum}, one Python addition at a
    time in input order."""
    sums = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        key = (max(i, j), min(i, j))
        sums[key] = sums.get(key, 0.0) + v
    return sums


@SETTINGS
@given(case=order_sensitive_triplets())
def test_duplicates_are_summed_in_the_order_given(case):
    n, rows, cols, vals = case
    want = summed_in_order(rows, cols, vals)
    r, c, v = sd.from_coo_arrays(n, rows, cols, vals).triplets()
    cells = list(zip(r.tolist(), c.tolist()))
    assert sorted(cells) == sorted(want)
    # bit for bit, the sign of a zero included
    assert np.array_equal(v.view(np.int64),
                          np.array([want[k] for k in cells]).view(np.int64))


@pytest.mark.parametrize("row, col", [(0, 0), (1, 0), (0, 1)])
def test_cancellation_follows_the_input_order(row, col):
    # 1e16 + 1 rounds back to 1e16: the 1 survives only after -1e16
    def summed(vals):
        a = sd.from_coo_arrays(2, [row] * 3, [col] * 3, vals)
        return a.values.tolist()

    assert summed([1e16, 1.0, -1e16]) == [0.0]
    assert summed([1e16, -1e16, 1.0]) == [1.0]


@st.composite
def symmetric_matrices(draw):
    """Random symmetric matrices with arbitrary finite values."""
    n = draw(st.integers(0, 10))
    cells = sorted(draw(st.sets(
        st.integers(0, n - 1).flatmap(
            lambda i: st.tuples(st.just(i), st.integers(0, i))),
        max_size=3 * n))) if n else []
    vals = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=len(cells), max_size=len(cells)))
    return sd.from_coo_arrays(n, np.array([i for i, _ in cells], dtype=np.int64),
                              np.array([j for _, j in cells], dtype=np.int64),
                              np.array(vals, dtype=np.float64))


@SETTINGS
@given(a=symmetric_matrices())
def test_matrix_market_round_trip_is_exact(a):
    buf = io.StringIO()
    sd.write_matrix_market(a, buf)
    back = sd.read_matrix_market(buf.getvalue())
    assert back.n == a.n
    assert np.array_equal(back.col_ptr, a.col_ptr)
    assert np.array_equal(back.row_idx, a.row_idx)
    assert np.array_equal(back.values, a.values)


LABELS = st.text("abcdefgh0123456789_", min_size=1, max_size=4)


@st.composite
def datasets(draw):
    """Datasets with arbitrary finite y and X, labeled factors and residual
    blocks, every level observed."""
    n = draw(st.integers(1, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    y = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    p = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(finite, min_size=n * p, max_size=n * p))
                 ).reshape(n, p)

    def labeled_codes():
        labels = tuple(draw(st.lists(LABELS, min_size=1, max_size=n,
                                     unique=True)))
        codes = np.array(draw(st.permutations(
            list(range(len(labels)))
            + draw(st.lists(st.integers(0, len(labels) - 1),
                            min_size=n - len(labels), max_size=n - len(labels))))))
        return codes, labels

    factors = []
    for k in range(draw(st.integers(0, 2))):
        codes, labels = labeled_codes()
        factors.append(sd.RandomFactor(name=f"f{k}", codes=codes,
                                       n_levels=len(labels), labels=labels))
    res_codes, res_labels = labeled_codes()
    return sd.MixedModelDataset(
        y=y, x=x, fixed_names=tuple(f"x{c}" for c in range(p)),
        factors=tuple(factors), residual_codes=res_codes,
        n_residual_blocks=len(res_labels), residual_labels=res_labels)


@SETTINGS
@given(d=datasets())
def test_dataset_round_trip(d):
    buf = io.StringIO()
    sd.write_dataset(d, buf)
    back = sd.read_dataset(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.y, d.y)
    assert np.array_equal(back.x, d.x)
    assert back.fixed_names == d.fixed_names
    # the codes may be renumbered; each observation keeps its labels
    assert [f.name for f in back.factors] == [f.name for f in d.factors]
    for got, want in zip(back.factors, d.factors):
        assert got.n_levels == want.n_levels
        assert (np.array(got.labels)[got.codes].tolist()
                == np.array(want.labels)[want.codes].tolist())
    assert back.n_residual_blocks == d.n_residual_blocks
    assert (np.array(back.residual_labels)[back.residual_codes].tolist()
            == np.array(d.residual_labels)[d.residual_codes].tolist())


@SETTINGS
@given(perm=st.integers(0, 30).flatmap(lambda n: st.permutations(range(n))))
def test_order_round_trip(perm):
    p = sd.Permutation(np.array(perm, dtype=np.int64))
    buf = io.StringIO()
    sd.write_order(p, buf)
    back = sd.load_order(io.StringIO(buf.getvalue()), p.n)
    assert np.array_equal(back.perm, p.perm)
