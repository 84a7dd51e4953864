"""Fill-reducing symmetric orderings.

`amd_order` is an approximate-minimum-degree ordering on the quotient
graph: eliminated pivots become *elements*, indistinguishable variables
are merged into supervariables, and external degrees are tracked by the
usual upper bound rather than exactly.  The heuristic follows Amestoy,
Davis & Duff; determinism is part of the contract, so every tie is broken
toward the smallest original index.

Each pivot scans the quotient graph around the variables it reaches, in
one of two ways chosen by the scan's volume, the summed lengths of those
variables' element and variable lists.  Below ``_ARRAY_SCAN_VOLUME`` the
scan is a loop over Python lists; from there on it is numpy array work.
Both key each variable by the lengths and id sums of its pruned lists
and compare the sorted lists only on a key hit
(``_indistinguishable``), so a variable alone under its key is never
sorted, and both give the same permutation.  The loop once grouped the
variables by tuples of their sorted lists: keying them, with the heap's
pushes cut to the degrees that fall (see ``amd_order``), took the
field's ordering from 127.5 to 117.2 ms and prob1's from 297.9 to 293.2
ms (medians of 15 alternated calls, faster in 12 and 9 of 15, 2 vCPU).
The split is measured: an array scan pays the fixed cost of a few dozen
numpy calls, which loses to the loop on mesh pivots (no pivot of the
72x72 AR1 (x) AR1 field reaches volume 51) and wins on the mixed-model
equations, where pivots of volume 256 and more carry 99 % of the
scanned entries of prob1 to prob3 (seed 1000) and the ordering runs 1.5
to 2 times faster.

A variable's element and variable lists are Python lists until the first
array scan reaches it.  That scan converts both to ``array('q')``, and
every array scan writes the pruned lists back as slices of one
``array('q')`` of the kept entries, so a variable that stays heavy keeps
machine ints between pivots: the next array scan gathers all its
members' lists with one ``b"".join`` read by ``np.frombuffer``, where a
Python list would need every int converted on the way in and out.  The
list scan, the reach step and the merges read either type unchanged and
write Python lists.  Only the array scan converts, so an ordering whose
pivots never reach it (the 72x72 field's) runs on Python lists alone;
arrays for every variable from the start made the field's ordering about
1.17 times slower, because the list scan then builds an array per
member.  With this storage the ordering of prob1 / prob2 / prob3 (seed
1000) took 0.49 / 0.86 / 1.87 s against 0.70 / 1.45 / 3.30 s with the
lists converted at every heavy pivot (medians of 10 alternated calls on
2 vCPUs).

A new pattern also pays the ordering's set-up and its list scan, which
on a mesh run once per pivot and member.  ``_adjacency`` slices each
node's list from one ``tolist()`` of the grouped neighbours, and when no
row is dense (the field's case) the variable lists are those lists
themselves, not filtered copies; prob1 and the C of the benchmark's
``reml_fit``, with 17 and 18 dense rows, keep the copy.  In the list
scan a member whose variable list is already empty skips its pass (15
981 of the field's 26 463 member updates), the reach is one
``dict.fromkeys`` over a chain of the lists, and ``_indistinguishable``
returns at once when no two keys are equal.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from typing import IO

import numpy as np

from .errors import (
    InvalidParameterError,
    NotAPermutationError,
    ParseError,
    SizeMismatchError,
    _open_text,
)
from .sparse_core import Permutation, SparseSymmetric, _group_by_row

__all__ = ["natural_order", "amd_order", "load_order", "write_order",
           "resolve_ordering"]


def natural_order(n: int) -> Permutation:
    """The identity ordering on n nodes."""
    return Permutation(np.arange(n, dtype=np.int64))


def load_order(stream: IO[str], n: int) -> Permutation:
    """Read n whitespace-separated 0-based indices and validate a bijection.

    Raises SizeMismatchError if the count differs from n, ParseError on a
    non-integer token, NotAPermutationError if indices repeat or fall
    outside 0..n-1.
    """
    tokens = stream.read().split()
    if len(tokens) != n:
        raise SizeMismatchError(f"expected {n} indices, found {len(tokens)}")
    try:
        perm = np.asarray([int(t) for t in tokens], dtype=np.int64)
    except ValueError as exc:
        raise ParseError(f"non-integer token in permutation file: {exc}") from exc
    return Permutation(perm)


def write_order(p: Permutation, stream: IO[str]):
    """Write a permutation in the same format load_order reads."""
    stream.write(" ".join(str(int(i)) for i in p.perm))
    stream.write("\n")


def _named_order(spec: str | Permutation, n: int) -> str | Permutation:
    """``"amd"``, or the permutation of n nodes that any other ordering
    spec names: ``"natural"``, ``"file:<path>"`` (read with
    :func:`load_order`) or a Permutation, returned as it is.  Any other
    spec raises InvalidParameterError."""
    if isinstance(spec, Permutation) or spec == "amd":
        return spec
    if spec == "natural":
        return natural_order(n)
    if isinstance(spec, str) and spec.startswith("file:"):
        with _open_text(spec[len("file:"):], "ordering") as fh:
            return load_order(fh, n)
    raise InvalidParameterError(
        f"unknown ordering {spec!r}; use natural, amd, or file:<path>")


def resolve_ordering(ordering: str | Permutation,
                     a: SparseSymmetric) -> Permutation:
    """The permutation an ordering spec names for the matrix ``a``.

    ``ordering`` is ``"natural"``, ``"amd"``, ``"file:<path>"`` (read with
    :func:`load_order`) or a Permutation, returned as it is.  Any other
    name raises InvalidParameterError.
    """
    named = _named_order(ordering, a.n)
    return amd_order(a) if isinstance(named, str) else named


def _adjacency(a: SparseSymmetric) -> list[list[int]]:
    """Per-node sorted neighbor lists of the symmetrized pattern (no diagonal)."""
    rows, cols, _ = a.triplets()
    off = rows != cols
    r, c = rows[off], cols[off]
    # Lower-triangle storage gives node v's smaller neighbours column by
    # column and then its larger ones down column v, so grouping by node
    # in the order given leaves every list ascending.
    order, row_ptr = _group_by_row(np.concatenate([r, c]), a.n)
    flat = np.concatenate([c, r])[order].tolist()
    return [flat[s:e] for s, e in itertools.pairwise(row_ptr.tolist())]


# A pivot whose scan visits at least this many list entries runs it as
# array work; see amd_order.
_ARRAY_SCAN_VOLUME = 256


def amd_order(a: SparseSymmetric) -> Permutation:
    """Approximate-minimum-degree ordering of the pattern of ``a``.

    Nodes whose degree exceeds 10·sqrt(n) are deferred to the end of the
    ordering (ascending); aggressive element absorption and supervariable
    merging are applied; among minimum-degree candidates the smallest
    original index is eliminated first.

    Each pivot p scans the quotient graph around its reach Le: the weight
    left in every element outside Le, absorption of the elements left
    empty, pruning of each member's element and variable lists,
    approximate external degrees and the groups of indistinguishable
    members.  When the members' lists hold ``_ARRAY_SCAN_VOLUME`` entries
    or more the scan is :func:`_array_scan`, otherwise a loop over the
    lists; both key members by list lengths and id sums and compare the
    lists exactly on a key hit.  Both find the same groups.  Merges, mass
    elimination and the degree cap then run in one shared loop in sorted
    order.

    The heap holds ``degree * n + id`` keys.  A key is pushed only when a
    variable's degree falls, not at every degree change: a variable whose
    degree rose keeps its lower entry, which, popped, pushes the current
    key.  The pivot is still the live variable of least (degree, id).

    ``adj_e[i]`` and ``adj_v[i]`` are Python lists until an array scan
    first reaches i; from then on each array scan leaves them as
    ``array('q')``, which its next gather reads without converting an
    int, while the list scan reads them as they are and writes lists.

    A variable is live exactly when its weight ``nv[i]`` is positive (dense
    nodes start at 0; elimination or merging into another sets it to 0),
    and an element exactly when its variable list ``elem_vars[e]`` is
    non-empty.  ``nv_a`` mirrors ``nv`` and ``w_a`` holds the weight of
    each live element and 0 for every other id, for the array scan.
    """
    n = a.n
    if n == 0:
        return Permutation(np.empty(0, dtype=np.int64))
    adj = _adjacency(a)
    dense_cut = 10.0 * math.sqrt(n)

    # Quotient-graph state.  Ids serve double duty: a variable that gets
    # eliminated becomes the element with the same id.
    nv = [0 if len(nbrs) > dense_cut else 1 for nbrs in adj]  # supervariable weight
    dense = [i for i in range(n) if not nv[i]]
    n_sparse = n - len(dense)
    members: list[list[int]] = [[i] for i in range(n)]
    # variable neighbors: the adjacency lists themselves when no row is
    # dense, else a copy without the dense nodes
    adj_v = [[j for j in nbrs if nv[j]] if nv[i] else []
             for i, nbrs in enumerate(adj)] if dense else adj
    adj_e: list[list[int] | array] = [[] for _ in range(n)]  # element neighbors
    elem_vars: list[list[int]] = [[] for _ in range(n)]
    elem_weight = [0] * n
    degree = [len(vs) for vs in adj_v]
    del adj
    nv_a = np.array(nv, dtype=np.int64)
    w_a = np.zeros(n, dtype=np.int64)

    # Pivot candidates: degree * n + id, one int per entry, not a tuple.
    # A variable's key is pushed when its degree falls, so every live
    # variable keeps an entry at or below its key, and the smallest entry
    # that is current is the live variable of least degree and, among
    # those, of least id.  A popped entry below its variable's degree
    # pushes the current key; one above it is stale.
    heap = [degree[i] * n + i for i in range(n) if nv[i]]
    heapq.heapify(heap)
    order: list[int] = []

    def eliminate(i: int):
        """Append i's members to the order and drop i from the graph."""
        order.extend(sorted(members[i]))
        nv[i] = nv_a[i] = 0
        adj_v[i] = []
        adj_e[i] = []

    while len(order) < n_sparse:
        deg, p = divmod(heapq.heappop(heap), n)
        if not nv[p] or deg > degree[p]:
            continue  # p is dead, or its degree fell after this push
        if deg < degree[p]:
            heapq.heappush(heap, degree[p] * n + p)
            continue

        # --- Le: live variables adjacent to p directly or through one of
        # p's elements, which the new element p absorbs.
        reach = dict.fromkeys(itertools.chain(
            adj_v[p], *map(elem_vars.__getitem__, adj_e[p])))
        for e in adj_e[p]:
            elem_vars[e] = []
            w_a[e] = 0
        le = [v for v in reach if nv[v] and v != p]
        eliminate(p)
        dk = sum(map(nv.__getitem__, le))

        volume = (sum(map(len, map(adj_e.__getitem__, le)))
                  + sum(map(len, map(adj_v.__getitem__, le))))
        if volume >= _ARRAY_SCAN_VOLUME:
            tmp_deg, groups = _array_scan(p, le, adj_e, adj_v, elem_vars,
                                          nv_a, w_a)
        else:
            # --- set differences |Le' \ Le| for every live element
            # touching Le; an element fully covered by the new one is
            # absorbed outright.
            residual: dict[int, int] = {}
            for i in le:
                for e in adj_e[i]:
                    if elem_vars[e]:
                        residual[e] = residual.get(e, elem_weight[e]) - nv[i]
            for e, res in residual.items():
                if res == 0:
                    elem_vars[e] = []
                    w_a[e] = 0

            # --- prune, attach p, approximate external degrees and keys;
            # an empty variable list (most members' on a mesh) stays as
            # it is and adds nothing.
            tmp_deg = {}
            keys = []
            for i in le:
                ae = adj_e[i] = [e for e in adj_e[i] if elem_vars[e]]
                d = sum(map(residual.__getitem__, ae))
                if adj_v[i]:
                    av = adj_v[i] = [v for v in adj_v[i] if nv[v] and v not in reach]
                    tmp_deg[i] = d + sum(map(nv.__getitem__, av))
                    keys.append((len(ae), sum(ae), len(av), sum(av)))
                else:
                    tmp_deg[i] = d
                    keys.append((len(ae), sum(ae), 0, 0))
                ae.append(p)
            groups = _indistinguishable(le, keys, adj_e, adj_v)

        # --- merge indistinguishable supervariables (smallest id survives);
        # a merged variable's members move to its keeper first.
        for group in groups:
            group.sort()
            keeper = group[0]
            for j in group[1:]:
                nv[keeper] += nv[j]
                nv_a[keeper] = nv[keeper]
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
                if d < degree[i]:
                    heapq.heappush(heap, d * n + i)
                degree[i] = d

        elem_vars[p] = [v for v in le if nv[v]]
        elem_weight[p] = w_a[p] = sum(map(nv.__getitem__, elem_vars[p]))

    order.extend(dense)
    if len(order) != n:
        raise NotAPermutationError("internal ordering error: incomplete elimination")
    return Permutation(np.asarray(order, dtype=np.int64))


def _array_scan(p, le, adj_e, adj_v, elem_vars, nv_a, w_a):
    """The quotient-graph scan of pivot p over its reach ``le`` as array
    work: the same absorptions and pruned lists as the list scan in
    :func:`amd_order`, returned as ``(tmp_deg, groups)``, each member's
    external degree without Le and the lists of members that share their
    pruned element and variable lists.

    One concatenation holds the members' element lists, then their
    variable lists; list k of the 2m is tagged k, so ``bincount`` over the
    tags gives each list's kept length, id sum and degree share in one
    call each.  Weights and ids are far below 2**53, so the float sums of
    ``bincount`` are exact.  The members' lists are first made
    ``array('q')`` where they are still Python lists, so the
    concatenation is one ``b"".join`` of their buffers; each pruned list
    comes back as a slice of one ``array('q')`` of the kept entries, and
    a list that loses no entry is kept as it is.
    """
    m = len(le)
    for adj in (adj_e, adj_v):
        for i in le:
            if type(adj[i]) is list:
                adj[i] = array("q", adj[i])
    lists = [adj_e[i] for i in le] + [adj_v[i] for i in le]
    lens = list(map(len, lists))
    cat = np.frombuffer(b"".join(lists), np.int64)
    tag = np.repeat(np.arange(2 * m), lens)
    n_e = sum(lens[:m])
    elems, e_tag, nbrs = cat[:n_e], tag[:n_e], cat[n_e:]
    le_a = np.array(le, dtype=np.int64)

    # --- the weight each live element keeps outside Le: its weight less
    # that of its Le members, 0 for a dead element.  A live element left
    # with none is absorbed.
    nv_le = nv_a[le_a]
    w = w_a[elems]
    live = w > 0
    rest = w - np.bincount(elems, weights=nv_le[e_tag] * live)[elems]
    gone = elems[live & (rest == 0)]
    if gone.size:
        w_a[gone] = 0
        for e in set(gone.tolist()):
            elem_vars[e] = []

    # --- each list keeps the entries of non-zero weight: elements with
    # weight left and live variables outside Le, whose weights sum to the
    # member's external degree.
    nv_a[le_a] = 0
    weight = np.concatenate((rest, nv_a[nbrs]))
    nv_a[le_a] = nv_le
    keep = weight != 0
    kept, k_tag = cat[keep], tag[keep]
    share = np.bincount(tag, weights=weight, minlength=2 * m)
    count = np.bincount(k_tag, minlength=2 * m)
    id_sum = np.bincount(k_tag, weights=kept, minlength=2 * m)
    deg = (share[:m] + share[m:]).astype(np.int64).tolist()

    # --- hand the pruned lists back, p attached, and group the members
    # by key; a key hit is a merge only when the lists are equal as sets.
    # Element lists mostly lose nothing and are kept as they are.
    pruned = array("q", kept.tobytes())
    at = np.concatenate(([0], np.cumsum(count))).tolist()
    count, id_sum = count.tolist(), id_sum.tolist()
    for k, i in enumerate(le):
        if count[k] != lens[k]:
            adj_e[i] = pruned[at[k]:at[k + 1]]
        adj_e[i].append(p)
        if count[k + m] != lens[k + m]:
            adj_v[i] = pruned[at[k + m]:at[k + m + 1]]
    keys = zip(count[:m], id_sum[:m], count[m:], id_sum[m:])
    return dict(zip(le, deg)), _indistinguishable(le, keys, adj_e, adj_v)


def _indistinguishable(le, keys, adj_e, adj_v) -> list[list[int]]:
    """The classes of two or more members of ``le`` whose element and
    variable lists are equal as sets.  Members are bucketed by their
    ``keys``, the lengths and id sums of their pruned lists, and their
    sorted lists are compared only on a key hit; with no key shared there
    is no class."""
    keys = list(keys)
    if len(set(keys)) == len(keys):
        return []
    buckets: dict[tuple, list[list[int]]] = {}
    for i, key in zip(le, keys):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [[i]]
            continue
        for cls in bucket:
            j = cls[0]
            if (sorted(adj_e[j]) == sorted(adj_e[i])
                    and sorted(adj_v[j]) == sorted(adj_v[i])):
                cls.append(i)
                break
        else:
            bucket.append([i])
    return [cls for bucket in buckets.values() for cls in bucket
            if len(cls) > 1]
