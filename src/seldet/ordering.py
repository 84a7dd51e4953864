"""Fill-reducing symmetric orderings.

`amd_order` is an approximate-minimum-degree ordering on the quotient
graph: eliminated pivots become *elements*, indistinguishable variables
are merged into supervariables, and external degrees are tracked by the
usual upper bound rather than exactly.  The heuristic follows Amestoy,
Davis & Duff; determinism is part of the contract, so every tie is broken
toward the smallest original index.
"""

from __future__ import annotations

import math
from typing import IO

import numpy as np

from .errors import (
    InvalidParameterError,
    NotAPermutationError,
    ParseError,
    SizeMismatchError,
)
from .sparse_core import Permutation, SparseSymmetric

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


def resolve_ordering(ordering: str | Permutation,
                     a: SparseSymmetric) -> Permutation:
    """The permutation an ordering spec names for the matrix ``a``.

    ``ordering`` is ``"natural"``, ``"amd"``, ``"file:<path>"`` (read with
    :func:`load_order`) or a Permutation, returned as it is.  Any other
    name raises InvalidParameterError.
    """
    if isinstance(ordering, Permutation):
        return ordering
    if ordering == "natural":
        return natural_order(a.n)
    if ordering == "amd":
        return amd_order(a)
    if isinstance(ordering, str) and ordering.startswith("file:"):
        with open(ordering[len("file:"):], encoding="utf-8") as fh:
            return load_order(fh, a.n)
    raise InvalidParameterError(
        f"unknown ordering {ordering!r}; use natural, amd, or file:<path>")


def _adjacency(a: SparseSymmetric) -> list[list[int]]:
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


def amd_order(a: SparseSymmetric) -> Permutation:
    """Approximate-minimum-degree ordering of the pattern of ``a``.

    Nodes whose degree exceeds 10·sqrt(n) are deferred to the end of the
    ordering (ascending); aggressive element absorption and hash-based
    supervariable merging are applied; among minimum-degree candidates the
    smallest original index is eliminated first.
    """
    n = a.n
    if n == 0:
        return Permutation(np.empty(0, dtype=np.int64))
    adj = _adjacency(a)

    dense_cut = 10.0 * math.sqrt(n)
    dense = [i for i in range(n) if len(adj[i]) > dense_cut]
    is_dense = [False] * n
    for i in dense:
        is_dense[i] = True

    # Quotient-graph state.  Ids serve double duty: a variable that gets
    # eliminated becomes the element with the same id.
    nv = [1] * n                      # supervariable weight; 0 once absorbed
    members: list[list[int]] = [[i] for i in range(n)]
    adj_v: list[list[int]] = [[] for _ in range(n)]   # variable neighbors
    adj_e: list[list[int]] = [[] for _ in range(n)]   # element neighbors
    elem_vars: list[list[int]] = [[] for _ in range(n)]
    elem_weight = [0] * n
    var_live = [not is_dense[i] for i in range(n)]
    elem_live = [False] * n
    degree = [0] * n
    tag = [0] * n
    cur_tag = 0

    live_weight = 0
    for i in range(n):
        if not var_live[i]:
            continue
        adj_v[i] = [j for j in adj[i] if not is_dense[j]]
        degree[i] = len(adj_v[i])
        live_weight += 1
    del adj

    # Degree buckets for pivot selection.
    buckets: dict[int, set[int]] = {}
    for i in range(n):
        if var_live[i]:
            buckets.setdefault(degree[i], set()).add(i)
    mind = 0

    order: list[int] = []

    def bucket_move(i: int, old: int, new: int):
        buckets[old].discard(i)
        buckets.setdefault(new, set()).add(i)

    while live_weight > 0:
        while not buckets.get(mind):
            mind += 1
        p = min(buckets[mind])
        buckets[mind].discard(p)

        # --- gather Le: live variables adjacent to p directly or through
        # one of p's elements (which are absorbed into the new element).
        cur_tag += 1
        tag[p] = cur_tag
        le: list[int] = []
        for v in adj_v[p]:
            if nv[v] > 0 and var_live[v] and tag[v] != cur_tag:
                tag[v] = cur_tag
                le.append(v)
        for e in adj_e[p]:
            if not elem_live[e]:
                continue
            for v in elem_vars[e]:
                if nv[v] > 0 and var_live[v] and tag[v] != cur_tag:
                    tag[v] = cur_tag
                    le.append(v)
            elem_live[e] = False
            elem_vars[e] = []

        order.extend(sorted(members[p]))
        live_weight -= nv[p]
        var_live[p] = False
        nv_p = nv[p]
        nv[p] = 0
        adj_v[p] = []
        adj_e[p] = []

        if not le:
            continue
        dk = sum(nv[v] for v in le)
        elem_vars[p] = le
        elem_weight[p] = dk
        elem_live[p] = True

        # --- prune member lists and attach the new element.
        for i in le:
            adj_e[i] = [e for e in adj_e[i] if elem_live[e]]
            adj_e[i].append(p)
            adj_v[i] = [v for v in adj_v[i]
                        if nv[v] > 0 and var_live[v] and tag[v] != cur_tag]

        # --- set differences |Le' \ Le| for every element touching Le;
        # an element fully covered by the new one is absorbed outright.
        residual: dict[int, int] = {}
        for i in le:
            for e in adj_e[i]:
                if e == p:
                    continue
                residual[e] = residual.get(e, elem_weight[e]) - nv[i]
        for e, res in residual.items():
            if res == 0:
                elem_live[e] = False
                elem_vars[e] = []

        # --- approximate external degrees and adjacency signatures.
        tmp_deg: dict[int, int] = {}
        signature: dict[tuple, list[int]] = {}
        for i in le:
            adj_e[i] = [e for e in adj_e[i] if elem_live[e]]
            d = sum(residual[e] for e in adj_e[i] if e != p)
            d += sum(nv[v] for v in adj_v[i])
            tmp_deg[i] = d
            key = (tuple(sorted(adj_e[i])), tuple(sorted(adj_v[i])))
            signature.setdefault(key, []).append(i)

        # --- merge indistinguishable supervariables (smallest id survives).
        for group in signature.values():
            if len(group) < 2:
                continue
            group.sort()
            keeper = group[0]
            for j in group[1:]:
                nv[keeper] += nv[j]
                members[keeper].extend(members[j])
                members[j] = []
                nv[j] = 0
                var_live[j] = False
                buckets[degree[j]].discard(j)
                adj_v[j] = []
                adj_e[j] = []

        # --- final degrees; zero external degree means the variable can be
        # eliminated along with this pivot (mass elimination).
        for i in sorted(le):
            if not var_live[i]:
                continue
            d = min(tmp_deg[i] + dk - nv[i], live_weight - nv[i])
            if d <= 0:
                order.extend(sorted(members[i]))
                live_weight -= nv[i]
                buckets[degree[i]].discard(i)
                var_live[i] = False
                nv[i] = 0
                adj_v[i] = []
                adj_e[i] = []
            else:
                bucket_move(i, degree[i], d)
                degree[i] = d
                mind = min(mind, d)

        live = [v for v in elem_vars[p] if var_live[v] and nv[v] > 0]
        if live:
            elem_vars[p] = live
            elem_weight[p] = sum(nv[v] for v in live)
        else:
            elem_live[p] = False
            elem_vars[p] = []

    order.extend(sorted(dense))
    if len(order) != n:
        raise NotAPermutationError("internal ordering error: incomplete elimination")
    return Permutation(np.asarray(order, dtype=np.int64))
