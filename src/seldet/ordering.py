"""Fill-reducing symmetric orderings.

`amd_order` is an approximate-minimum-degree ordering on the quotient
graph: eliminated pivots become *elements*, indistinguishable variables
are merged into supervariables, and external degrees are tracked by the
usual upper bound rather than exactly.  The heuristic follows Amestoy,
Davis & Duff; determinism is part of the contract, so every tie is broken
toward the smallest original index.
"""

from __future__ import annotations

import hashlib
import heapq
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


def _ordering_key(ordering: str | Permutation) -> tuple:
    """What decides a spec's permutation: name, bytes or file content hash."""
    if isinstance(ordering, Permutation):
        return ("perm", ordering.perm.tobytes())
    if isinstance(ordering, str) and ordering.startswith("file:"):
        with open(ordering[len("file:"):], "rb") as fh:
            return ("file", hashlib.sha256(fh.read()).digest())
    return ("name", ordering)


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

    A variable is live exactly when its weight ``nv[i]`` is positive (dense
    nodes start at 0; elimination or merging into another sets it to 0),
    and an element exactly when its variable list ``elem_vars[e]`` is
    non-empty.
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
    return Permutation(np.asarray(order, dtype=np.int64))
