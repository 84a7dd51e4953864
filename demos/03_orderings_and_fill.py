"""Why the elimination order matters: fill-in under natural vs AMD.

Two classic structures bracket the story.  On grid operators a good
ordering cuts the factor size by a multiple; on an arrowhead matrix the
difference is between "no fill at all" and "completely dense".
"""

import numpy as np

import seldet as sd


def report(name, a):
    nat = sd.symbolic_factor(a, sd.natural_order(a.n))
    amd = sd.symbolic_factor(a, sd.amd_order(a))
    full = a.n * (a.n + 1) // 2
    print(f"{name:<22} n={a.n:<6} nnz(A)={a.nnz:<8} "
          f"natural nnz(L)={nat.nnz_L:<9} amd nnz(L)={amd.nnz_L:<9} "
          f"dense={full}")
    print(f"{'':<22} natural flops={sd.predict_flops(nat)[0]:<12} "
          f"amd flops={sd.predict_flops(amd)[0]}")
    return nat, amd


def grid(k):
    n = k * k
    node = np.arange(n).reshape(k, k)    # node i*k + j sits at (i, j)
    down, right = node[:-1, :].ravel(), node[:, :-1].ravel()
    return sd.from_coo_arrays(
        n,
        np.concatenate([node.ravel(), down + k, right + 1]),
        np.concatenate([node.ravel(), down, right]),
        np.concatenate([np.full(n, 4.0), np.full(down.size + right.size, -1.0)]))


def arrowhead_first(n):
    i = np.arange(n)
    return sd.from_coo_arrays(
        n, np.concatenate([i, i[1:]]), np.concatenate([i, np.zeros(n - 1, int)]),
        np.concatenate([np.full(n, float(n)), np.ones(n - 1)]))


for k in (8, 16, 32):
    report(f"grid {k}x{k}", grid(k))

print()
# The arrowhead's dense column comes FIRST, so natural elimination connects
# everything to everything: the factor is fully dense.  AMD simply
# eliminates the hub last and nothing fills at all.
nat, amd = report("arrowhead n=100", arrowhead_first(100))
assert nat.nnz_L == 100 * 101 // 2
assert amd.nnz_L == arrowhead_first(100).nnz

print("\nAn ordering can also be pinned in a file (one line of n integers)")
print("and passed to the command-line tools as --ordering file:<path>.")
