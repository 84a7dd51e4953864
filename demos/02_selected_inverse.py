"""The sparse subset of the inverse: what it contains, what it costs.

The inverse of a sparse SPD matrix is dense, but the entries living on the
sparsity pattern of the factor L can be computed without ever touching the
rest.  That subset is exactly what trace-based derivative formulas and
prediction-error variances consume.
"""

import numpy as np

import seldet as sd

# ---------------------------------------------------------------------------
# Chain of length 3.  The true inverse is completely dense, but the factor
# of a chain has no fill, so the selected subset is just the tridiagonal
# part — entry (2,0) is OUT of the subset even though its true value, 0.25,
# is nonzero.  Lookups distinguish "absent" from "zero".
# ---------------------------------------------------------------------------

chain = sd.from_coo_arrays(3, np.array([0, 1, 2, 1, 2]),
                           np.array([0, 1, 2, 0, 1]),
                           np.array([2.0, 2.0, 2.0, -1.0, -1.0]))

sym = sd.symbolic_factor(chain, sd.natural_order(3))
z = sd.selected_inverse(sd.ldlt_factorize(chain, sym))

print("chain, n = 3: selected entries of the inverse")
for i in range(3):
    for j in range(i + 1):
        val = sd.get_entry(z, i, j)
        shown = "absent " if val is None else f"{val:.4f}"
        print(f"  Z[{i},{j}] = {shown}")
print("  full inverse for comparison:")
for line in str(sd.dense_inverse_oracle(chain)).splitlines():
    print("  " + line)

# ---------------------------------------------------------------------------
# A bigger random SPD matrix: every selected entry agrees with the dense
# inverse, and the multiply-add counter lands on the forecast
#
#     selinv_flops = 2 * ldlt_flops - (nnz(L) - n),
#
# i.e. selected inversion costs just under twice the factorization.
# ---------------------------------------------------------------------------

rng = np.random.default_rng(42)
n, m = 300, 700
i = rng.integers(1, n, size=m)
j = (rng.random(m) * i).astype(np.int64)
v = rng.uniform(-1.0, 1.0, size=m)
d = np.full(n, 1.0)
np.add.at(d, i, np.abs(v))
np.add.at(d, j, np.abs(v))
a = sd.from_coo_arrays(n, np.concatenate([i, np.arange(n)]),
                       np.concatenate([j, np.arange(n)]),
                       np.concatenate([v, d]))

perm = sd.amd_order(a)
sym = sd.symbolic_factor(a, perm)
f = sd.ldlt_factorize(a, sym)
z = sd.selected_inverse(f)
inv = sd.dense_inverse_oracle(a)

worst = 0.0
for row in range(n):
    got = sd.get_entry(z, row, row)
    worst = max(worst, abs(got - inv[row, row]) / inv[row, row])

print(f"\nrandom SPD, n = {n}")
print(f"  nnz(L)            = {sym.nnz_L}")
print(f"  ldlt flops        = {f.flops}")
print(f"  selinv flops      = {z.flops} "
      f"(= 2*{f.flops} - ({sym.nnz_L} - {n}))")
print(f"  identity holds    = "
      f"{z.flops == sd.selinv_flops_from_ldlt(f.flops, sym.nnz_L, n)}")
print(f"  worst diagonal err vs dense inverse = {worst:.2e}")
