"""Output checks for one operation, run outside the timed window.

Each returns a list of failure messages; an operation passes when all of
them are empty.
"""

from __future__ import annotations

import numpy as np

import seldet as sd

TRACE_RTOL = 1e-9       # tr(C^-1 C) = dim
SOLVE_RTOL = 1e-10      # selected entries against solve(C, e_j)
REFERENCE_RTOL = 1e-8   # against the recorded or closed-form values
SOLVE_COLUMNS = 3


def counters(out) -> list[str]:
    """Measured kernel work equals the symbolic forecast, exactly."""
    ldlt, selinv = sd.predict_flops(out.zsel.sym)
    pairs = (("ldlt_factorize flops", out.factor.flops, ldlt),
             ("selected_inverse flops", out.zsel.flops, selinv)) + out.counters
    return [f"{what}: measured {got}, forecast {want}"
            for what, got, want in pairs if got != want]


def trace_identity(out) -> list[str]:
    """tr(Z C) over the selected pattern equals the dimension."""
    n = out.c.n
    tr = sd.trace_product(out.zsel, out.c)
    if abs(tr - n) <= TRACE_RTOL * n:
        return []
    return [f"trace_product(Z, C) = {tr!r}, expected {n}"]


def selected_column(zsel, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows (permuted order) and values of every selected entry in column
    j (original order): below the diagonal from column j's own pattern,
    above it from the earlier columns whose pattern holds j."""
    colptr, rows = zsel.sym.l_col_ptr, zsel.sym.l_row_idx
    pj = int(zsel.perm.inverse[j])
    lo, hi = colptr[pj], colptr[pj + 1]
    above = np.flatnonzero(rows == pj)
    above_cols = np.searchsorted(colptr, above, side="right") - 1
    idx = np.concatenate([rows[lo:hi], above_cols, [pj]])
    vals = np.concatenate([zsel.z_values[lo:hi], zsel.z_values[above],
                           [zsel.z_diag[pj]]])
    return idx, vals


def solve_columns(out, rng: np.random.Generator) -> list[str]:
    """A few seeded columns of solve(C, e_j) match the selected entries,
    relative to sqrt(Z_ii Z_jj)."""
    zsel = out.zsel
    errs = []
    for j in rng.choice(zsel.n, size=min(SOLVE_COLUMNS, zsel.n), replace=False):
        e = np.zeros(zsel.n)
        e[j] = 1.0
        x = sd.solve(out.factor, e)[zsel.perm.perm]   # permuted order
        idx, vals = selected_column(zsel, int(j))
        scale = np.sqrt(zsel.z_diag[idx] * zsel.z_diag[zsel.perm.inverse[j]])
        err = float(np.max(np.abs(vals - x[idx]) / scale))
        if not err <= SOLVE_RTOL:
            errs.append(f"column {j}: selected entries differ from solve "
                        f"by {err:.3e} relative")
    return errs


def reference(out, expected: dict | None) -> list[str]:
    """Every recorded value matches to REFERENCE_RTOL relative."""
    if expected is None:
        return ["no reference values for this input"]
    errs = []
    for name, want in expected.items():
        got = np.asarray(out.values[name], dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.all(
                np.abs(got - want) <= REFERENCE_RTOL * np.abs(want)):
            errs.append(f"{name} = {got.tolist()!r}, reference {want.tolist()!r}")
    return errs


def check(out, expected: dict | None, rng: np.random.Generator) -> list[str]:
    return (counters(out) + trace_identity(out) + solve_columns(out, rng)
            + reference(out, expected))
