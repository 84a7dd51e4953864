"""Command-line front end.

One subcommand per reporting surface:

  analyze   symbolic analysis of a Matrix Market file (fill, FLOP predictions)
  selinv    factor a matrix and write its selected inverse
  reml      restricted-likelihood report for a dataset file
  gen       generate a synthetic variety-trial dataset from a preset
  bench     run the generated benchmark ladder, emit CSV
  verify    selinv's dense-oracle checks without its report (n <= 500)

CSV is the only structured output format; exit code 0 means every
requested verification passed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from . import datagen, reml
from .errors import (
    InvalidParameterError,
    SeldetError,
    TooLargeError,
    _open_text,
)
from .numeric import log_det, solve
from .selinv import DENSE_ORACLE_LIMIT, dense_inverse_oracle
from .sparse_core import (
    SparseSymmetric,
    _entry_columns,
    from_coo_arrays,
    read_matrix_market,
    write_matrix_market,
)
from .symbolic import predict_flops, selinv_flops_from_ldlt

__all__ = ["main"]


def _read_matrix(path: str) -> SparseSymmetric:
    with _open_text(path, "matrix") as fh:
        return read_matrix_market(fh)


def _add_ordering_flag(p: argparse.ArgumentParser):
    p.add_argument("--ordering", default="amd",
                   help="natural, amd, or file:<path> (default: amd)")


def _write_csv(path: str | None, header: list[str], rows: list[list]):
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)
    finally:
        if path:
            out.close()


# ---------------------------------------------------------------- analyze


def cmd_analyze(args) -> int:
    a = _read_matrix(args.matrix)
    sym = reml._order_and_analyze(a, args.ordering, {})
    ldlt, selinv_f = predict_flops(sym)
    n = a.n
    tri = n * (n + 1) // 2
    per_mille = 1000.0 * a.nnz / tri if tri else 0.0
    identity_ok = selinv_f == selinv_flops_from_ldlt(ldlt, sym.nnz_L, n)
    header = ["name", "n", "nnz", "nnz_per_col", "per_mille", "ordering",
              "nnz_L", "ldlt_flops", "selinv_flops", "identity"]
    row = [args.matrix, n, a.nnz, round(a.nnz / n, 3) if n else 0.0,
           round(per_mille, 3), args.ordering, sym.nnz_L, ldlt, selinv_f,
           "PASS" if identity_ok else "FAIL"]
    if args.csv or args.out:
        _write_csv(args.out, header, [row])
    if not args.csv:
        print(f"matrix        : {args.matrix}")
        print(f"n             : {n}")
        print(f"nnz (lower)   : {a.nnz}  ({a.nnz / n:.2f} per column, "
              f"{per_mille:.3f} per mille)" if n else "nnz (lower)   : 0")
        print(f"ordering      : {args.ordering}")
        print(f"nnz(L)        : {sym.nnz_L}")
        print(f"ldlt_flops    : {ldlt}")
        print(f"selinv_flops  : {selinv_f}")
        print(f"flop identity : {'PASS' if identity_ok else 'FAIL'} "
              f"(selinv = 2*ldlt - (nnz_L - n))")
        print(_supernode_line(sym))
        print(_leaf_line(sym))
    return 0 if identity_ok else 1


def _supernode_line(sym) -> str:
    """The supernode count, the widest, and the share of the ldlt forecast
    that the factorization does in multi-column supernodes: all of it but
    the single columns, single column j taking 2 * (the lengths of its
    update segments) + m_j - 1, and the leaves' updates, q (q + 1) for a
    leaf with q entries below the diagonal, which come before the loop."""
    width = np.diff(sym.supernodes.astype(np.int64))
    ptr, _, _, length, _ = sym.block_updates
    single = width == 1
    gathered = int(length[np.repeat(single, np.diff(ptr.astype(np.int64)))]
                   .sum(dtype=np.int64))
    columns = sym.supernodes[:-1][single]
    q = sym.col_counts[sym.leaves] - 1
    work = (2 * gathered + int((sym.col_counts[columns] - 1).sum())
            + int(np.sum(q * (q + 1))))
    total = predict_flops(sym)[0]
    share = 1.0 - work / total if total else 0.0
    return (f"supernodes    : {width.size} (widest {int(width.max(initial=0))}, "
            f"{100.0 * share:.1f} % of ldlt_flops in multi-column ones)")


def _leaf_line(sym) -> str:
    """The leaves of the elimination tree, which every kernel does in
    batches outside its loop, as a share of the columns and of the selinv
    forecast (2q^2 + 3q for a leaf with q entries below the diagonal);
    the twigs; and the share of the ldlt forecast that the factorization
    does before its loop: q (q + 2) for a leaf, its updates and its
    divisions, and q for a twig, its divisions."""
    q = sym.col_counts[sym.leaves] - 1
    work = int(np.sum(2 * q * q + 3 * q))
    total = predict_flops(sym)
    twigs = sym.leaf_batches.twigs
    before = int(np.sum(q * (q + 2)) + np.sum(sym.col_counts[twigs] - 1))
    return (f"leaves        : {q.size} "
            f"({100.0 * q.size / sym.n if sym.n else 0.0:.1f} % of columns, "
            f"{100.0 * work / total[1] if total[1] else 0.0:.1f} % of "
            f"selinv_flops), {twigs.size} twigs, "
            f"{100.0 * before / total[0] if total[0] else 0.0:.1f} % of "
            "ldlt_flops before the loop")


# ----------------------------------------------------------------- selinv


def _selected_to_matrix(zsel) -> SparseSymmetric:
    """Selected inverse as a SparseSymmetric in ORIGINAL indices."""
    sym = zsel.sym
    perm = sym.perm.perm
    rows_o = np.concatenate([perm[sym.l_row_idx], perm])
    cols_o = np.concatenate([perm[_entry_columns(sym.l_col_ptr)], perm])
    vals = np.concatenate([zsel.z_values, zsel.z_diag])
    return from_coo_arrays(sym.n, rows_o, cols_o, vals)


def _require_dense_size(n: int, what: str):
    if n > DENSE_ORACLE_LIMIT:
        raise TooLargeError(f"{what} needs n <= {DENSE_ORACLE_LIMIT}, got {n}")


def _checks(a: SparseSymmetric, fac, zsel) -> list[tuple[str, bool, str]]:
    """The dense-oracle checks of ``verify`` and ``selinv --verify``, as
    (name, passed, detail): the flop counters against their forecasts, the
    selected entries against the dense inverse, the log-determinant against
    the dense one (and det A > 0), and the residual of one solve."""
    pred_ldlt, pred_si = predict_flops(fac.sym)
    dense, zd = a.to_dense(), dense_inverse_oracle(a)
    rows, cols, vals = _selected_to_matrix(zsel).triplets()
    scale = np.sqrt(np.abs(np.diag(zd)[rows] * np.diag(zd)[cols]))
    err = np.abs(vals - zd[rows, cols]) / np.maximum(scale, 1e-300)
    max_err = float(np.max(err, initial=0.0))
    sign, ld_dense = np.linalg.slogdet(dense)
    ld_err = abs(log_det(fac) - ld_dense) / max(1.0, abs(ld_dense))
    b = np.random.default_rng(0).standard_normal(a.n)
    resid = float(np.max(np.abs(dense @ solve(fac, b) - b), initial=0.0))
    rel = resid / max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return [
        ("flop counters", fac.flops == pred_ldlt and zsel.flops == pred_si,
         f"ldlt {fac.flops}/{pred_ldlt}, selinv {zsel.flops}/{pred_si}"),
        ("selected entries vs dense inverse", max_err <= 1e-10,
         f"max rel err {max_err:.3e}"),
        ("logdet vs dense", sign > 0 and ld_err <= 1e-10,
         f"rel err {ld_err:.3e}"),
        ("solve residual", rel <= 1e-8, f"rel residual {rel:.3e}"),
    ]


def _print_checks(checks: list[tuple[str, bool, str]]) -> bool:
    """Print one PASS/FAIL line per check; True when every check passed."""
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all(ok for _, ok, _ in checks)


def cmd_selinv(args) -> int:
    """``selinv``, and ``verify``: its dense-oracle checks without the
    report lines."""
    a = _read_matrix(args.matrix)
    if args.verify:
        _require_dense_size(a.n, "--verify" if args.report else "verify")
    times: dict[str, float] = {}
    sym = reml._order_and_analyze(a, args.ordering, times)
    fac, zsel = reml._factor_and_invert(a, sym, times)
    pred_ldlt, pred_si = predict_flops(sym)

    if args.report:
        print(f"n={a.n} nnz={a.nnz} nnz(L)={sym.nnz_L} "
              f"ordering={args.ordering}")
        print(f"logdet        : {log_det(fac):.12g}")
        print(f"ldlt_flops    : predicted {pred_ldlt}, measured {fac.flops}")
        print(f"selinv_flops  : predicted {pred_si}, measured {zsel.flops}")
        print("time (s)      : "
              + ", ".join(f"{phase} {t:.4f}" for phase, t in times.items()))

    if args.out:
        zmat = _selected_to_matrix(zsel)
        with open(args.out, "w", encoding="utf-8") as fh:
            write_matrix_market(zmat, fh)
        print(f"selected inverse written to {args.out} "
              f"({zmat.nnz} stored entries)")

    ok = fac.flops == pred_ldlt and zsel.flops == pred_si
    if args.verify:
        ok = _print_checks(_checks(a, fac, zsel))
    return 0 if ok else 1


# ------------------------------------------------------------------- reml


def _parse_param_list(flag: str, text: str | None, count: int,
                      default: float) -> np.ndarray:
    if text is None:
        return np.full(count, default)
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(
            f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if len(vals) == 1:
        return np.full(count, vals[0])
    if len(vals) != count:
        raise InvalidParameterError(
            f"{flag} expects 1 or {count} comma-separated values, "
            f"got {len(vals)}")
    return np.asarray(vals)


def cmd_reml(args) -> int:
    with _open_text(args.dataset, "dataset") as fh:
        d = reml.read_dataset(fh)
    gamma = _parse_param_list("--gamma", args.gamma, len(d.factors), 1.0)
    phi = _parse_param_list("--phi", args.phi, d.n_residual_blocks, 1.0)
    v = reml.VarianceParams(sigma2=args.sigma2, gamma=gamma, phi=phi)
    plan = reml.plan_for(d, args.ordering)
    rep = plan.evaluate(v)

    print(f"observations  : {d.n_obs}   effects (p+b): {rep.dim}")
    print(f"nnz(C)        : {rep.nnz_c}   nnz(L): {rep.nnz_l}")
    print(f"loglik (REML) : {rep.loglik:.12g}")
    print(f"logdet C      : {rep.logdet_c:.12g}")
    print(f"logdet R      : {rep.logdet_r:.12g}")
    print(f"logdet G      : {rep.logdet_g:.12g}")
    print(f"y'Py          : {rep.ypy:.12g}")
    print("logdet gradient:")
    for name, val in zip(rep.gradient_names, rep.gradient):
        print(f"  d/d {name:<24s} {val: .12g}")
    pev_tau = rep.pev[:len(rep.tau)]
    pev_u = rep.pev[len(rep.tau):]
    print(f"PEV (fixed)   : min {pev_tau.min():.6g}  mean {pev_tau.mean():.6g}  "
          f"max {pev_tau.max():.6g}")
    if pev_u.size:
        print(f"PEV (random)  : min {pev_u.min():.6g}  mean {pev_u.mean():.6g}  "
              f"max {pev_u.max():.6g}")
    print(f"flops         : ldlt {rep.measured_ldlt_flops}/{rep.predicted_ldlt_flops}"
          f"  selinv {rep.measured_selinv_flops}/{rep.predicted_selinv_flops}"
          f"  (measured/predicted)")

    ok = True
    if args.check_h_form:
        ll_h = reml.restricted_loglik(d, v, form="h")
        rel = abs(ll_h - rep.loglik) / max(1.0, abs(rep.loglik))
        good = rel <= 1e-8
        ok = ok and good
        print(f"h-form check  : C-form {rep.loglik:.12g}, H-form {ll_h:.12g}; "
              f"forms agree: max rel diff {rel:.3e} {'PASS' if good else 'FAIL'}")
    if args.fd_check:
        print("finite-difference check of the logdet gradient (rel step 1e-5):")
        worst = 0.0
        for i, name in enumerate(rep.gradient_names):
            base = v.gamma[i] if i < v.gamma.size else v.phi[i - v.gamma.size]
            h = 1e-5 * base
            lo = log_det(plan.factorize(v.perturbed(i, 1.0 - 1e-5))[0])
            hi = log_det(plan.factorize(v.perturbed(i, 1.0 + 1e-5))[0])
            fd = (hi - lo) / (2.0 * h)
            rel = abs(rep.gradient[i] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
            print(f"  {name:<24s} analytic {rep.gradient[i]: .9g}  "
                  f"fd {fd: .9g}  rel {rel:.3e}")
        good = worst <= 1e-6
        ok = ok and good
        print(f"fd check      : worst rel {worst:.3e} {'PASS' if good else 'FAIL'}")

    if args.out:
        header = ["quantity", "value"]
        rows = [["loglik", rep.loglik], ["logdet_C", rep.logdet_c],
                ["logdet_R", rep.logdet_r], ["logdet_G", rep.logdet_g],
                ["yPy", rep.ypy]]
        rows += [[f"grad:{name}", val]
                 for name, val in zip(rep.gradient_names, rep.gradient)]
        _write_csv(args.out, header, rows)
    return 0 if ok else 1


# -------------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    variances = {}
    for spec_ in args.var or []:
        if "=" not in spec_:
            raise SeldetError(f"--var expects term=value, got {spec_!r}")
        key, val = spec_.split("=", 1)
        try:
            variances[key] = float(val)
        except ValueError:
            raise SeldetError(
                f"--var expects term=number, got {spec_!r}") from None
    cfg = datagen.preset_config(args.preset, seed=args.seed)
    layout = {key: getattr(args, key) for key in datagen.PRESETS[args.preset]
              if getattr(args, key) is not None}
    d = datagen.generate(dataclasses.replace(
        cfg, **layout, variance_components=variances))
    with open(args.out, "w", encoding="utf-8") as fh:
        reml.write_dataset(d, fh)
    s = datagen.design_summary(d)
    print("year center variety  y.c  y.v  v.c  units")
    print(f"{s.years:4d} {s.centers:6d} {s.varieties:7d} {s.year_center:4d} "
          f"{s.year_variety:4d} {s.variety_center:4d} {s.units:6d}")
    print(f"v/y {s.varieties_per_year:.1f}   y/v {s.years_per_variety:.1f}   "
          f"c.v {s.obs_per_year_variety:.1f}")
    print(f"effects (p+b) : {s.effects}")
    print(f"dataset written to {args.out}")
    return 0


# ------------------------------------------------------------------ bench


def cmd_bench(args) -> int:
    problems = ([name.strip() for name in args.problems.split(",")]
                if args.problems else list(datagen.PRESETS))
    orderings = [flag.strip() for flag in args.orderings.split(",")]
    header = ["problem", "ordering", "n", "nnz_C", "nnz_L",
              "pred_ldlt", "meas_ldlt", "pred_selinv", "meas_selinv",
              "t_order", "t_symbolic", "t_factorize", "t_selinv"]
    rows: list[list] = []
    failed = False
    for name in problems:
        try:
            cfg = datagen.preset_config(name, seed=args.seed)
            d = datagen.generate(cfg)
            v = reml.VarianceParams(
                sigma2=1.0, gamma=np.ones(len(d.factors)),
                phi=np.ones(d.n_residual_blocks))
            for flag in orderings:
                rep = reml.reml_report(d, v, flag)
                rows.append([name, flag, rep.dim, rep.nnz_c, rep.nnz_l,
                             rep.predicted_ldlt_flops, rep.measured_ldlt_flops,
                             rep.predicted_selinv_flops,
                             rep.measured_selinv_flops]
                            + [round(rep.times[phase], 4) for phase in
                               ("ordering", "symbolic", "factorize", "selinv")])
        except SeldetError as exc:
            failed = True
            print(f"bench: problem {name!r} failed: {exc}", file=sys.stderr)
    _write_csv(args.out, header, rows)
    if args.out:
        pairs_path = args.out + ".pairs.csv"
        # (nnz_L, t_factorize + t_selinv) of each row
        _write_csv(pairs_path, ["nnz_L", "time_s"],
                   [[row[4], round(row[-2] + row[-1], 4)] for row in rows])
        print(f"wrote {args.out} and {pairs_path}")
    return 1 if failed else 0


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="seldet",
        description="Sparse LDL^T factorization, selected inversion, and "
                    "REML log-determinant derivatives.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="symbolic analysis and FLOP prediction")
    p.add_argument("matrix", help="Matrix Market file")
    _add_ordering_flag(p)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.add_argument("--out", help="write CSV to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("selinv", help="factor and compute the selected inverse")
    p.add_argument("matrix", help="Matrix Market file")
    _add_ordering_flag(p)
    p.add_argument("--out", help="write the selected inverse (Matrix Market)")
    p.add_argument("--verify", action="store_true",
                   help="run verify's dense-oracle checks "
                        f"(n <= {DENSE_ORACLE_LIMIT})")
    p.set_defaults(func=cmd_selinv, report=True)

    p = sub.add_parser("reml", help="restricted-likelihood report for a dataset")
    p.add_argument("dataset", help="tab-separated dataset file")
    _add_ordering_flag(p)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--gamma", help="comma-separated, one per random factor "
                                   "(single value broadcasts; default 1)")
    p.add_argument("--phi", help="comma-separated, one per residual block "
                                 "(single value broadcasts; default 1)")
    p.add_argument("--check-h-form", action="store_true",
                   help="cross-check against the dense likelihood form")
    p.add_argument("--fd-check", action="store_true",
                   help="finite-difference check of the gradient")
    p.add_argument("--out", help="write the report as CSV to this path")
    p.set_defaults(func=cmd_reml)

    p = sub.add_parser("gen", help="generate a synthetic variety-trial dataset")
    p.add_argument("--preset", default="prob1",
                   help=f"one of: {', '.join(datagen.PRESETS)} (default: "
                        "%(default)s); the layout flags below override it")
    # each layout flag's dest is the preset field it overrides; None keeps it
    p.add_argument("--years", type=int)
    p.add_argument("--centers", type=int)
    p.add_argument("--fraction", type=float, dest="centers_per_year_fraction",
                   help="fraction of centers used per year")
    p.add_argument("--controls", type=int, dest="control_varieties")
    p.add_argument("--new-per-year", type=int, dest="new_varieties_per_year")
    p.add_argument("--mean-persistence", type=float)
    p.add_argument("--missing", type=float, dest="missing_fraction")
    p.add_argument("--var", action="append", metavar="TERM=VALUE",
                   help="variance component override (repeatable)")
    p.add_argument("--seed", type=int, default=datagen.TrialConfig.seed)
    p.add_argument("--out", required=True, help="dataset file to write")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="benchmark ladder, CSV output")
    p.add_argument("--problems", help="comma-separated preset names (default: all)")
    p.add_argument("--orderings", default="amd",
                   help="comma-separated ordering flags (default: amd)")
    p.add_argument("--seed", type=int, default=datagen.TrialConfig.seed)
    p.add_argument("--out", help="CSV path (default stdout); also writes "
                                 "<path>.pairs.csv of (nnz_L, time)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="dense-oracle pipeline check "
                                      f"(n <= {DENSE_ORACLE_LIMIT})")
    p.add_argument("matrix", help="Matrix Market file")
    _add_ordering_flag(p)
    p.set_defaults(func=cmd_selinv, verify=True, out=None, report=False)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SeldetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
