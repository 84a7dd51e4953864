"""Command-line entry points, driven through main(argv)."""

import csv
import dataclasses
import io
import os

import numpy as np
import pytest

import seldet as sd
from seldet.cli import main
from helpers import (arrowhead, bordered_spd, etree_from_pattern, fill_pattern,
                     grid_laplacian, random_spd, reference_supernodes, tridiag)


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(202)
    a = random_spd(rng, 30)
    path = tmp_path / "a.mtx"
    with open(path, "w", encoding="utf-8") as fh:
        sd.write_matrix_market(a, fh)
    return str(path), a


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "trial.tsv"
    rc = main(["gen", "--years", "3", "--centers", "5", "--fraction", "0.6",
               "--controls", "3", "--new-per-year", "3",
               "--mean-persistence", "2", "--missing", "0.05",
               "--seed", "11", "--out", str(path)])
    assert rc == 0
    return str(path)


# ----------------------------------------------------------------- analyze


def test_analyze_reports_identity_pass(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "flop identity : PASS" in out
    assert "nnz(L)" in out


def analyze_line(tmp_path, capsys, a, prefix):
    """The text line of ``seldet analyze`` (natural order) that starts
    with ``prefix``."""
    path = tmp_path / "a.mtx"
    with open(path, "w", encoding="utf-8") as fh:
        sd.write_matrix_market(a, fh)
    assert main(["analyze", str(path), "--ordering", "natural"]) == 0
    return [s for s in capsys.readouterr().out.splitlines()
            if s.startswith(prefix)]


def leaves_and_twigs(lpat, bounds):
    """The single-column supernodes without a child, and those whose
    children are all such leaves."""
    parent = etree_from_pattern(lpat).tolist()
    children = {j: [k for k, p in enumerate(parent) if p == j]
                for j in range(len(parent))}
    alone = [s for s, e in zip(bounds[:-1], bounds[1:]) if e - s == 1]
    leaves = [j for j in alone if not children[j]]
    twigs = [j for j in alone if children[j]
             and all(k in leaves for k in children[j])]
    return leaves, twigs


def test_analyze_reports_the_supernodes(tmp_path, capsys):
    # a 4x4 grid under the natural order: columns 11..15, whose counts
    # fall 5, 4, ..., 1, are the one multi-column supernode; a clique
    # bordering a sparse part, last: the clique is one supernode, and
    # leaves of the sparse part reach it
    rng = np.random.default_rng(5)
    for grid, a in ((True, grid_laplacian(4)), (False, bordered_spd(rng, 12, 4))):
        line = analyze_line(tmp_path, capsys, a, "supernodes")
        sym = sd.symbolic_factor(a, sd.natural_order(a.n))
        lpat = fill_pattern(a)
        bounds = reference_supernodes(lpat)
        assert sym.supernodes.tolist() == bounds
        leaves, _ = leaves_and_twigs(lpat, bounds)
        multi = [j for s, e in zip(bounds[:-1], bounds[1:]) if e - s > 1
                 for j in range(s, e)]
        # the work column j takes in inside the loop: 2 per entry i >= j
        # of each column k < j, not a leaf, with L_jk != 0, and a division
        # per entry below its diagonal; the leaves' updates come before
        work = sum(2 * sum(int(lpat[j:, k].sum()) for k in range(j)
                           if lpat[j, k] and k not in leaves)
                   + int(lpat[j + 1:, j].sum()) for j in multi)
        if grid:
            assert bounds[-2:] == [11, 16] and multi == list(range(11, 16))
        else:
            assert any(lpat[multi, k].any() for k in leaves)
        share = 100.0 * work / sd.predict_flops(sym)[0]
        widest = max(e - s for s, e in zip(bounds[:-1], bounds[1:]))
        assert line == [f"supernodes    : {len(bounds) - 1} (widest {widest}, "
                        f"{share:.1f} % of ldlt_flops in multi-column ones)"]
    # the line is text only: the CSV keeps its columns
    path = tmp_path / "a.mtx"
    assert main(["analyze", str(path), "--ordering", "natural", "--csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("name,n,nnz,nnz_per_col,per_mille,ordering,nnz_L,"
                      "ldlt_flops,selinv_flops,identity")
    assert len(out) == 2


def test_analyze_reports_the_leaves(tmp_path, capsys):
    # a star whose hub is last: the 8 spokes are the leaves, each with the
    # hub as its one entry below the diagonal (2 + 3 of selinv's work, and
    # 2 + 1 of ldlt's before the loop); the hub, a twig, has an empty column
    a = arrowhead(9, dense_first=False)
    line = analyze_line(tmp_path, capsys, a, "leaves")
    assert sd.predict_flops(sd.symbolic_factor(a, sd.natural_order(9))) == (24, 40)
    assert line == [f"leaves        : 8 ({100.0 * 8 / 9:.1f} % of columns, "
                    "100.0 % of selinv_flops), 1 twigs, 100.0 % of ldlt_flops "
                    "before the loop"]
    # counted from the elimination tree of the grid: 2q^2 + 3q of each
    # leaf against the selinv forecast, and q (q + 2) of each leaf and q
    # of each twig against the ldlt forecast
    grid = grid_laplacian(4)
    line = analyze_line(tmp_path, capsys, grid, "leaves")
    lpat = fill_pattern(grid)
    leaves, twigs = leaves_and_twigs(lpat, reference_supernodes(lpat))
    q = lpat.sum(axis=0) - 1
    work = sum(2 * q[j] ** 2 + 3 * q[j] for j in leaves)
    before = sum(q[j] * (q[j] + 2) for j in leaves) + sum(q[j] for j in twigs)
    total = int(np.sum(2 * q * q + 3 * q))
    assert line == [f"leaves        : {len(leaves)} "
                    f"({100.0 * len(leaves) / grid.n:.1f} % of columns, "
                    f"{100.0 * work / total:.1f} % of selinv_flops), "
                    f"{len(twigs)} twigs, "
                    f"{100.0 * before / int(np.sum(q * q + 2 * q)):.1f} % of "
                    "ldlt_flops before the loop"]


def test_analyze_identity_can_fail(matrix_file, monkeypatch, capsys):
    # an analysis whose nnz(L) disagrees with its column counts breaks
    # the identity: the two sides are derived independently
    def off_by_one(a, perm):
        sym = sd.symbolic_factor(a, perm)
        return dataclasses.replace(sym, nnz_L=sym.nnz_L + 1)

    monkeypatch.setattr("seldet.reml.symbolic_factor", off_by_one)
    path, _ = matrix_file
    assert main(["analyze", path]) == 1
    assert "flop identity : FAIL" in capsys.readouterr().out


def test_analyze_csv_output(matrix_file, tmp_path, capsys):
    path, a = matrix_file
    out_csv = tmp_path / "report.csv"
    assert main(["analyze", path, "--ordering", "natural",
                 "--out", str(out_csv)]) == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert int(rows[0]["n"]) == a.n
    assert rows[0]["identity"] == "PASS"
    sym = sd.symbolic_factor(a, sd.natural_order(a.n))
    assert int(rows[0]["nnz_L"]) == sym.nnz_L


def test_analyze_ordering_from_file(matrix_file, tmp_path, capsys):
    path, a = matrix_file
    perm_path = tmp_path / "p.txt"
    with open(perm_path, "w", encoding="utf-8") as fh:
        sd.write_order(sd.amd_order(a), fh)
    assert main(["analyze", path, "--ordering", f"file:{perm_path}"]) == 0


def test_analyze_missing_file_fails(capsys):
    assert main(["analyze", "/nonexistent/x.mtx"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("size_line, says", [
    ("3 3 1000000000000", "declared 1000000000000 records, found 1"),
    ("1000000000000 1000000000000 1", "exceeds 2**31"),
])
def test_analyze_oversized_header_is_one_line(tmp_path, capsys, size_line, says):
    # one record under a header whose sizes would exhaust memory if
    # anything were allocated from them
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    f"{size_line}\n1 1 1.0\n", encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and says in captured.err
    assert captured.err.count("\n") == 1


def test_analyze_unknown_ordering_fails(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["analyze", path, "--ordering", "bogus"]) == 1
    assert "unknown ordering" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "{bad}"],
    ["selinv", "{bad}"],
    ["verify", "{bad}"],
    ["reml", "{bad}"],
    ["analyze", "{good}", "--ordering", "file:{bad}"],
])
def test_non_utf8_input_is_one_line(matrix_file, tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\n1 2 3\n")
    argv = [arg.format(bad=bad, good=matrix_file[0]) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "utf-8" in captured.err
    assert str(bad) in captured.err
    assert captured.err.count("\n") == 1


# ------------------------------------------------------------------ selinv


def test_selinv_verify_passes(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["selinv", path, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_selinv_verify_prints_the_checks_of_verify(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["verify", path]) == 0
    checks = capsys.readouterr().out.splitlines()
    assert len(checks) == 4
    assert main(["selinv", path, "--verify"]) == 0
    assert capsys.readouterr().out.splitlines()[-4:] == checks


def test_selinv_writes_inverse_subset(matrix_file, tmp_path, capsys):
    path, a = matrix_file
    out_path = tmp_path / "z.mtx"
    assert main(["selinv", path, "--out", str(out_path)]) == 0
    with open(out_path, encoding="utf-8") as fh:
        z = sd.read_matrix_market(fh.read())
    inv = sd.dense_inverse_oracle(a)
    rows, cols, vals = z.triplets()
    assert np.allclose(vals, inv[rows, cols], atol=1e-10 * np.abs(inv).max())


def test_selinv_verify_rejects_large_input(tmp_path, capsys):
    path = tmp_path / "big.mtx"
    out = tmp_path / "z.mtx"
    with open(path, "w", encoding="utf-8") as fh:
        sd.write_matrix_market(sd.identity_matrix(501), fh)
    assert main(["selinv", str(path), "--verify", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --verify needs n <= 500, got 501\n"
    # refused before any work: no report lines, no output file
    assert captured.out == ""
    assert not out.exists()


def test_selinv_indefinite_input_fails(tmp_path, capsys):
    a = sd.from_coo_arrays(2, np.array([0, 1, 1]), np.array([0, 0, 1]),
                           np.array([1.0, 2.0, 1.0]))
    path = tmp_path / "indef.mtx"
    with open(path, "w", encoding="utf-8") as fh:
        sd.write_matrix_market(a, fh)
    assert main(["selinv", str(path)]) == 1
    assert "non-positive pivot" in capsys.readouterr().err


# -------------------------------------------------------------------- reml


def test_reml_report_with_checks(dataset_file, capsys):
    rc = main(["reml", dataset_file, "--check-h-form", "--fd-check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "loglik" in out
    assert out.count("PASS") >= 2  # H-form agreement + FD agreement
    assert "FAIL" not in out


def test_reml_custom_parameters(dataset_file, capsys):
    rc = main(["reml", dataset_file, "--sigma2", "2.0",
               "--gamma", "0.5", "--phi", "1.5"])
    assert rc == 0
    assert "gamma:variety" in capsys.readouterr().out


def test_reml_csv_out(dataset_file, tmp_path, capsys):
    out_csv = tmp_path / "reml.csv"
    assert main(["reml", dataset_file, "--out", str(out_csv)]) == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = {r["quantity"]: r["value"] for r in csv.DictReader(fh)}
    assert "loglik" in rows
    d = sd.read_dataset(open(dataset_file, encoding="utf-8"))
    v = sd.VarianceParams(1.0, (1.0,) * len(d.factors),
                          (1.0,) * d.n_residual_blocks)
    assert float(rows["loglik"]) == pytest.approx(
        sd.restricted_loglik(d, v), rel=1e-9)


def test_reml_file_ordering(dataset_file, tmp_path, capsys):
    d = sd.read_dataset(open(dataset_file, encoding="utf-8"))
    dim = d.p + sum(f.n_levels for f in d.factors)
    perm_path = tmp_path / "perm.txt"
    with open(perm_path, "w", encoding="utf-8") as fh:
        sd.write_order(sd.natural_order(dim), fh)
    assert main(["reml", dataset_file, "--ordering", f"file:{perm_path}"]) == 0


def test_reml_takes_one_gamma_per_factor(dataset_file, tmp_path, capsys):
    out_csv = tmp_path / "reml.csv"
    gamma = [0.5, 1.0, 2.0, 0.25, 1.5, 3.0]
    assert main(["reml", dataset_file, "--gamma", ",".join(map(str, gamma)),
                 "--out", str(out_csv)]) == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = {r["quantity"]: r["value"] for r in csv.DictReader(fh)}
    d = sd.read_dataset(open(dataset_file, encoding="utf-8"))
    assert len(d.factors) == len(gamma)
    v = sd.VarianceParams(1.0, gamma, (1.0,) * d.n_residual_blocks)
    assert float(rows["loglik"]) == pytest.approx(
        sd.restricted_loglik(d, v), rel=1e-9)


def test_reml_wrong_parameter_count_fails(dataset_file, capsys):
    assert main(["reml", dataset_file, "--gamma", "1,1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, says", [
    (["--gamma", "1,x"], "--gamma expects comma-separated numbers"),
    (["--phi", "abc"], "--phi expects comma-separated numbers"),
    (["--gamma", "nan"], "gamma[0] = nan"),
    (["--sigma2", "inf"], "sigma2 = inf"),
    (["--sigma2", "-1"], "sigma2 = -1.0"),
    (["--ordering", "foo"], "unknown ordering 'foo'"),
    (["--phi", "1,2"], "--phi expects 1 or 1 comma-separated values, got 2"),
])
def test_reml_bad_parameter_is_one_line(dataset_file, capsys, flags, says):
    assert main(["reml", dataset_file, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and says in captured.err
    assert captured.err.count("\n") == 1


def test_reml_non_finite_response_is_one_line(dataset_file, capsys):
    with open(dataset_file, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[2].split("\t")
    fields[0] = "nan"
    lines[2] = "\t".join(fields)
    with open(dataset_file, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["reml", dataset_file]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: column 'response'")
    assert err.count("\n") == 1


def test_reml_fd_check_orders_once(dataset_file, monkeypatch, capsys):
    monkeypatch.setattr(sd.reml, "_held", [])
    calls = []
    real = sd.ordering.amd_order
    monkeypatch.setattr(sd.ordering, "amd_order",
                        lambda a: calls.append(a.n) or real(a))
    assert main(["reml", dataset_file, "--fd-check"]) == 0
    assert "fd check      : worst rel" in capsys.readouterr().out
    assert len(calls) == 1


# --------------------------------------------------------------------- gen


def test_gen_writes_readable_dataset(dataset_file, capsys):
    d = sd.read_dataset(open(dataset_file, encoding="utf-8"))
    assert d.n_obs > 0
    assert tuple(f.name for f in d.factors) == sd.RANDOM_TERMS


def expected_dataset(cfg) -> bytes:
    out = io.StringIO()
    sd.write_dataset(sd.generate(cfg), out)
    return out.getvalue().encode("utf-8")


def test_gen_preset_and_variance_overrides(tmp_path, capsys):
    path = tmp_path / "t.tsv"
    rc = main(["gen", "--preset", "prob1", "--var", "variety=2.0",
               "--var", "year=0.5", "--seed", "3", "--out", str(path)])
    assert rc == 0
    assert "units" in capsys.readouterr().out
    cfg = dataclasses.replace(sd.preset_config("prob1", seed=3),
                              variance_components={"variety": 2.0, "year": 0.5})
    assert path.read_bytes() == expected_dataset(cfg)


def test_gen_layout_flags_override_the_preset(tmp_path, capsys):
    path = tmp_path / "t.tsv"
    assert main(["gen", "--preset", "prob2", "--years", "3", "--centers", "4",
                 "--out", str(path)]) == 0
    summary = capsys.readouterr().out.splitlines()[1].split()
    assert summary[:2] == ["3", "4"]
    cfg = dataclasses.replace(sd.preset_config("prob2"), years=3, centers=4)
    assert path.read_bytes() == expected_dataset(cfg)


def test_gen_unknown_preset_is_one_line(tmp_path, capsys):
    out = tmp_path / "x.tsv"
    assert main(["gen", "--preset", "prob99", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown preset 'prob99'; available: prob1")
    assert err.count("\n") == 1
    assert not out.exists()


def test_gen_rejects_bad_var_spec(tmp_path, capsys):
    rc = main(["gen", "--years", "2", "--var", "nope=1.0",
               "--out", str(tmp_path / "x.tsv")])
    assert rc == 1


@pytest.mark.parametrize("spec, says", [
    ("year=abc", "--var expects term=number, got 'year=abc'"),
    ("year=inf", "variance for 'year' must be positive and finite"),
    ("year", "--var expects term=value, got 'year'"),
])
def test_gen_bad_var_value_is_one_line(tmp_path, capsys, spec, says):
    out = tmp_path / "x.tsv"
    assert main(["gen", "--years", "2", "--var", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and says in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_non_finite_persistence_is_one_line(tmp_path, capsys, value):
    out = tmp_path / "x.tsv"
    assert main(["gen", "--years", "3", "--centers", "4",
                 "--mean-persistence", value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "mean_persistence" in err
    assert err.count("\n") == 1
    assert not out.exists()


# ------------------------------------------------------------------- bench


def test_bench_csv_schema(tmp_path, capsys):
    # amd only: the natural ordering fills these systems so badly that a
    # single rung would dominate the whole suite's runtime
    # padded names are looked up and written stripped
    out_csv = tmp_path / "bench.csv"
    rc = main(["bench", "--problems", " prob1", "--orderings", "amd ",
               "--out", str(out_csv)])
    assert rc == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["problem"] == "prob1" and row["ordering"] == "amd"
    assert int(row["pred_ldlt"]) == int(row["meas_ldlt"])
    assert int(row["pred_selinv"]) == int(row["meas_selinv"])
    assert os.path.exists(str(out_csv) + ".pairs.csv")


def test_bench_unknown_problem_fails(capsys):
    assert main(["bench", "--problems", " prob99"]) == 1
    assert "problem 'prob99' failed" in capsys.readouterr().err


# ------------------------------------------------------------------ verify


def test_verify_small_matrix_passes(matrix_file, capsys):
    path, _ = matrix_file
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_verify_empty_matrix_passes(tmp_path, capsys):
    path = tmp_path / "empty.mtx"
    with open(path, "w", encoding="utf-8") as fh:
        sd.write_matrix_market(sd.identity_matrix(0), fh)
    assert main(["selinv", str(path), "--verify"]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_rejects_large_input(tmp_path, capsys):
    a = sd.identity_matrix(501)
    path = tmp_path / "big.mtx"
    with open(path, "w", encoding="utf-8") as fh:
        sd.write_matrix_market(a, fh)
    assert main(["verify", str(path)]) == 1


def test_verify_chain(tmp_path, capsys):
    a = tridiag([2.0, 2.0, 2.0], [-1.0, -1.0])
    path = tmp_path / "chain.mtx"
    with open(path, "w", encoding="utf-8") as fh:
        sd.write_matrix_market(a, fh)
    assert main(["verify", str(path), "--ordering", "natural"]) == 0
