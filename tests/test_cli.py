import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from orthores import cli, core, orthocomp, regression, validation
from orthores.cli import main, read_csv_matrix


def write_csv(path, rows, header=None):
    lines = []
    if header:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestQr:
    def test_ones_column(self, tmp_path, capsys):
        path = write_csv(tmp_path / "x.csv", [[1.0]] * 4)
        code, out = run(capsys, ["qr", path, "--policy", "standard"])
        assert code == 0
        assert out["T"] == [[-2.0]]
        assert out["rank_count"] == 1
        assert out["manifest"]["subcommand"] == "qr"

    def test_malformed_cell(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nabc\n")
        assert main(["qr", str(path)]) == 2

    def test_rank_deficient(self, tmp_path, capsys):
        path = write_csv(tmp_path / "dup.csv", [[1.0, 1.0]] * 5)
        assert main(["qr", str(path)]) == 3

    @pytest.mark.parametrize("signs", [None, "1,x", "1,0", "1", ""])
    def test_bad_signs(self, tmp_path, capsys, signs):
        path = write_csv(tmp_path / "x.csv", [[1.0, 0.5], [1.0, -1.0], [1.0, 2.0]])
        argv = ["qr", path, "--policy", "custom"] + ([] if signs is None else ["--signs", signs])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "signs" in captured.err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1e999"])
    def test_non_finite_cell(self, tmp_path, capsys, cell):
        path = write_csv(tmp_path / "nf.csv", [[1.0], [cell], [3.0]])
        assert main(["qr", path]) == 2
        assert main(["indep", path, "--mode", "student"]) == 2
        assert capsys.readouterr().out == ""

    def test_non_finite_cell_is_located(self, tmp_path, capsys):
        # the reader tests the whole matrix at once, then finds the first bad cell
        path = write_csv(tmp_path / "nf.csv", [[1.0, 2.0], [3.0, "inf"], ["nan", 4.0]],
                         header=["x", "y"])
        assert main(["qr", path]) == 2
        err = capsys.readouterr().err
        assert err.endswith("nf.csv data row 2, column 2: non-finite value inf\n"), err

    def test_header_detected(self, tmp_path, capsys):
        path = write_csv(tmp_path / "h.csv", [[1.0]] * 4, header=["x1"])
        code, out = run(capsys, ["qr", path])
        assert code == 0 and out["T"] == [[-2.0]]

    def test_badly_scaled_design_keeps_the_rank_formula(self, tmp_path, capsys):
        # X = [1, 1e5 z1, 1e-5 z2]: T - X^(p) has columns 10 orders apart
        for seed in range(40):
            z = np.random.default_rng(seed).standard_normal((30, 2))
            X = np.column_stack([np.ones(30), 1e5 * z[:, 0], 1e-5 * z[:, 1]])
            path = write_csv(tmp_path / "s.csv", [[repr(float(c)) for c in row] for row in X])
            code, out = run(capsys, ["qr", path])
            assert code == 0 and out["rank_count"] == 3, seed

    def test_entries_near_1e200(self, tmp_path, capsys):
        X = [[1.0, 1e200], [1.0, -2e200], [1.0, 4e200], [1.0, 0.0]]
        code, out = run(capsys, ["qr", write_csv(tmp_path / "x.csv", X)])
        assert code == 0 and out["rank_count"] == 2

    @pytest.mark.parametrize("policy", [["to-positive"], ["custom", "--signs", "1,-1"]])
    def test_entries_near_1e200_with_positive_pivot(self, tmp_path, capsys, policy):
        X = [[1.0, 1e200], [1.0, -2e200], [1.0, 4e200], [1.0, 0.0]]
        code, out = run(capsys, ["qr", write_csv(tmp_path / "x.csv", X), "--policy", *policy])
        assert code == 0 and out["rank_count"] == 2
        assert out["T"][1][1] == pytest.approx(4.330127018922193e200, rel=1e-14)

    def test_rank_formula_violation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(orthocomp, "_svd_rank", lambda M: 0)
        path = write_csv(tmp_path / "x.csv", [[1.0]] * 4)
        assert main(["qr", path]) == 4
        assert capsys.readouterr().out == ""

    def test_non_finite_result(self, tmp_path, capsys):
        # ||v_1|| = sqrt(2) |T_11| overflows to inf, which JSON cannot carry
        path = write_csv(tmp_path / "big.csv", [[0.0], [1.5e308]])
        dest = tmp_path / "out.json"
        with np.errstate(over="ignore"):
            assert main(["qr", path]) == 4
            assert main(["qr", path, "--out", str(dest)]) == 4
        assert capsys.readouterr().out == ""
        assert not dest.exists()

    @pytest.mark.parametrize("policy", ["standard", "to-positive"])
    def test_finite_column_whose_norm_overflows(self, tmp_path, capsys, policy):
        # every cell is a float, so the error names the column, not infs or NaNs
        path = write_csv(tmp_path / "x.csv", [[1.7e308], [-1.7e308], [1e308], [0.0]])
        assert main(["qr", path, "--policy", policy]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "column 1 is finite, but its norm exceeds the float range" in captured.err

    def test_to_positive_reflector_norms(self, tmp_path, capsys):
        # the matrix and the squared norms pinned for the reflector loop
        X = [[2.0, -1.0, 0.5], [1.0, 3.0, -2.0], [-1.0, 0.25, 4.0], [3.0, 1.0, 1.0]]
        code, out = run(capsys, ["qr", write_csv(tmp_path / "x.csv", X), "--policy", "to-positive"])
        assert code == 0
        np.testing.assert_allclose(
            out["reflector_norms"],
            np.sqrt([14.508066615170332, 7.8457576859634495, 10.209341422112002]),
            rtol=1e-15, atol=0.0)


class TestReadCsv:
    @pytest.mark.parametrize("text, expected", [
        ("x,y\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),        # CRLF
        ('"x","y"\n"1.5","2"\n3,"4"\n', [[1.5, 2.0], [3.0, 4.0]]),  # quoted cells
        ("\nx\n1\n2\n", [[1.0], [2.0]]),                            # blank line, header
        ("1,2\n\n3,4\n\n\n", [[1.0, 2.0], [3.0, 4.0]]),             # blank lines
        ("1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),                     # no final newline
        (" 1.5 , 2 \n3 ,4\n", [[1.5, 2.0], [3.0, 4.0]]),            # spaces around cells
        ('"x",y\n1,2\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),             # a quote in the header only
        ('x,y\n1,"2"\n3,4\n', [[1.0, 2.0], [3.0, 4.0]]),             # a quote in a data row only
        ("x,y\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),               # no quote at all
        ("\ufeff1,2\n3,4\n5,7\n", [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]),  # UTF-8 BOM, data
        ("\ufeffx,y\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),               # UTF-8 BOM, header
    ])
    def test_accepted(self, tmp_path, text, expected):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        got = read_csv_matrix(str(path))
        assert got.shape == np.shape(expected)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("text", [
        "",                  # empty file
        "x,y\n",             # header only
        "1,2\n3\n",          # ragged rows
        "1\n#4\n",           # not a comment
        "1\n0x10\n",         # no hexadecimal
        "1\ninf\n",          # non-finite
        "1\n1_000\n",        # no digit separators (Python's float takes them)
        'x,y\n1,"a"\n',      # a quoted cell that is not a number
        '"x",y\n1,a\n',      # a quoted header, then a cell that is not a number
    ])
    def test_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert main(["residuals", str(path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "a directory"])
    def test_unreadable(self, tmp_path, capsys, name):
        assert main(["residuals", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read" in captured.err


class TestResiduals:
    def test_hand_example(self, tmp_path, capsys):
        rows = [[1, 0, 0], [1, 1, 0], [1, 2, 3]]
        path = write_csv(tmp_path / "d.csv", rows)
        code, out = run(capsys, ["residuals", path])
        assert code == 0
        np.testing.assert_allclose(out["beta_hat"], [-0.5, 1.5], atol=1e-12)
        assert abs(out["rss"] - 1.5) < 1e-12

    def test_y_only_mean(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [3.0]])
        code, out = run(capsys, ["residuals", path])
        assert code == 0
        np.testing.assert_allclose(out["beta_hat"], [2.0])

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        path.write_text("")
        assert main(["residuals", str(path)]) == 2

    def test_non_finite_result(self, tmp_path, capsys):
        # R'R (1.8e401) is not a float: the fit's float-range error, an input error
        path = write_csv(tmp_path / "big.csv", [[1e200], [-2e200], [4e200]])
        dest = tmp_path / "out.json"
        assert main(["residuals", path]) == 2
        assert main(["residuals", path, "--out", str(dest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the float range (rss)" in captured.err
        assert not dest.exists()


class TestIndep:
    def test_student_minus(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [3.0], [4.0]])
        code, out = run(capsys, ["indep", path, "--mode", "student", "--variant", "minus"])
        assert code == 0
        np.testing.assert_allclose(out["W"], [0.0, 1.0, 2.0], atol=1e-14)
        assert abs(out["wss"] - 5.0) < 1e-12
        assert abs(out["rss"] - 5.0) < 1e-12

    def test_student_plus(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [3.0], [4.0]])
        code, out = run(capsys, ["indep", path, "--mode", "student", "--variant", "plus"])
        assert code == 0
        np.testing.assert_allclose(out["W"], [-2.0, -1.0, 0.0], atol=1e-14)

    def test_general_with_one_column(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [4.0], [3.0]])
        assert main(["indep", path, "--mode", "general"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 2 columns" in captured.err

    def test_mode_mismatch(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [3.0]])
        assert main(["indep", str(path), "--mode", "univariate"]) == 2

    @pytest.mark.parametrize("value,n", [(0.1, 7), (3.0, 5), (0.0, 4)])
    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_constant_response(self, tmp_path, capsys, value, n, variant):
        # rss is rounding noise (5.4e-33 for 0.1 in 7 rows), so the identity
        # is held to the floor n eps ||Y||^2, not to rss itself
        path = write_csv(tmp_path / "y.csv", [[value]] * n)
        code, out = run(capsys, ["indep", path, "--mode", "student", "--variant", variant])
        assert code == 0
        floor = n * np.finfo(float).eps * (n * value ** 2)  # n eps ||Y||^2
        assert abs(out["wss"] - out["rss"]) <= 1e-10 * floor

    def test_constant_response_whose_floor_overflows(self, tmp_path, capsys):
        # n eps ||Y||^2 = 2.2e308 is not a float, and rss (about 1e291) is rounding noise
        # below it: the identity is held to the floor in units of ||Y||^2, with no warning
        path = write_csv(tmp_path / "y.csv", [[1e160]] * 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, ["indep", path, "--mode", "student"])
        assert code == 0 and len(out["W"]) == 99

    @pytest.mark.parametrize("mode", ["univariate", "general"])
    def test_response_in_col_x(self, tmp_path, capsys, mode):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((9, 1 if mode == "univariate" else 3))
        y = 1.1 + X @ (0.3 - np.arange(X.shape[1]))
        if mode == "general":  # no intercept is added in general mode
            X = np.column_stack([np.ones(9), X])
        path = write_csv(tmp_path / "xy.csv", np.column_stack([X, y]).tolist())
        code, out = run(capsys, ["indep", path, "--mode", mode])
        assert code == 0
        assert out["rss"] < 1e-25

    @pytest.mark.parametrize("factor,code", [(1.0, 0), (1e10, 4)])
    def test_squared_norm_of_y_overflows(self, tmp_path, capsys, monkeypatch, factor, code):
        # ||Y||^2 is about 3e310 and overflows while R'R (6.7e281) does not; the
        # floor must stay finite, or the check would pass any finite W'W
        student_w = cli.student_w
        monkeypatch.setattr(cli, "student_w", lambda y, variant: dataclasses.replace(
            student_w(y, variant), W=factor * student_w(y, variant).W))
        path = write_csv(tmp_path / "big.csv", [[1e155], [1e155], [1e155 + 1e140]])
        with np.errstate(over="ignore"):
            assert main(["indep", path, "--mode", "student"]) == code

    def test_big_column_raises_no_warning(self, tmp_path):
        # ||Y|| of about 1.7e155: a norm taken as sqrt(Y @ Y) overflows, warns,
        # and under -W error::RuntimeWarning ends in a traceback (exit 1)
        path = write_csv(tmp_path / "big.csv", [[1e155], [1e155], [1.000000000000001e155]])
        src = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, src)))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "orthores.cli",
                               "indep", path, "--mode", "student"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        out = json.loads(proc.stdout)
        assert out["rss"] > 0.0 and len(out["W"]) == 2

    def test_overflowing_sum_of_squares(self, tmp_path, capsys):
        # R'R is not a float: the fit's float-range error, before any identity check
        path = write_csv(tmp_path / "big.csv", [[1e200], [-2e200], [4e200]])
        assert main(["indep", path, "--mode", "student"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mode, rows", [
        ("student", [[1.7e308], [1.7e308], [0.0], [0.0]]),
        ("univariate", [[1.7e308, 1.0], [-1.7e308, 2.0], [0.0, 0.5], [0.0, 1.5]])])
    def test_finite_data_past_the_float_range(self, tmp_path, capsys, mode, rows):
        # ||Y|| (student) or ||raw - mean|| (univariate) is 2.4e308: an input error that says so
        path = write_csv(tmp_path / "big.csv", rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["indep", path, "--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the float range" in captured.err

    @pytest.mark.parametrize("command", [["residuals"], ["indep", "--mode", "student"]])
    def test_near_the_largest_float_exit_0_or_float_range_error(self, tmp_path, capsys, command):
        # every pattern of 1.7e308, -1e308, +-1e160 and 0 in 3 rows: JSON, or exit 2 with the
        # float-range error, and never a warning, from the fit to the identity check
        values = ["1.7e308", "-1e308", "1e160", "-1e160", "0"]
        for y in itertools.product(values, repeat=3):
            path = write_csv(tmp_path / "y.csv", [[v] for v in y])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([command[0], path, *command[1:]])
            err = capsys.readouterr().err
            assert err == "" if code == 0 else code == 2 and "exceeds the float range" in err, y

    def test_univariate(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [[t, y] for t, y in zip(range(8), rng.standard_normal(8).round(6))]
        path = write_csv(tmp_path / "ty.csv", rows)
        code, out = run(capsys, ["indep", path, "--mode", "univariate", "--variant", "b"])
        assert code == 0
        assert abs(out["wss"] - out["rss"]) <= 1e-10 * out["rss"]

    def test_univariate_tiny_predictor(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [[repr(float(1e-14 * t)), y] for t, y in rng.standard_normal((8, 2)).round(6)]
        path = write_csv(tmp_path / "ty.csv", rows)
        code, out = run(capsys, ["indep", path, "--mode", "univariate"])
        assert code == 0
        assert abs(out["wss"] - out["rss"]) <= 1e-10 * out["rss"]

    def test_general_with_selection(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        data = np.column_stack([np.ones(10), rng.standard_normal((10, 2))])
        path = write_csv(tmp_path / "g.csv", data.round(8).tolist())
        code, out = run(capsys, ["indep", path, "--mode", "general", "--rows", "1,4"])
        assert code == 0
        assert len(out["W"]) == 8
        assert abs(out["wss"] - out["rss"]) <= 1e-10 * out["rss"]

    @pytest.mark.parametrize("rows,calls", [(None, 1), ("0,1,2", 1), ("1,4,7", 1)])
    def test_general_factors_once_without_permutation(self, tmp_path, capsys, monkeypatch,
                                                      rows, calls):
        # every factorization on the standard-sign path is one LAPACK dgeqrf or dgeqrt call
        counted = []

        def counting(lapack):
            def wrapper(*args, **kwargs):
                counted.append(1)
                return lapack(*args, **kwargs)
            return wrapper

        for name in ("dgeqrf", "dgeqrt"):
            monkeypatch.setattr(core, name, counting(getattr(core, name)))
        rng = np.random.default_rng(2)
        data = np.column_stack([np.ones(12), rng.standard_normal((12, 3))])
        path = write_csv(tmp_path / "g.csv", data.round(8).tolist())
        argv = ["indep", path, "--mode", "general"] + (["--rows", rows] if rows else [])
        code, out = run(capsys, argv)
        assert code == 0
        assert len(counted) == calls
        assert abs(out["wss"] - out["rss"]) <= 1e-10 * out["rss"]

    @pytest.mark.parametrize("rows,message", [
        ("1,4", "selection has 2 rows, need p=3"),
        ("1,4,12", "row index 12 out of range"),
        ("4,1,7", "strictly increasing"),
    ])
    def test_bad_selection(self, tmp_path, capsys, rows, message):
        data = np.column_stack([np.ones(12), np.random.default_rng(2).standard_normal((12, 3))])
        path = write_csv(tmp_path / "g.csv", data.round(8).tolist())
        assert main(["indep", path, "--mode", "general", "--rows", rows]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_more_columns_than_rows(self, tmp_path, capsys):
        # p = 3 predictors on 2 rows: the selection check says so before the fit's "p < n"
        path = write_csv(tmp_path / "g.csv", [[1.0, 2.0, 3.0, 4.0], [1.0, 0.5, -1.0, 2.0]])
        assert main(["indep", path, "--mode", "general"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "need p <= n, got 2x3" in captured.err

    def test_scattered_selection_matches_the_library(self, tmp_path, capsys):
        # the library route: fit X as given, factor X with the selected rows first
        data = np.random.default_rng(4).standard_normal((40, 5))
        path = write_csv(tmp_path / "g.csv", [[repr(float(c)) for c in row] for row in data])
        rows = (2, 17, 30, 39)
        code, out = run(capsys, ["indep", path, "--mode", "general",
                                 "--rows", ",".join(map(str, rows))])
        assert code == 0
        X, Y = data[:, :-1], data[:, -1]
        sel = orthocomp.RowSelection(rows)
        ref = regression.independent_residuals(
            regression.fit_least_squares(X, Y),
            orthocomp.s_from_qr(orthocomp.qr_for_selection(X, sel), X, sel), sel)
        for key in ("W", "v", "beta_star"):
            want = getattr(ref, key)
            assert np.linalg.norm(out[key] - want) <= 1e-13 * np.linalg.norm(want), key

    @pytest.mark.parametrize("rows", [None, "0,1,2,3", "2,17,30,39"])
    def test_general_is_the_library_call(self, tmp_path, capsys, rows):
        # general mode is fit_independent_residuals on the file's columns, float for float
        data = np.random.default_rng(5).standard_normal((40, 5))
        path = write_csv(tmp_path / "g.csv", [[repr(float(c)) for c in row] for row in data])
        argv = ["indep", path, "--mode", "general"] + (["--rows", rows] if rows else [])
        code, out = run(capsys, argv)
        assert code == 0
        data = read_csv_matrix(path)
        fit, res = regression.fit_independent_residuals(data[:, :-1], data[:, -1],
                                                        cli.parse_selection(rows))
        assert (out["W"], out["v"], out["beta_star"], out["rss"]) == (
            res.W.tolist(), res.v.tolist(), res.beta_star.tolist(), fit.rss)

    def test_badly_scaled_design_exits_cleanly(self, tmp_path, capsys):
        # X = [1, 1e5 z1, 1e-5 z2] has condition number about 1e10
        z = np.random.default_rng(0).standard_normal((30, 3))
        data = np.column_stack([np.ones(30), 1e5 * z[:, 0], 1e-5 * z[:, 1], z[:, 2]])
        path = write_csv(tmp_path / "s.csv", [[repr(float(c)) for c in row] for row in data])
        assert main(["indep", path, "--mode", "general"]) in (0, 4)
        assert "Traceback" not in capsys.readouterr().err

    def test_badly_scaled_design_matches_unscaled(self, tmp_path, capsys):
        # W depends on col(X) only, so rescaling columns of X leaves it alone
        for seed in range(40):
            z = np.random.default_rng(seed).standard_normal((30, 3))
            W = []
            for d in ([1.0, 1.0, 1.0, 1.0], [1.0, 1e5, 1e-5, 1.0]):  # y last, unscaled
                data = np.column_stack([np.ones(30), z]) * d
                path = write_csv(tmp_path / "s.csv",
                                 [[repr(float(c)) for c in row] for row in data])
                code, out = run(capsys, ["indep", path, "--mode", "general"])
                assert code == 0, seed
                W.append(np.array(out["W"]))
            assert np.linalg.norm(W[1] - W[0]) <= 1e-12 * np.linalg.norm(W[0]), seed

    def test_singular_s_exits_4(self, tmp_path, capsys, monkeypatch):
        # dgesv's true S, but info = 1: a zero pivot in the LU of T - X^(p)
        true_dgesv = orthocomp.dgesv
        monkeypatch.setattr(orthocomp, "dgesv", lambda a, b: (*true_dgesv(a, b)[:3], 1))
        rng = np.random.default_rng(3)
        data = np.column_stack([np.ones(10), rng.standard_normal((10, 2))])
        path = write_csv(tmp_path / "g.csv", data.round(8).tolist())
        assert main(["indep", path, "--mode", "general"]) == 4
        assert capsys.readouterr().out == ""


class TestSimulate:
    def test_smoke(self, capsys):
        code, out = run(capsys, ["simulate", "--n", "6", "--p", "1",
                                 "--reps", "5", "--seed", "3"])
        assert code == 0
        assert out["max_ss_identity_error"] < 1e-10
        assert out["replicates"] == 5

    def test_p_not_less_than_n(self, capsys):
        assert main(["simulate", "--n", "10", "--p", "10", "--reps", "1"]) == 2

    @pytest.mark.parametrize("option", [["--sigma", "nan"], ["--sigma", "inf"]])
    def test_non_finite_parameter(self, capsys, option):
        code = main(["simulate", "--n", "10", "--p", "2", "--reps", "5", "--seed", "1"] + option)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "must be" in captured.err

    def test_covariance_overflow(self, capsys):
        # sigma^2 = 1.69e308: the covariances do not fit in a float, so exit 4
        argv = ["simulate", "--n", "10", "--p", "2", "--seed", "1", "--sigma"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["1.3e154", "--reps", "5"]) == 4
            captured = capsys.readouterr()
            assert captured.out == "" and "overflow at sigma" in captured.err
            assert main(argv + ["1e154", "--reps", "50"]) == 0

    def test_no_beta_option(self, capsys):
        # beta does not reach the residuals, so simulate takes no coefficients
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "10", "--p", "2", "--reps", "5", "--beta", "1,2"])
        assert exc.value.code == 2
        assert "--beta" in capsys.readouterr().err

    def test_beyond_memory(self, capsys, monkeypatch):
        def monte_carlo(cfg):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(cli, "monte_carlo", monte_carlo)
        code = main(["simulate", "--n", "200000", "--p", "1", "--reps", "10"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "memory" in captured.err and "Traceback" not in captured.err

    def test_unknown_construction(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "10", "--p", "2", "--construction", "bogus"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize("env", ["1.5", "x", ""])
    def test_env_seed_not_an_integer(self, capsys, monkeypatch, env):
        monkeypatch.setenv("ORTHORES_SEED", env)
        assert main(["simulate", "--n", "6", "--p", "1", "--reps", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "ORTHORES_SEED" in captured.err

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHORES_SEED", "99")
        code1, out1 = run(capsys, ["simulate", "--n", "6", "--p", "1", "--reps", "5"])
        code2, out2 = run(capsys, ["simulate", "--n", "6", "--p", "1",
                                   "--reps", "5", "--seed", "99"])
        assert out1["mean_W"] == out2["mean_W"]

    def test_deterministic(self, capsys):
        argv = ["simulate", "--n", "7", "--p", "2", "--reps", "50", "--seed", "42"]
        _, a = run(capsys, argv)
        _, b = run(capsys, argv)
        assert a["cov_W"] == b["cov_W"]


    def test_manifest_records_the_seed_used(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHORES_SEED", "99")
        argv = ["simulate", "--n", "6", "--p", "1", "--reps", "5"]
        _, out = run(capsys, argv)
        assert out["manifest"]["seed"] == 99
        _, again = run(capsys, argv + ["--seed", str(out["manifest"]["seed"])])
        assert again["mean_W"] == out["mean_W"]
        monkeypatch.delenv("ORTHORES_SEED")
        assert run(capsys, argv)[1]["manifest"]["seed"] == 0
        _, checked = run(capsys, ["check", "--n-grid", "5", "--trials", "2"])
        assert checked["manifest"]["seed"] == 0


class TestOptions:
    """Every option a command accepts is read by it."""

    @pytest.mark.parametrize("argv", [
        ["indep", "{y}", "--mode", "student", "--rows", "3"],
        ["indep", "{xy}", "--mode", "general", "--variant", "a"],
        ["qr", "{xy}", "--policy", "standard", "--signs", "1,1"],
    ])
    def test_option_the_mode_ignores(self, tmp_path, capsys, argv):
        files = {"{y}": write_csv(tmp_path / "y.csv", [[1.0], [2.0], [4.0], [3.0]]),
                 "{xy}": write_csv(tmp_path / "xy.csv",
                                   [[1.0, 0.5, 2.0], [1.0, -1.0, 0.0], [1.0, 2.0, 1.0],
                                    [1.0, 0.0, 3.0]])}
        assert main([files.get(a, a) for a in argv]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["qr", "x.csv"],
        ["residuals", "x.csv"],
        ["simulate", "--n", "6", "--p", "1", "--reps", "5"],
        ["bench", "--n-grid", "30,60", "--p", "2", "--repeats", "1"],
    ])
    def test_tol_rejected_where_unread(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-300"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_tol_read_by_indep_and_check(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [4.0], [3.0]])
        assert main(["indep", path, "--mode", "student", "--tol", "0"]) == 4
        assert capsys.readouterr().out == ""
        code, out = run(capsys, ["check", "--n-grid", "5", "--trials", "2", "--tol", "0"])
        assert code == 5
        assert "oracle_max_error" in out["failures"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
    @pytest.mark.parametrize("argv", [
        ["indep", "y.csv", "--mode", "student"],
        ["check", "--n-grid", "5", "--trials", "2"],
    ])
    def test_tol_finite_and_non_negative(self, capsys, argv, tol):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", tol])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestCheck:
    def test_default_passes(self, capsys):
        code, out = run(capsys, ["check", "--n-grid", "5,20", "--trials", "20",
                                 "--seed", "0"])
        assert code == 0
        assert out["oracle_max_error"] < 1e-10
        assert out["theorem7_pass"] and out["idempotency_pass"]
        assert out["failures"] == []

    @pytest.mark.parametrize("grid", ["1", "5,1", "0"])
    def test_grid_below_two(self, capsys, grid):
        assert main(["check", "--n-grid", grid, "--trials", "1"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one(self, capsys, trials):
        assert main(["check", "--n-grid", "5", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--trials" in captured.err

    @pytest.mark.parametrize("grid", ["a", "5,,20", "", "5.5"])
    def test_grid_not_integers(self, capsys, grid):
        assert main(["check", "--n-grid", grid, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--n-grid" in captured.err

    @pytest.mark.parametrize("name,fault,failure", [
        ("verify_theorem6_roots", lambda n: 1 / 0, "theorem6_roots"),  # an ArithmeticError
        ("idempotent_check", lambda B: True, "idempotency_pass"),  # 2I passes too
        ("idempotent_check", lambda B: False, "idempotency_pass"),  # the projector fails
    ])
    def test_injected_faults(self, capsys, monkeypatch, name, fault, failure):
        monkeypatch.setattr(validation, name, fault)
        code, out = run(capsys, ["check", "--n-grid", "5", "--trials", "5", "--seed", "0"])
        assert code == 5
        assert out["failures"] == [failure]

    def test_injected_fault(self, capsys, monkeypatch):
        # every S passes the condition, so the perturbed S does too
        monkeypatch.setattr(validation, "verify_theorem7_condition", lambda S, X: True)
        code, out = run(capsys, ["check", "--n-grid", "5", "--trials", "5", "--seed", "0"])
        assert code == 5
        assert "theorem7_pass" in out["failures"]


class TestBench:
    def test_smoke(self, capsys):
        code, out = run(capsys, ["bench", "--n-grid", "30,60", "--p", "2",
                                 "--repeats", "1"])
        assert code == 0
        assert len(out["timings"]) == 6

    def test_disagreement(self, capsys, monkeypatch):
        monkeypatch.setattr(validation, "orthocomplement_apply",
                            lambda sp, X, x: np.zeros(X.shape[0] - X.shape[1]))
        assert main(["bench", "--n-grid", "30,60", "--p", "2", "--repeats", "1"]) == 4

    def test_grid_not_integers(self, capsys):
        # the same parser as check's: the message names the option
        assert main(["bench", "--n-grid", "30,x", "--p", "2", "--repeats", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--n-grid" in captured.err


class TestOutput:
    def test_round_trip(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[0.1], [0.7], [0.33]])
        code, first = run(capsys, ["indep", path, "--mode", "student"])
        assert code == 0
        # serialize and re-read: numeric fields identical bit for bit
        second = json.loads(json.dumps(first))
        assert second == first

    def test_out_file(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0]])
        dest = tmp_path / "out.json"
        code = main(["residuals", str(path), "--out", str(dest)])
        assert code == 0
        data = json.loads(dest.read_text())
        np.testing.assert_allclose(data["beta_hat"], [1.5])
        assert data["manifest"]["output"] == str(dest)

    def test_closed_stdout(self, tmp_path):
        # a reader that quits early (`orthores residuals big.csv | head -c 10`)
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [4.0]])
        src = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, src)))
        proc = subprocess.Popen([sys.executable, "-m", "orthores.cli", "residuals", path],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # no reader is left, so the first write fails with EPIPE
        err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert "cannot write stdout" in err and "Traceback" not in err

    def test_unwritable_out(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "out.json"
        code = main(["check", "--n-grid", "5", "--trials", "1", "--out", str(dest)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "cannot write" in captured.err and "Traceback" not in captured.err

    # the README's commands, on small inputs
    README_EXAMPLES = [
        ["qr", "{x}", "--policy", "standard"],
        ["residuals", "{xy}"],
        ["indep", "{y}", "--mode", "student", "--variant", "minus"],
        ["indep", "{ty}", "--mode", "univariate", "--variant", "b"],
        ["indep", "{xy}", "--mode", "general", "--rows", "0,3,7"],
        ["simulate", "--n", "10", "--p", "2", "--sigma", "1", "--reps", "100", "--seed", "7"],
        ["check", "--n-grid", "5,20", "--trials", "3", "--seed", "0"],
        ["bench", "--n-grid", "30,60", "--p", "2", "--repeats", "1"],
    ]

    @pytest.mark.parametrize("argv", README_EXAMPLES, ids=lambda argv: " ".join(argv[:2]))
    def test_layout_keeps_the_values(self, tmp_path, capsys, monkeypatch, argv):
        rng = np.random.default_rng(5)
        data = np.column_stack([np.ones(10), rng.standard_normal((10, 3))])
        files = {"{x}": write_csv(tmp_path / "x.csv", data[:, :3].tolist()),
                 "{xy}": write_csv(tmp_path / "xy.csv", data.tolist(),
                                   header=["x1", "x2", "x3", "y"]),
                 "{y}": write_csv(tmp_path / "y.csv", data[:, 3:].tolist()),
                 "{ty}": write_csv(tmp_path / "ty.csv", data[:, 2:].tolist())}
        emitted, emit = [], cli.emit
        monkeypatch.setattr(cli, "emit", lambda args, payload:
                            emitted.append((args, payload)) or emit(args, payload))
        assert main([files.get(a, a) for a in argv]) == 0
        text = capsys.readouterr().out
        # the same payload as one json.dumps with indent=2, the encoding before
        # compact values: equal values, keys in the same order at every level
        (args, payload), = emitted
        before = json.loads(json.dumps({"manifest": cli.manifest(args), **payload},
                                       indent=2, allow_nan=False))
        assert json.dumps(json.loads(text)) == json.dumps(before)
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(before) + 2
        for key, line in zip(before, lines[1:-1]):
            assert line.startswith(f"  {json.dumps(key)}: ")

    def test_parser_state_not_shared_between_calls(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("ORTHORES_SEED", raising=False)
        assert cli.build_parser() is cli.build_parser()
        data = np.random.default_rng(1).standard_normal((8, 3))
        path = write_csv(tmp_path / "g.csv", data.tolist())
        dest = tmp_path / "out.json"
        simulate = ["simulate", "--n", "6", "--p", "1", "--reps", "5"]
        general = ["indep", path, "--mode", "general"]
        # each second call leaves out the options its first call gave
        for first, second in ((general + ["--rows", "2,5"], general),
                              (simulate + ["--seed", "3"], simulate)):
            assert main(first + ["--out", str(dest)]) == 0
            code, out = run(capsys, second)
            assert code == 0
            manifest = out["manifest"]
            assert manifest["output"] is None and manifest["selection"] is None
            assert manifest["seed"] == (0 if second is simulate else None)


# the edge cases a CSV file can hold
ODD_CELLS = ["", "nan", "inf", "-inf", "1e200", "-1e200", "1e999", "abc",
             '"2.5"', '"x"', '"', " 7 "]
# each command with the column counts it takes
FUZZ_COMMANDS = [
    (["qr"], [1, 2, 3]), (["qr", "--policy", "to-positive"], [1, 2, 3]),
    (["qr", "--policy", "custom", "--signs", "1,1"], [2]), (["residuals"], [1, 2, 3, 4]),
    (["indep", "--mode", "student"], [1]),
    (["indep", "--mode", "student", "--variant", "plus"], [1]),
    (["indep", "--mode", "univariate"], [2]),
    (["indep", "--mode", "univariate", "--variant", "a"], [2]),
    (["indep", "--mode", "general"], [2, 3, 4]),
    (["indep", "--mode", "general", "--tol", "1e-6"], [2, 3, 4]),
]


@st.composite
def fuzz_runs(draw):
    """A command and a CSV file, mostly well-formed: the file has the wrong
    column count, ragged rows or odd cells one time in eight each."""
    command, widths = draw(st.sampled_from(FUZZ_COMMANDS))
    rare = lambda: draw(st.integers(0, 7)) == 0
    ncols = draw(st.integers(1, 4)) if rare() else draw(st.sampled_from(widths))
    ragged, odd = rare(), rare()
    # repeated small integers and constant columns are rank deficient; cells
    # near 1e200 overflow the sums of squares
    numbers = draw(st.sampled_from([st.floats(-1e3, 1e3).map(repr),
                                    st.sampled_from(["0", "1", "-1", "2"]), st.just("3"),
                                    st.sampled_from(["1e200", "-2e200", "4e200", "1e-200"])]))
    cells = st.one_of(numbers, st.sampled_from(ODD_CELLS)) if odd else numbers
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.sampled_from(["x", '"y"', "1", "z w"]))
                              for _ in range(ncols)))
    for _ in range(draw(st.integers(0, 12))):
        if rare():
            lines.append("")
        width = draw(st.integers(1, 5)) if ragged else ncols
        lines.append(",".join(draw(cells) for _ in range(width)))
    if "general" in command and draw(st.booleans()):
        rows = draw(st.lists(st.integers(-1, 12), min_size=1, max_size=4)
                    | st.lists(st.integers(0, 10), min_size=1, max_size=4, unique=True).map(sorted))
        command = command + ["--rows", ",".join(map(str, rows))]
    return command, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(run=fuzz_runs())
    def test_exit_codes_and_one_json_document(self, tmp_path_factory, run):
        command, text = run
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        path.write_bytes(text.encode())
        argv = [command[0], str(path), *command[1:]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr), np.errstate(all="ignore"):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        assert code in (0, 2, 3, 4, 5), (argv, text, stderr.getvalue())
        if code == 0:
            assert "manifest" in json.loads(stdout.getvalue())  # exactly one document
        else:
            assert stdout.getvalue() == "", (argv, text)
