import json

import numpy as np
import pytest

from orthores import validation
from orthores.cli import main


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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1e999"])
    def test_non_finite_cell(self, tmp_path, capsys, cell):
        path = write_csv(tmp_path / "nf.csv", [[1.0], [cell], [3.0]])
        assert main(["qr", path]) == 2
        assert main(["indep", path, "--mode", "student"]) == 2
        assert capsys.readouterr().out == ""

    def test_header_detected(self, tmp_path, capsys):
        path = write_csv(tmp_path / "h.csv", [[1.0]] * 4, header=["x1"])
        code, out = run(capsys, ["qr", path])
        assert code == 0 and out["T"] == [[-2.0]]


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

    def test_mode_mismatch(self, tmp_path, capsys):
        path = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [3.0]])
        assert main(["indep", str(path), "--mode", "univariate"]) == 2

    def test_overflowing_sum_of_squares(self, tmp_path, capsys):
        # R'R and W'W overflow to inf, so the identity check sees NaN
        path = write_csv(tmp_path / "big.csv", [[1e200], [-2e200], [4e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["indep", path, "--mode", "student"]) == 4
        assert capsys.readouterr().out == ""

    def test_univariate(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = [[t, y] for t, y in zip(range(8), rng.standard_normal(8).round(6))]
        path = write_csv(tmp_path / "ty.csv", rows)
        code, out = run(capsys, ["indep", path, "--mode", "univariate", "--variant", "b"])
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


class TestSimulate:
    def test_smoke(self, capsys):
        code, out = run(capsys, ["simulate", "--n", "6", "--p", "1",
                                 "--reps", "5", "--seed", "3"])
        assert code == 0
        assert out["max_ss_identity_error"] < 1e-10
        assert out["replicates"] == 5

    def test_p_not_less_than_n(self, capsys):
        assert main(["simulate", "--n", "10", "--p", "10", "--reps", "1"]) == 2

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

    def test_injected_fault(self, capsys):
        code, out = run(capsys, ["check", "--n-grid", "5", "--trials", "5",
                                 "--seed", "0", "--inject-fault"])
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
