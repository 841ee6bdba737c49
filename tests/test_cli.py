"""CLI contract tests: output formats, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from perispec.cli import (FIGURE_HEADER, FigureJob, figure_rows, main,
                          run_verification, write_figure_csv)
from perispec.errors import InvalidParams


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFigureJob:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            FigureJob(3, 1.0, (0.0,), 1.0, 2.0, 0.0, 15.0, samples=1)
        with pytest.raises(InvalidParams):
            FigureJob(3, 1.0, (0.0,), 1.0, 2.0, 5.0, 2.0, samples=10)


class TestFigureCommand:
    def test_single_panel(self, tmp_path):
        out = tmp_path / "panel.csv"
        rc = main(["figure", "--n", "2", "--delta", "1.0", "--beta", "2.0",
                   "--lambda-star", "0.0", "--lambda-star", "1.0",
                   "--samples", "8", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        # per sample: one row per lambda*, plus one lambda2 row
        assert len(rows) == 8 * 3
        with open(out) as fh:
            assert fh.readline().strip() == FIGURE_HEADER

    def test_zero_frequency_row(self, tmp_path):
        out = tmp_path / "panel.csv"
        write_figure_csv(FigureJob(2, 1.0, (0.5,), 1.0, 2.0, 0.0, 1.0, 4),
                         str(out))
        rows = read_csv(out)
        first = [r for r in rows if float(r["nu_norm"]) == 0.0]
        lam1 = [float(r["lambda1"]) for r in first if r["lambda1"] != "NA"]
        lam2 = [float(r["lambda2"]) for r in first if r["lambda2"] != "NA"]
        assert lam1 == [0.0] and lam2 == [0.0]

    def test_lambda2_rows_once_per_sample(self, tmp_path):
        out = tmp_path / "panel.csv"
        write_figure_csv(FigureJob(2, 1.0, (0.0, 1.0, 2.0), 1.0, 2.0,
                                   0.0, 5.0, 6), str(out))
        rows = read_csv(out)
        lam2_rows = [r for r in rows if r["lambda_star"] == "NA"]
        assert len(lam2_rows) == 6
        assert all(r["lambda1"] == "NA" for r in lam2_rows)

    def test_grid_writes_twelve_panels(self, tmp_path):
        out = tmp_path / "grid"
        rc = main(["figure", "--n", "3", "--samples", "2", "--nu-max", "2",
                   "--out", str(out)])
        assert rc == 0
        files = sorted(out.glob("figure_*.csv"))
        assert len(files) == 12

    def test_near_local_panel_tracks_navier(self, tmp_path):
        # the (delta, beta) = (1e-3, n+2-1e-3) panel of the default grid
        out = tmp_path / "panel.csv"
        n = 3
        rc = main(["figure", "--n", str(n), "--delta", "1e-3",
                   "--beta", str(n + 2 - 1e-3), "--samples", "40",
                   "--out", str(out)])
        assert rc == 0
        worst = 0.0
        for row in read_csv(out):
            if row["lambda1"] == "NA":
                continue
            lam_star = float(row["lambda_star"])
            nn = float(row["nu_norm"])
            dev = abs(float(row["lambda1"]) + (lam_star + 2.0) * nn * nn)
            worst = max(worst, dev)
        assert worst <= 1e-3

    def test_determinism(self, tmp_path):
        args = ["figure", "--n", "2", "--delta", "0.5", "--beta", "1.5",
                "--samples", "5", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_precision(self, tmp_path):
        out = tmp_path / "panel.csv"
        write_figure_csv(FigureJob(2, 1.0, (0.7,), 1.3, 1.1, 0.0, 9.0, 5),
                         str(out))
        from perispec.multipliers import (Material, NonlocalParams,
                                          eigenvalue_parallel)
        p = NonlocalParams(2, 1.3, 1.1)
        mat = Material(1.0, 0.7)
        for row in read_csv(out):
            if row["lambda1"] == "NA":
                continue
            nu = np.array([float(row["nu_norm"]), 0.0])
            assert float(row["lambda1"]) == eigenvalue_parallel(p, mat, nu)

    def test_lambda_stars_share_one_series_pass(self):
        # delta = 2 reaches the escalated series; several lambda* in one
        # panel must give exactly the rows of one panel per lambda*
        stars = (-1.5, 0.25, 1.75)
        panel = dict(n=3, mu=1.2, delta=2.0, beta=4.0, nu_norm_min=0.0,
                     nu_norm_max=15.0, samples=25)
        rows = list(figure_rows(FigureJob(lambda_star_list=stars, **panel)))
        singles = [list(figure_rows(FigureJob(lambda_star_list=(s,), **panel)))
                   for s in stars]
        expected = []
        for i in range(panel["samples"]):
            expected += [single[2 * i] for single in singles]
            assert all(single[2 * i + 1] == singles[0][2 * i + 1]
                       for single in singles)
            expected.append(singles[0][2 * i + 1])
        assert rows == expected

    def test_mismatched_panel_flags(self, tmp_path):
        rc = main(["figure", "--delta", "1.0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ["figure", "--nu-max", "inf", "--out", "grid"],
        ["spectrum", "--delta", "1.0", "--beta", "1.0",
         "--lengths", "nan", "1", "1", "--out", "x.csv"],
        ["spectrum", "--delta", "1.0", "--beta", "1.0",
         "--mu", "inf", "--out", "x.csv"],
        ["verify", "--count", "1", "--tol", "inf", "--out", "r.json"],
        ["verify", "--count", "1", "--tol", "nan", "--out", "r.json"],
        ["verify", "--count", "1", "--tol", "-1", "--out", "r.json"],
        ["verify", "--count", "1", "--n", "9", "--out", "r.json"],
        ["verify", "--count", "1", "--n", "0", "--out", "r.json"],
        ["verify", "--count", "1", "--mu", "inf", "--out", "r.json"],
        ["verify", "--count", "1", "--mu", "nan", "--out", "r.json"],
        ["verify", "--count", "1", "--mu", "1e308", "--out", "r.json"],
        ["verify", "--count", "1", "--mu", "1e308", "--lambda-star", "0",
         "--out", "r.json"],
        # |nu| delta past the oracle's reach, rejected before any grid
        ["verify", "--count", "1", "--delta", "1e4", "--out", "r.json"],
    ])
    def test_usage_error_without_output(self, argv, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("perispec: error:")
        assert "Traceback" not in err
        assert list(tmp_path.rglob("*")) == []


class TestVerifyCommand:
    def test_small_sweep_passes(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--seed", "42", "--count", "5",
                   "--tol", "1e-6", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["count"] == 5
        assert len(report["entries"]) == 5
        assert report["all_pass"] is True
        errs = [chk["quad_err"] for entry in report["entries"]
                for chk in entry["checks"].values()]
        assert errs and all(np.isfinite(e) and e >= 0.0 for e in errs)

    def test_forced_invalid_exponent(self, tmp_path):
        # beta = n + 2 + 1 violates the domain and must surface as exit 2
        rc = main(["verify", "--count", "1", "--n", "2", "--beta", "5.0",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_pinned_dimension_above_three(self, capsys):
        rc = main(["verify", "--n", "5", "--count", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True
        assert [entry["n"] for entry in report["entries"]] == [5, 5]

    def test_stdout_report(self, capsys):
        rc = main(["verify", "--seed", "7", "--count", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["entries"]) == 2

    def test_run_verification_rejects_bad_count(self):
        with pytest.raises(InvalidParams):
            run_verification(0, 0, 1e-6)

    def test_zero_tol_keeps_absolute_floor(self):
        report = run_verification(0, 1, 0.0)
        assert report["tol"] == 0.0 and len(report["entries"]) == 1

    def test_pinned_material(self, capsys):
        rc = main(["verify", "--seed", "3", "--count", "2", "--mu", "1.5",
                   "--lambda-star", "1.5"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        for entry in report["entries"]:
            assert (entry["mu"], entry["lambda_star"]) == (1.5, 1.5)
            assert entry["checks"]["state"]["quad_err"] == 0.0

    def test_disagreement_exit_code(self, monkeypatch, capsys):
        import perispec.cli as cli
        failing = {"seed": 0, "count": 1, "tol": 1e-6, "abs_floor": 1e-8,
                   "entries": [], "failures": 1, "all_pass": False}
        monkeypatch.setattr(cli, "run_verification",
                            lambda *a, **kw: failing)
        assert main(["verify", "--count", "1"]) == 1
        capsys.readouterr()


class TestLazyOracleImport:
    def test_import_does_not_load_scipy(self):
        import perispec
        src = os.path.dirname(os.path.dirname(perispec.__file__))
        code = ("import sys, perispec, perispec.cli\n"
                "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
                "assert 'mpmath' not in sys.modules, 'mpmath loaded'\n"
                "from perispec.oracle import lambda1_quad\n"
                "assert perispec.lambda1_quad is lambda1_quad\n"
                "from perispec.hypergeom import PfqParams, pfq\n"
                "res = pfq(PfqParams((1.0, 1.5), (2.0, 2.5, 0.5)), -4e4)\n"
                "assert res.precision_bits == 64, res\n"
                "assert 'mpmath' in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_unknown_attribute(self):
        import perispec
        with pytest.raises(AttributeError):
            perispec.no_such_name


class TestSpectrumCommand:
    def test_zero_cutoff(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--n", "2", "--delta", "0.5", "--beta", "1.0",
                   "--k-max", "0", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["lambda1"]) == 0.0
        assert float(rows[0]["lambda2"]) == 0.0

    def test_near_local_cube(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--n", "3", "--delta", "1e-3", "--beta", "2.0",
                   "--mu", "1.0", "--lambda-star", "1.0", "--k-max", "1",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 27
        rec = next(r for r in rows
                   if (r["k1"], r["k2"], r["k3"]) == ("1", "0", "0"))
        assert abs(float(rec["lambda1"]) + 3.0) <= 1e-4
        assert abs(float(rec["lambda2"]) + 1.0) <= 1e-4
        assert rec["multiplicity2"] == "2"

    def test_opposite_modes_match(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--n", "2", "--delta", "0.5", "--beta", "1.5",
              "--lengths", "6.283185307179586", "1.5", "--k-max", "2",
              "--out", str(out)])
        rows = {(r["k1"], r["k2"]): r for r in read_csv(out)}
        for (k1, k2), r in rows.items():
            other = rows[(str(-int(k1)), str(-int(k2)))]
            assert r["lambda1"] == other["lambda1"]
            assert r["lambda2"] == other["lambda2"]

    def test_determinism(self, tmp_path):
        args = ["spectrum", "--n", "2", "--delta", "0.5", "--beta", "1.0",
                "--k-max", "1", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + [str(a)])
        main(args + [str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_exponent_exit_code(self, tmp_path):
        rc = main(["spectrum", "--n", "2", "--delta", "0.5", "--beta", "4.0",
                   "--k-max", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
