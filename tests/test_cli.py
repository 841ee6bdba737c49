"""CLI contract tests: output formats, determinism, exit codes."""

import csv
import gc
import hashlib
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perispec.cli
import perispec.multipliers
import perispec.spectrum
from perispec.cli import (FIGURE_DELTAS, FIGURE_HEADER, FigureJob,
                          _draw_tuples, figure_betas, figure_rows,
                          figure_values, main, run_verification)
from perispec.errors import InvalidParams
from perispec.multipliers import Material, NonlocalParams
from perispec.spectrum import TorusSpec, spectrum_table
from perispec.hypergeom import DD_PRECISION_BITS, PfqParams, pfq


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestFigureJob:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            FigureJob(3, 1.0, (0.0,), 1.0, 2.0, 0.0, 15.0, samples=1)
        with pytest.raises(InvalidParams):
            FigureJob(3, 1.0, (0.0,), 1.0, 2.0, 5.0, 2.0, samples=10)


class TestSizeReach:
    def test_samples_cap(self):
        assert perispec.cli.MAX_SAMPLES == 100_000
        job = FigureJob(3, 1.0, (0.0,), 1.0, 2.0, 0.0, 15.0,
                        samples=perispec.cli.MAX_SAMPLES)
        assert job.samples == 100_000
        with pytest.raises(InvalidParams, match="MAX_SAMPLES = 100000"):
            FigureJob(3, 1.0, (0.0,), 1.0, 2.0, 0.0, 15.0, samples=100_001)

    @pytest.mark.parametrize("samples", ["100001", "10000000000"])
    @pytest.mark.parametrize("panel", [["--delta", "1", "--beta", "3"], []],
                             ids=["panel", "grid"])
    def test_samples_rejected_before_any_array(self, samples, panel, tmp_path,
                                               monkeypatch, capsys):
        def no_values(jobs):
            raise AssertionError("a panel was evaluated past the reach")

        monkeypatch.setattr(perispec.cli, "figure_values", no_values)
        out = tmp_path / "out"
        assert main(["figure", "--samples", samples, "--out", str(out)]
                    + panel) == 2
        err = capsys.readouterr().err
        assert "MAX_SAMPLES = 100000" in err and samples in err
        assert not out.exists()

    def test_figure_phase_cap(self):
        # the series' reach, the same constant the torus layer uses
        reach = perispec.spectrum.MAX_PHASE
        FigureJob(3, 1.0, (0.0,), 2.0, 2.0, 0.0, reach / 2.0, samples=2)
        with pytest.raises(InvalidParams, match="MAX_PHASE"):
            FigureJob(3, 1.0, (0.0,), 2.0, 2.0, 0.0,
                      np.nextafter(reach / 2.0, np.inf), samples=2)

    @pytest.mark.parametrize("argv", [
        ["--n", "3", "--delta", "1", "--beta", "3", "--nu-max", "2e4"],
        ["--n", "2", "--delta", "1", "--beta", "2", "--nu-max", "1e6"],
        ["--n", "3", "--delta", "1", "--beta", "2", "--nu-max", "1e4"],
        ["--nu-max", "4000"],    # grid mode: the delta = 2 panels pass it
    ])
    def test_figure_phase_rejected_before_any_series(self, argv, tmp_path,
                                                     monkeypatch, capsys):
        def no_series(*args, **kwargs):
            raise AssertionError("a panel was evaluated past the reach")

        monkeypatch.setattr(perispec.multipliers, "_closed", no_series)
        out = tmp_path / "out"
        assert main(["figure", "--samples", "50", "--out", str(out)]
                    + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("perispec: error:") and err.count("\n") == 1
        assert "MAX_PHASE" in err
        assert not out.exists()

    def test_modes_rejected_before_any_mode(self, tmp_path, monkeypatch,
                                            capsys):
        def no_box(*args, **kwargs):
            raise AssertionError("modes were built past the reach")

        monkeypatch.setattr(perispec.spectrum, "_mode_box", no_box)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "3", "--delta", "0.5", "--beta", "3",
                     "--k-max", "31", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "250047 modes" in err and "MAX_MODES = 250000" in err
        assert not out.exists()

    def test_count_cap(self):
        assert perispec.cli.MAX_COUNT == 10_000
        with pytest.raises(InvalidParams, match="MAX_COUNT = 10000"):
            run_verification(0, 10_001, 1e-6)

    @pytest.mark.parametrize("count", ["10001", "10000000000"])
    def test_count_rejected_before_any_draw(self, count, tmp_path,
                                            monkeypatch, capsys):
        class NoRandom:
            @staticmethod
            def Random(*args, **kwargs):
                raise AssertionError("tuples were drawn past the reach")

        monkeypatch.setattr(perispec.cli, "random", NoRandom)
        out = tmp_path / "r.json"
        assert main(["verify", "--count", count, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("perispec: error:") and err.count("\n") == 1
        assert "MAX_COUNT = 10000" in err and count in err
        assert not out.exists()

    def test_phase_reach_exits_fast(self, tmp_path, capsys):
        # 249,999 modes fit MAX_MODES, but |nu| delta reaches 62,499.5
        # (z ~ -1e9), far past the series' reach
        out = tmp_path / "spec.csv"
        start = time.perf_counter()
        assert main(["spectrum", "--n", "1", "--delta", "0.5", "--beta", "2",
                     "--k-max", "124999", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "|nu| delta reaches 62499.5" in err and "MAX_PHASE" in err
        assert not out.exists()


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
        assert main(["figure", "--n", "2", "--lambda-star", "0.5",
                     "--delta", "1", "--beta", "2", "--nu-max", "1",
                     "--samples", "4", "--out", str(out)]) == 0
        rows = read_csv(out)
        first = [r for r in rows if float(r["nu_norm"]) == 0.0]
        lam1 = [float(r["lambda1"]) for r in first if r["lambda1"] != "NA"]
        lam2 = [float(r["lambda2"]) for r in first if r["lambda2"] != "NA"]
        assert lam1 == [0.0] and lam2 == [0.0]

    def test_lambda2_rows_once_per_sample(self, tmp_path):
        out = tmp_path / "panel.csv"
        assert main(["figure", "--n", "2", "--lambda-star", "0",
                     "--lambda-star", "1", "--lambda-star", "2",
                     "--delta", "1", "--beta", "2", "--nu-max", "5",
                     "--samples", "6", "--out", str(out)]) == 0
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

    @staticmethod
    def _fail_third_panel(monkeypatch, error):
        """Make the third panel raise ``error`` after its first rows."""
        real_rows, calls = perispec.cli.figure_rows, []

        def failing_rows(job, values):
            calls.append(job)
            rows = real_rows(job, values)
            yield from itertools.islice(rows, 5)
            if len(calls) == 3:
                raise error
            yield from rows

        monkeypatch.setattr(perispec.cli, "figure_rows", failing_rows)
        return calls

    @pytest.mark.parametrize("error", [OSError("disk full"),
                                       KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    def test_grid_write_is_all_or_nothing(self, error, tmp_path, monkeypatch):
        # a grid whose third panel fails while it is written replaces no
        # old panel, creates no panel or directory and leaves no temporary
        grid = tmp_path / "grid"
        assert main(["figure", "--samples", "2", "--nu-max", "2",
                     "--out", str(grid)]) == 0
        (grid / "notes.txt").write_text("x")
        old = {p.name: p.read_bytes() for p in grid.iterdir()}
        assert len(old) == 13
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("x")
        calls = self._fail_third_panel(monkeypatch, error)
        for out in (grid, kept, tmp_path / "new" / "grid"):
            calls.clear()
            argv = ["figure", "--samples", "3", "--nu-max", "2",
                    "--out", str(out)]
            if isinstance(error, KeyboardInterrupt):
                with pytest.raises(KeyboardInterrupt):
                    main(argv)
            else:
                assert main(argv) == 2
            assert len(calls) == 3
        assert {p.name: p.read_bytes() for p in grid.iterdir()} == old
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid", "kept"]

    def test_panel_equals_its_grid_file(self, tmp_path):
        flags = ["--samples", "7", "--nu-max", "9", "--lambda-star", "0.5"]
        assert main(["figure", *flags, "--out", str(tmp_path / "grid")]) == 0
        panel = tmp_path / "panel.csv"
        assert main(["figure", *flags, "--delta", "2", "--beta", "3",
                     "--out", str(panel)]) == 0
        assert (panel.read_bytes() == (tmp_path / "grid" /
                "figure_delta2_beta3.csv").read_bytes())

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
        assert main(["figure", "--n", "2", "--lambda-star", "0.7",
                     "--delta", "1.3", "--beta", "1.1", "--nu-max", "9",
                     "--samples", "5", "--out", str(out)]) == 0
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
        def panel_rows(job):
            text = "\n".join(figure_rows(job, figure_values([job])[0]))
            return text.split("\n")

        rows = panel_rows(FigureJob(lambda_star_list=stars, **panel))
        singles = [panel_rows(FigureJob(lambda_star_list=(s,), **panel))
                   for s in stars]
        expected = []
        for i in range(panel["samples"]):
            expected += [single[2 * i] for single in singles]
            assert all(single[2 * i + 1] == singles[0][2 * i + 1]
                       for single in singles)
            expected.append(singles[0][2 * i + 1])
        assert rows == expected

    @staticmethod
    def _cell_rows(job, values):
        """The panel's rows, each cell formatted alone with f"{x:.17g}"."""
        grid, lam1, lam2 = values
        head = f"{job.n},{job.delta:.17g},{job.beta:.17g},{job.mu:.17g}"
        rows = []
        for i, nu_norm in enumerate(grid.tolist()):
            rows += [f"{head},{s:.17g},{nu_norm:.17g},{col[i]:.17g},NA"
                     for s, col in zip(job.lambda_star_list, lam1)]
            rows.append(f"{head},NA,{nu_norm:.17g},NA,{lam2[i]:.17g}")
        return rows

    @pytest.mark.parametrize("n, stars, samples", [
        (1, (-1.9, -1.0, 0.0, 1.0, 2.0), 2 * perispec.cli._ROW_BLOCK + 3),
        (3, (-0.1,), perispec.cli._ROW_BLOCK),
        (2, (), perispec.cli._ROW_BLOCK + 1),
        (1, (2.5, -3e-5), 7),
    ])
    def test_rows_match_cell_by_cell_formatting(self, n, stars, samples):
        # each item is the rows of a block of samples, joined by newlines
        block = perispec.cli._ROW_BLOCK
        job = FigureJob(n, 1.3, stars, 2.0, n + 0.5, 0.0, 15.0, samples)
        values = figure_values([job])[0]
        chunks = list(figure_rows(job, values))
        assert len(chunks) == -(-samples // block)
        assert all(not c.endswith("\n") for c in chunks)
        got = "\n".join(chunks).split("\n")
        assert got == self._cell_rows(job, values)
        assert len(got) == samples * (len(stars) + 1)
        # negative, signed-zero, tiny, huge and non-finite values too
        rng = np.random.default_rng(5)
        odd = rng.choice([-0.0, 5e-324, -1.7976931348623157e308, math.inf,
                          -math.nan, -1.0 / 3.0, 1e16, 0.1], samples)
        synthetic = (values[0], [np.roll(odd, k) for k in range(len(stars))],
                     -odd)
        assert ("\n".join(figure_rows(job, synthetic)).split("\n")
                == self._cell_rows(job, synthetic))

    def test_grid_panels_equal_single_panels(self, tmp_path):
        # the grid sums every panel's series in one pass; each panel's CSV
        # must be the bytes of that panel run alone.  At |nu| = 15 the
        # delta = 2 panels reach the double-double tier
        assert pfq(PfqParams((1.0, 1.0), (2.0, 2.0, 3.5)),
                   -225.0).precision_bits == DD_PRECISION_BITS
        common = ["--samples", "50", "--nu-max", "15"]
        assert main(["figure", *common, "--out", str(tmp_path / "grid")]) == 0
        files = sorted((tmp_path / "grid").glob("figure_*.csv"))
        assert len(files) == 12
        for delta in FIGURE_DELTAS:
            for beta in figure_betas(3):
                name = f"figure_delta{delta:g}_beta{beta:g}.csv"
                single = tmp_path / name
                assert main(["figure", *common, "--delta", repr(delta),
                             "--beta", repr(beta), "--out", str(single)]) == 0
                assert ((tmp_path / "grid" / name).read_bytes()
                        == single.read_bytes())

    # the default grid's and a negative-lambda* panel's bytes; a pin on
    # this platform's libm, like every byte-identity check here
    GRID_DIGESTS = {
        "figure_delta0.001_beta2.csv":
            "4254242e44a577485b3a2d0631950e2e4e01b74587ed270f33724b1ded17e5b8",
        "figure_delta0.001_beta3.csv":
            "d5b9ae0d19eff6ddf7b4f9ee116c2d2d5a3c88d772cc5efbe2c4c683c2620f6f",
        "figure_delta0.001_beta4.999.csv":
            "5a55fc407cf27155269a918dcdd13315209d15e9e829d5a94a3a77b4e34c8c0e",
        "figure_delta0.001_beta4.csv":
            "e18488aa33c54f7149ba04c2ce4eb1d1114a34c65c8db4887908f5045b7c7869",
        "figure_delta1_beta2.csv":
            "eaf2a5f7d0713a1288d327ad3c43dceefb7d4141f1ae5cd949763a847b211620",
        "figure_delta1_beta3.csv":
            "4a7d40ed086c4b2690948e9a4632923c2c5a0c6547e5606aa2af28c3504fb4c0",
        "figure_delta1_beta4.999.csv":
            "2f518fb0777be2aee21132c9835ceb866881b85e8623310b684a7a3fdce8bdd6",
        "figure_delta1_beta4.csv":
            "5bdd2798db910d16109ec82848924a43017060cf744812a5e0b9f5302d1a2613",
        "figure_delta2_beta2.csv":
            "edd7f2c85f0b484b37c3706df0f9f60952b08b5a0f8d834eb9f106183e2d7c1a",
        "figure_delta2_beta3.csv":
            "665aca2f2c4b9c48a255e7762b79d72b3f330979961fb682c3b8df3e1c69f642",
        "figure_delta2_beta4.999.csv":
            "36b1d0183c5e294a7207b6ef684e16a1ae8e71d83490f9cfe0b4d9686099962e",
        "figure_delta2_beta4.csv":
            "27e182ed0b728c35654b994b4125ca967c2f8f7b7f0bbbdfc0ba9b8132c974b1",
    }

    def test_grid_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "grid"
        assert main(["figure", "--samples", "50", "--out", str(out)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == self.GRID_DIGESTS

    def test_panel_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "panel.csv"
        assert main(["figure", "--n", "2", "--delta", "1", "--beta", "1.5",
                     "--lambda-star", "-1.5", "--samples", "50",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8c5d2c65d9102ad70dfc50b60b10401c995cb14415c03009c41abab3ed62b60c")

    def test_grid_values_peak(self):
        # each quantity is scattered from its shells before the next is
        # formed: ~7.1 MB traced over these 12 x 4,000 samples.  Keeping
        # every panel's shell values alive next to their scattered copies
        # reads ~9.3 MB
        jobs = [FigureJob(3, 1.0, perispec.cli.FIGURE_LAMBDA_STARS, delta,
                          beta, 0.0, 15.0, 4000)
                for delta in FIGURE_DELTAS for beta in figure_betas(3)]
        figure_values(jobs[:1])
        gc.collect()
        tracemalloc.start()
        try:
            figure_values(jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.2e6

    def test_lambda2_formed_once_per_panel(self, monkeypatch):
        # lambda2 reads only mu, so five lambda* need it once, not five times
        keys, formula = perispec.multipliers._FORMULAS["lambda2"]
        calls = []

        def counted(*args):
            calls.append(args)
            return formula(*args)

        monkeypatch.setitem(perispec.multipliers._FORMULAS, "lambda2",
                            (keys, counted))
        job = FigureJob(3, 1.0, perispec.cli.FIGURE_LAMBDA_STARS, 2.0, 3.0,
                        0.0, 15.0, 50)
        grid, lam1, lam2 = figure_values([job])[0]
        assert len(calls) == 1
        assert len(lam1) == 5 and lam2.shape == grid.shape

    def test_panel_without_lambda_star(self):
        # only the lambda2 rows, the same as those of a one-lambda* panel
        panel = dict(n=2, mu=1.3, delta=2.0, beta=3.5, nu_norm_min=0.0,
                     nu_norm_max=15.0, samples=40)
        empty = FigureJob(lambda_star_list=(), **panel)
        one = FigureJob(lambda_star_list=(0.7,), **panel)
        rows = "\n".join(figure_rows(empty, figure_values([empty])[0]))
        ones = "\n".join(figure_rows(one, figure_values([one])[0]))
        rows, ones = rows.split("\n"), ones.split("\n")
        assert len(rows) == 40
        assert all(r.split(",")[4] == "NA" and r.split(",")[6] == "NA"
                   for r in rows)
        assert rows == ones[1::2]

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
        # a finite material so large that the closed forms overflow
        ["verify", "--count", "1", "--mu", "1e307", "--lambda-star", "0",
         "--out", "r.json"],
        ["figure", "--delta", "1", "--beta", "3", "--samples", "3",
         "--mu", "1e308", "--lambda-star", "1e308", "--out", "x.csv"],
        # grid mode evaluates every panel before creating the directory
        ["figure", "--samples", "3", "--mu", "1e308", "--lambda-star",
         "1e308", "--out", "gridx"],
        ["spectrum", "--n", "1", "--delta", "1", "--beta", "2",
         "--mu", "1e308", "--lambda-star", "1e308", "--k-max", "1",
         "--out", "x.csv"],
        # |nu|^2 overflows a double
        ["figure", "--delta", "1", "--beta", "2", "--nu-max", "1e200",
         "--samples", "3", "--out", "x.csv"],
        ["figure", "--delta", "1e-300", "--beta", "2", "--nu-max", "1e200",
         "--samples", "3", "--out", "x.csv"],
        # |nu| delta past the series' reach, rejected before any series
        ["figure", "--n", "3", "--delta", "1", "--beta", "3",
         "--nu-max", "2e4", "--samples", "50", "--out", "x.csv"],
        ["figure", "--n", "2", "--delta", "1", "--beta", "2",
         "--nu-max", "1e6", "--samples", "50", "--out", "x.csv"],
        ["figure", "--n", "3", "--delta", "1", "--beta", "2",
         "--nu-max", "1e4", "--samples", "50", "--out", "x.csv"],
        # a dimension below 1, in panel and in grid mode
        ["figure", "--n", "0", "--delta", "1", "--beta", "1",
         "--out", "x.csv"],
        ["figure", "--n", "-2", "--delta", "1", "--beta", "1",
         "--out", "x.csv"],
        ["figure", "--n", "0", "--out", "grid"],
        ["figure", "--n", "-2", "--out", "grid"],
        # perispec's own rule: random.Random would take the seed's magnitude
        ["verify", "--count", "1", "--seed", "-1", "--out", "r.json"],
    ])
    def test_usage_error_without_output(self, argv, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("perispec: error:")
        assert "Traceback" not in err
        assert list(tmp_path.rglob("*")) == []


@st.composite
def command_lines(draw):
    """``spectrum`` or single-panel ``figure`` argv, valid or not.

    n is small or reaches past numpy's 64 array dimensions.  delta, beta,
    mu, lambda* (and a figure's samples and |nu| range) start valid; a
    drawn few of them are replaced by out-of-range or non-finite values,
    or by ones so large that a product overflows.
    """
    n = draw(st.one_of(st.integers(1, 6), st.integers(60, 80)), label="n")
    valid = {"--delta": ["1", "0.5", "2", "1e-3"],
             "--beta": [repr(n - 1.0), repr(n + 0.5), repr(n + 2 - 1e-3)],
             "--mu": ["1", "0.7"],
             "--lambda-star": ["0", "-1.9", "2", "-1e-3"]}
    invalid = {"--delta": ["0", "-1", "nan", "inf", "1e300"],
               "--beta": [repr(n + 2.0), "nan", "inf", "-inf"],
               "--mu": ["0", "-1", "nan", "1e308"],
               "--lambda-star": ["nan", "-inf", "1e308"]}
    if draw(st.booleans(), label="spectrum"):
        argv = ["spectrum", "--k-max", str(draw(st.integers(0, 2)))]
    else:
        argv = ["figure"]
        valid.update({"--samples": ["2", "7", "20"], "--nu-max": ["15", "1"]})
        invalid.update({"--samples": ["1", "0"],
                        "--nu-max": ["0", "1e200", "inf"]})
    broken = draw(st.sets(st.sampled_from(sorted(valid)), max_size=2),
                  label="broken")
    argv += ["--n", str(n)]
    for name in valid:
        pool = invalid[name] if name in broken else valid[name]
        argv += [name, draw(st.sampled_from(pool), label=name)]
    return argv


class TestExitCodes:
    # exit 1 belongs to verify alone; every other outcome is 0 or 2
    @settings(max_examples=40, deadline=None)
    @given(argv=command_lines())
    def test_only_zero_or_two(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.csv")
            rc = main([*argv, "--out", out])
            assert rc in (0, 2)
            assert os.path.isfile(out) == (rc == 0)
            assert os.listdir(tmp) == (["out.csv"] if rc == 0 else [])


class TestNegativeValues:
    # argparse reads a bare -1e-3 as an option name, and repr writes floats
    # below 1e-4 in that form
    def test_figure_lambda_star(self, tmp_path):
        out = tmp_path / "panel.csv"
        assert main(["figure", "--delta", "1", "--beta", "3", "--samples",
                     "2", "--lambda-star", "-1e-3", "--lambda-star", "-2",
                     "--out", str(out)]) == 0
        stars = [r["lambda_star"] for r in read_csv(out)]
        assert stars[:3] == ["-0.001", "-2", "NA"]

    def test_non_number_is_a_usage_error(self, tmp_path, capsys):
        # -x is no number, so it stays an option and argparse refuses it
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--lambda-star", "-x",
                  "--out", str(tmp_path / "panel.csv")])
        err = capsys.readouterr().err
        assert (exc.value.code == 2 and "Traceback" not in err
                and "--lambda-star: expected one argument" in err)

    def test_verify_beta(self, capsys):
        assert main(["verify", "--count", "1", "--beta", "-1e-3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"][0]["beta"] == -1e-3

    def test_spectrum_lambda_star(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "1", "--delta", "1", "--beta", "2",
                     "--lambda-star", "-1e-3", "--k-max", "1",
                     "--out", str(out)]) == 0
        joined = tmp_path / "joined.csv"
        assert main(["spectrum", "--n", "1", "--delta", "1", "--beta", "2",
                     "--lambda-star=-1e-3", "--k-max", "1",
                     "--out", str(joined)]) == 0
        assert out.read_bytes() == joined.read_bytes()


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

    def test_run_verification_rejects_negative_seed(self):
        with pytest.raises(InvalidParams, match="seed"):
            run_verification(-1, 1, 1e-6)

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

    @pytest.mark.parametrize("argv", [
        ["--count", "1", "--beta", "-10000"],
        ["--count", "1", "--beta", "-1000", "--delta", "0.1"],
        ["--beta", "-1000", "--delta", "2", "--seed", "3", "--count", "2"],
    ])
    def test_kernel_scale_past_oracle_reach(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("perispec: error:") and err.count("\n") == 1
        assert "outside the oracle's reach" in err and not out.exists()

    def test_deep_kernel_exponent_report_is_strict_json(self, tmp_path):
        out = tmp_path / "r.json"

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        assert main(["verify", "--beta", "-1000", "--delta", "1", "--count",
                     "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text(), parse_constant=reject)
        assert len(report["entries"]) == 3

    def test_disagreement_exit_code(self, monkeypatch, capsys):
        import perispec.cli as cli
        failing = {"seed": 0, "count": 1, "tol": 1e-6, "abs_floor": 1e-8,
                   "entries": [], "failures": 1, "all_pass": False}
        monkeypatch.setattr(cli, "run_verification",
                            lambda *a, **kw: failing)
        assert main(["verify", "--count", "1"]) == 1
        capsys.readouterr()


class TestOutputTarget:
    # writing replaces --out, so a device or pipe there would be replaced by
    # a regular file; a FIFO under tmp_path stands in for a device
    @pytest.mark.parametrize("argv, evaluation", [
        (["figure", "--delta", "1", "--beta", "3", "--samples", "5"],
         "figure_values"),
        (["spectrum", "--n", "1", "--delta", "1", "--beta", "1",
          "--k-max", "2"], "_box_spectrum"),
        (["verify", "--count", "1"], "run_verification"),
    ], ids=["figure", "spectrum", "verify"])
    def test_non_regular_file_refused_first(self, argv, evaluation, tmp_path,
                                            monkeypatch, capsys):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated before --out was checked")

        monkeypatch.setattr(perispec.cli, evaluation, no_evaluation)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert main([*argv, "--out", str(fifo)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("perispec: error:")
        assert "exists and is not a regular file" in err
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]

    @pytest.mark.parametrize("inside", [False, True],
                             ids=["directory", "panel"])
    def test_grid_target_refused_first(self, inside, tmp_path, monkeypatch,
                                       capsys):
        def no_values(jobs):
            raise AssertionError("evaluated before --out was checked")

        monkeypatch.setattr(perispec.cli, "figure_values", no_values)
        out = tmp_path / "grid"
        if inside:
            out.mkdir()
            fifo = out / (f"figure_delta{FIGURE_DELTAS[0]:g}"
                          f"_beta{figure_betas(3)[0]:g}.csv")
        else:
            fifo = out
        os.mkfifo(fifo)
        assert main(["figure", "--samples", "5", "--out", str(out)]) == 2
        kind = "regular file" if inside else "directory"
        assert f"exists and is not a {kind}" in capsys.readouterr().err
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(out if inside else tmp_path) == [fifo.name]

    SPECTRUM = ["spectrum", "--n", "1", "--delta", "1", "--beta", "1",
                "--k-max", "2", "--out"]

    def test_fifo_beside_the_target_is_left_alone(self, tmp_path):
        # a reader holds the FIFO open, so a write to it would not block
        # but would land in the pipe and rename the FIFO over the target
        fifo = tmp_path / "out.csv.tmp"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main([*self.SPECTRUM, str(tmp_path / "out.csv")]) == 0
            assert os.read(reader, 1) == b""
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert (tmp_path / "out.csv").read_text().startswith("k1,")
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.csv.tmp"]

    def test_regular_file_beside_the_target_is_kept(self, tmp_path):
        (tmp_path / "b.csv.tmp").write_bytes(b"mine")
        assert main([*self.SPECTRUM, str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "b.csv.tmp").read_bytes() == b"mine"
        assert sorted(os.listdir(tmp_path)) == ["b.csv", "b.csv.tmp"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_output_mode_follows_the_umask(self, umask, tmp_path):
        out = tmp_path / "s.csv"
        old = os.umask(umask)
        try:
            assert main([*self.SPECTRUM, str(out)]) == 0
            assert main(["figure", "--samples", "2", "--nu-max", "2",
                         "--out", str(tmp_path / "grid")]) == 0
        finally:
            os.umask(old)
        for path in [out, *(tmp_path / "grid").iterdir()]:
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask

    def test_streamed_report_equals_one_dump(self, tmp_path, capsys):
        # the entries are written one at a time, in the bytes of dumping
        # the whole report at once
        want = json.dumps(run_verification(3, 4, 1e-6), indent=2,
                          sort_keys=True) + "\n"
        out = tmp_path / "r.json"
        assert main(["verify", "--seed", "3", "--count", "4",
                     "--out", str(out)]) == 0
        assert out.read_text() == want
        assert main(["verify", "--seed", "3", "--count", "4"]) == 0
        assert capsys.readouterr().out == want


def _free_and_pinned(seed, name, value, count=20):
    return (_draw_tuples(seed, count, {}),
            _draw_tuples(seed, count, {name: value}))


def _components(params, material):
    return {"n": params.n, "delta": params.delta, "beta": params.beta,
            "mu": material.mu, "lambda_star": material.lambda_star}


class TestVerifySampler:
    # the tuples a sweep checks, drawn without the sweep
    def test_same_seed_same_tuples(self):
        def draw(seed):
            return [(p, m, nu.tolist())
                    for p, m, nu in _draw_tuples(seed, 50, {})]
        assert draw(11) == draw(11)
        assert draw(11) != draw(12)

    def test_tuples_lie_in_the_box(self):
        dims = set()
        for seed in range(200):
            for p, m, nu in _draw_tuples(seed, 20, {}):
                dims.add(p.n)
                assert nu.shape == (p.n,)
                assert 0.1 <= p.delta <= 4.0
                assert -2.0 <= p.beta <= p.n + 2 - 0.05
                assert 0.5 <= m.mu <= 3.0
                assert -2.0 * m.mu <= m.lambda_star <= 3.0
                norm = np.linalg.norm(nu)
                assert 0.0 < norm <= 20.0 * (1.0 + 1e-15)
                assert abs(np.linalg.norm(nu / norm) - 1.0) <= 1e-15
        assert dims == {1, 2, 3}

    @pytest.mark.parametrize("name, value", [
        ("delta", 1.5), ("beta", 0.5), ("mu", 2.0), ("lambda_star", 0.25)])
    def test_pinning_keeps_the_other_draws(self, name, value):
        for seed in range(10):
            free, pinned = _free_and_pinned(seed, name, value)
            for (p0, m0, nu0), (p1, m1, nu1) in zip(free, pinned):
                got, want = _components(p1, m1), _components(p0, m0)
                assert got.pop(name) == value
                del want[name]
                if name == "mu":
                    # lambda* keeps its unit draw on the pinned mu's range
                    u = (m0.lambda_star + 2.0 * m0.mu) / (3.0 + 2.0 * m0.mu)
                    assert got.pop("lambda_star") == pytest.approx(
                        -2.0 * value + (3.0 + 2.0 * value) * u, rel=1e-12,
                        abs=1e-12)
                    del want["lambda_star"]
                assert got == want
                assert nu1.tolist() == nu0.tolist()

    def test_pinned_n_keeps_the_draws_before_the_direction(self):
        # a pinned n changes how many direction components are drawn, so
        # the streams part after the first tuple whose drawn n differs
        parted = 0
        for seed in range(10):
            free, pinned = _free_and_pinned(seed, "n", 2)
            for (p0, m0, nu0), (p1, m1, nu1) in zip(free, pinned):
                assert p1.n == 2 and nu1.shape == (2,)
                assert (p1.delta, m1.mu, m1.lambda_star) == (
                    p0.delta, m0.mu, m0.lambda_star)
                # beta keeps its unit draw on the pinned n's range
                u = (p0.beta + 2.0) / (p0.n + 4 - 0.05)
                assert p1.beta == pytest.approx(-2.0 + (2 + 4 - 0.05) * u,
                                                rel=1e-12, abs=1e-12)
                if p0.n != 2:
                    parted += 1
                    break
                assert nu1.tolist() == nu0.tolist()
        assert parted > 0


class TestLazyOracleImport:
    def test_import_adds_only_its_own_modules(self):
        # set-up time is a bare ``import perispec``: beyond numpy it loads
        # the package and two standard modules, nothing else
        import perispec
        src = os.path.dirname(os.path.dirname(perispec.__file__))
        code = ("import sys, numpy\n"
                "before = set(sys.modules)\n"
                "import perispec\n"
                "extra = {m for m in set(sys.modules) - before\n"
                "         if m.partition('.')[0] != 'perispec'}\n"
                "assert extra <= {'copy', 'dataclasses'}, sorted(extra)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_import_does_not_load_scipy(self):
        import perispec
        src = os.path.dirname(os.path.dirname(perispec.__file__))
        code = ("import sys, perispec, perispec.cli\n"
                "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
                "assert 'mpmath' not in sys.modules, 'mpmath loaded'\n"
                "assert 'perispec._asymptotic' not in sys.modules\n"
                "from perispec.oracle import lambda1_quad\n"
                "assert perispec.lambda1_quad is lambda1_quad\n"
                "from perispec.hypergeom import PfqParams, pfq\n"
                "res = pfq(PfqParams((0.7, 1.9, 2.5), (1.1, 3.3, 4.0)), "
                "-400.0)\n"
                "assert res.precision_bits == 64, res\n"
                "assert 'mpmath' in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_verify_does_not_load_scipy(self):
        # the oracle builds its Gauss rules with numpy alone
        import perispec
        src = os.path.dirname(os.path.dirname(perispec.__file__))
        code = ("import sys\n"
                "import perispec.oracle\n"
                "from perispec.cli import run_verification\n"
                "assert run_verification(0, 3, 1e-6)['all_pass']\n"
                "assert 'scipy' not in sys.modules, 'scipy loaded'\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_verify_without_mpmath(self):
        # each seed's closed side reaches |z| of ~215-1,560, past the
        # double-double pass, where the large-|z| tier serves every series
        import perispec
        src = os.path.dirname(os.path.dirname(perispec.__file__))
        code = ("import sys\n"
                "from perispec.cli import run_verification\n"
                "for seed in (200, 214, 229):\n"
                "    assert run_verification(seed, 40, 1e-6)['all_pass']\n"
                "assert 'mpmath' not in sys.modules, 'mpmath loaded'\n"
                "assert 'perispec._asymptotic' in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_verify_without_numpy_random(self):
        # verify draws its tuples with the standard library; numpy.random
        # would add ~6 MB to the sweep's peak resident memory
        import perispec
        src = os.path.dirname(os.path.dirname(perispec.__file__))
        code = ("import sys\n"
                "from perispec.cli import run_verification\n"
                "for seed in (200, 214, 229):\n"
                "    assert run_verification(seed, 40, 1e-6)['all_pass']\n"
                "assert 'numpy' in sys.modules\n"
                "assert 'numpy.random' not in sys.modules, 'numpy.random'\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_figure_panel_without_mpmath(self, tmp_path):
        # delta = 2 reaches the double-double pass, which serves every
        # entry of the default figure range, so neither later tier loads
        import perispec
        src = os.path.dirname(os.path.dirname(perispec.__file__))
        code = ("import sys\n"
                "from perispec.cli import main\n"
                "assert main(['figure', '--delta', '2', '--beta', '3', "
                f"'--out', {str(tmp_path / 'p.csv')!r}]) == 0\n"
                "assert 'mpmath' not in sys.modules, 'mpmath loaded'\n"
                "assert 'perispec._asymptotic' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_oracle_names_match_oracle_all(self):
        # the lazy re-export keeps its own copy of the oracle's names
        import perispec.oracle
        assert perispec._ORACLE_NAMES == set(perispec.oracle.__all__)

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

    @pytest.mark.parametrize("n, lengths, k_max, extra", [
        (1, None, 0, []),
        (1, (3.3,), 200, ["--lambda-star", "-1.5"]),
        (2, None, 0, []),
        (2, (6.283185307179586, 5.3), 10, ["--mu", "2", "--lambda-star", "0.3"]),
        (3, None, 0, []),
        (3, (6.283185307179586, 5.3, 7.1), 3, []),
        (3, (1.1, 9.7, 4.2), 4, ["--lambda-star", "-1.9"]),
    ])
    def test_rows_match_the_records(self, n, lengths, k_max, extra, tmp_path):
        # reference: one formatted line per spectrum_table record, with
        # np.linalg.norm per row and f"{x:.17g}" per cell
        delta, beta = 0.7, n - 0.5
        out = tmp_path / "spec.csv"
        argv = ["spectrum", "--n", str(n), "--delta", str(delta), "--beta",
                str(beta), "--k-max", str(k_max), "--out", str(out)] + extra
        if lengths:
            argv += ["--lengths", *map(repr, lengths)]
        assert main(argv) == 0
        opts = dict(zip(extra[::2], map(float, extra[1::2])))
        records = spectrum_table(
            NonlocalParams(n, delta, beta),
            Material(opts.get("--mu", 1.0), opts.get("--lambda-star", 0.0)),
            TorusSpec(lengths or (2.0 * np.pi,) * n), k_max)
        lines = [",".join(f"k{i + 1}" for i in range(n))
                 + ",nu_norm,lambda1,lambda2,multiplicity2"]
        for rec in records:
            cells = [str(ki) for ki in rec.k]
            cells += [f"{np.linalg.norm(rec.nu_k):.17g}",
                      f"{rec.lambda1:.17g}", f"{rec.lambda2:.17g}",
                      str(rec.multiplicity2)]
            lines.append(",".join(cells))
        assert len(lines) == (2 * k_max + 1) ** n + 1
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    # the bytes the command wrote when it formatted whole columns; a pin
    # on this platform's libm, like every byte-identity check here
    @pytest.mark.parametrize("args, digest", [
        (["--n", "3", "--delta", "2", "--beta", "3", "--k-max", "8"],
         "cdea85c577e472b21d02a18b6ffff708244460194487d4ede217366e0ad1898d"),
        (["--n", "2", "--delta", "0.7", "--beta", "1.5", "--mu", "1.3",
          "--lambda-star", "-0.4", "--lengths", "6.283185307179586", "2.9",
          "--k-max", "40"],
         "7278abe95258a71e486559916ddba086bc636ec42ad81263cea80b5aba252ea9"),
    ], ids=["cube-k8", "anisotropic-n2"])
    def test_output_bytes_are_pinned(self, args, digest, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_peak_is_the_arrays(self, tmp_path):
        # rows are formatted from one block at a time; whole-column lists
        # of the 68,921 modes took the command's traced peak to ~20 MB
        out = tmp_path / "spec.csv"
        argv = ["spectrum", "--n", "3", "--delta", "2", "--beta", "3",
                "--out", str(out), "--k-max"]
        assert main(argv + ["1"]) == 0
        gc.collect()
        tracemalloc.start()
        try:
            rc = main(argv + ["20"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and peak <= 13e6
        with open(out) as fh:
            assert sum(1 for _ in fh) == 41**3 + 1

    def test_more_dimensions_than_a_numpy_array(self, tmp_path):
        # numpy arrays have at most 64 dimensions; the box must not need one
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "65", "--delta", "1", "--beta", "1",
                     "--k-max", "0", "--out", str(out)]) == 0
        [row] = read_csv(out)
        assert [row[f"k{i}"] for i in range(1, 66)] == ["0"] * 65
        assert (row["nu_norm"], row["lambda1"], row["lambda2"],
                row["multiplicity2"]) == ("0", "0", "0", "64")

    def test_invalid_exponent_exit_code(self, tmp_path):
        rc = main(["spectrum", "--n", "2", "--delta", "0.5", "--beta", "4.0",
                   "--k-max", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
