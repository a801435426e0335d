import csv
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wmgtomo import cli
from wmgtomo.cli import (EXIT_ARG_ERROR, EXIT_NUMERICAL_ERROR, FORMAT_VERSION,
                         MAGIC, CliError, main, read_grid, setup_solve,
                         write_grid, write_pgm)
from wmgtomo.geometry import Geometry, build_projector
from wmgtomo.multilevel import build_wmg_hierarchy, wmg_preconditioner
from wmgtomo.phantom import add_noise, shepp_logan
from wmgtomo.solvers import (STATUS_BREAKDOWN, ConvergenceRecord,
                             SolverConfig, bicgstab_solve, normal_operator,
                             sirt_solve)


def run(*argv):
    return main([str(a) for a in argv])


def _no_projector(g):
    pytest.fail("the projector was built for arguments that must be refused")


class TestGridFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "grid.bin"
        values = np.linspace(-3, 7, 12)
        write_grid(path, values, 3, 4)
        data, rows, cols = read_grid(path)
        assert (rows, cols) == (3, 4)
        np.testing.assert_array_equal(data, values)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "grid.bin"
        write_grid(path, np.zeros(6), 2, 3)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert struct.unpack("<III", raw[4:16]) == (FORMAT_VERSION, 2, 3)
        assert len(raw) == 16 + 6 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\0" * 12)
        with pytest.raises(Exception):
            read_grid(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        write_grid(path, np.zeros(6), 2, 3)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(Exception):
            read_grid(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "ver.bin"
        raw = MAGIC + struct.pack("<III", 99, 1, 1) + b"\0" * 8
        path.write_bytes(raw)
        with pytest.raises(Exception):
            read_grid(path)

    def test_pgm_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.arange(4.0), 2, 2)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[-4:] == bytes([0, 85, 170, 255])


@st.composite
def grid_files(draw):
    """Header fields and payload bytes, mostly near a valid grid file."""
    magic = draw(st.sampled_from([MAGIC, b"WMGX"]))
    version = draw(st.sampled_from([FORMAT_VERSION, 0, 2]))
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    values = draw(st.lists(st.floats(width=64), min_size=rows * cols,
                           max_size=rows * cols))
    payload = struct.pack(f"<{len(values)}d", *values)
    # cut or extend the payload, also by counts that are not multiples of 8
    extra = draw(st.integers(-9, 9))
    payload = payload[:len(payload) + extra] if extra < 0 else \
        payload + draw(st.binary(min_size=extra, max_size=extra))
    raw = magic + struct.pack("<III", version, rows, cols) + payload
    # a truncated header
    cut = draw(st.sampled_from([None, 0, 3, 15]))
    return raw if cut is None else raw[:cut]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(raw=grid_files())
def test_read_grid_returns_finite_values_or_raises_cli_error(
        tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("grid") / "g.bin"
    path.write_bytes(raw)
    try:
        data, rows, cols = read_grid(path)
    except CliError:
        return
    assert data.dtype == np.float64
    assert data.shape == (rows * cols,)
    assert np.isfinite(data).all()


class TestPhantomCommand:
    def test_writes_grid_and_manifest(self, tmp_path):
        out = tmp_path / "ph.bin"
        assert run("phantom", "--n", 16, "--out", out) == 0
        data, rows, cols = read_grid(out)
        assert (rows, cols) == (16, 16)
        np.testing.assert_array_equal(data, shepp_logan(16))
        manifest = (tmp_path / "ph.bin.manifest").read_text()
        assert "command=phantom" in manifest
        assert "n=16" in manifest

    def test_pgm_preview(self, tmp_path):
        out = tmp_path / "ph.bin"
        pgm = tmp_path / "ph.pgm"
        assert run("phantom", "--n", 8, "--out", out, "--pgm", pgm) == 0
        assert pgm.read_bytes().startswith(b"P5\n8 8\n")


class TestProjectCommand:
    def test_project_shapes(self, tmp_path):
        ph = tmp_path / "ph.bin"
        sino = tmp_path / "sino.bin"
        run("phantom", "--n", 16, "--out", ph)
        assert run("project", "--image", ph, "--angles", 12,
                   "--detectors", 20, "--out", sino) == 0
        _, rows, cols = read_grid(sino)
        assert (rows, cols) == (12, 20)

    def test_noise_requires_seed(self, tmp_path):
        ph = tmp_path / "ph.bin"
        run("phantom", "--n", 8, "--out", ph)
        code = run("project", "--image", ph, "--angles", 4,
                   "--detectors", 8, "--noise", 0.01,
                   "--out", tmp_path / "s.bin")
        assert code == EXIT_ARG_ERROR

    def test_noiseless_runs_are_byte_identical(self, tmp_path):
        ph = tmp_path / "ph.bin"
        run("phantom", "--n", 16, "--out", ph)
        s1, s2 = tmp_path / "s1.bin", tmp_path / "s2.bin"
        run("project", "--image", ph, "--angles", 8, "--detectors", 16,
            "--out", s1)
        run("project", "--image", ph, "--angles", 8, "--detectors", 16,
            "--out", s2)
        assert s1.read_bytes() == s2.read_bytes()

    def test_seeded_noise_is_reproducible(self, tmp_path):
        ph = tmp_path / "ph.bin"
        run("phantom", "--n", 16, "--out", ph)
        s1, s2 = tmp_path / "s1.bin", tmp_path / "s2.bin"
        for s in (s1, s2):
            run("project", "--image", ph, "--angles", 8, "--detectors", 16,
                "--noise", 0.01, "--seed", 5, "--out", s)
        assert s1.read_bytes() == s2.read_bytes()

    def test_non_finite_noise_rejected(self, tmp_path):
        ph, sino = tmp_path / "ph.bin", tmp_path / "s.bin"
        run("phantom", "--n", 8, "--out", ph)
        code = run("project", "--image", ph, "--angles", 4, "--detectors", 8,
                   "--noise", "nan", "--seed", 5, "--out", sino)
        assert code == EXIT_ARG_ERROR
        assert not sino.exists()

    def test_non_square_image_rejected(self, tmp_path):
        img, sino = tmp_path / "img.bin", tmp_path / "s.bin"
        write_grid(img, np.ones(8 * 6), 8, 6)
        code = run("project", "--image", img, "--angles", 4,
                   "--detectors", 8, "--out", sino)
        assert code == EXIT_ARG_ERROR
        assert not sino.exists()

    def test_missing_file_is_arg_error(self, tmp_path):
        code = run("project", "--image", tmp_path / "nope.bin",
                   "--angles", 4, "--detectors", 8, "--out", tmp_path / "s")
        assert code == EXIT_ARG_ERROR


@pytest.fixture()
def small_problem(tmp_path):
    ph = tmp_path / "ph.bin"
    sino = tmp_path / "sino.bin"
    run("phantom", "--n", 16, "--out", ph)
    run("project", "--image", ph, "--angles", 24, "--detectors", 24,
        "--out", sino)
    return ph, sino, tmp_path


def read_manifest(path) -> dict:
    lines = Path(str(path) + ".manifest").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


@pytest.mark.parametrize("command,options", [
    pytest.param("reconstruct", ("--solver", "sirt", "--levels", 2),
                 id="levels"),
    pytest.param("spectrum", ("--operator", "normal", "--modes", 3),
                 id="modes-normal"),
    pytest.param("spectrum", ("--operator", "tg", "--modes", 3),
                 id="modes-tg"),
    pytest.param("spectrum", ("--operator", "wtg", "--modes", 3),
                 id="modes-wtg"),
    # the SIRT iteration matrix has no Tikhonov term to weight
    pytest.param("spectrum", ("--operator", "sirt-s", "--lambda", 5),
                 id="lambda-sirt-s"),
])
def test_option_without_its_mode_rejected(small_problem, monkeypatch,
                                          command, options):
    _, sino, tmp = small_problem
    monkeypatch.setattr(cli, "build_projector", _no_projector)
    out = tmp / "x"
    if command == "reconstruct":
        options += ("--sino", sino, "--iters", 5, "--log", tmp / "l")
    else:
        options += ("--modes-prefix", tmp / "mode_")
    code = run(command, "--n", 16, "--angles", 24, "--detectors", 24,
               *options, "--out", out)
    assert code == EXIT_ARG_ERROR
    assert not out.exists()
    assert not list(tmp.glob("mode_*"))


@pytest.mark.parametrize("command,options", [
    pytest.param("reconstruct", ("--solver", "wmg-bicgstab",
                                 "--multiplicative-wtg"),
                 id="multiplicative-wtg"),
    pytest.param("spectrum", ("--operator", "wtg", "--hybrid-wtg"),
                 id="hybrid-wtg"),
])
def test_removed_wtg_flag_refused(small_problem, command, options):
    # one WTG form is left, so argparse no longer knows these flags
    _, sino, tmp = small_problem
    out = tmp / "x"
    if command == "reconstruct":
        options += ("--sino", sino, "--iters", 5, "--log", tmp / "l")
    with pytest.raises(SystemExit) as exc:
        run(command, "--n", 16, "--angles", 24, "--detectors", 24,
            *options, "--out", out)
    assert exc.value.code == EXIT_ARG_ERROR
    assert not out.exists()


@pytest.mark.parametrize("command,options", [
    pytest.param("spectrum", ("--operator", "normal", "--out", "spec.csv"),
                 id="spectrum"),
    pytest.param("bench", ("--table", "1", "--levels", 2, "--iters-scale",
                           0.02, "--outdir", "bench"), id="bench"),
])
def test_zero_detectors_rejected(tmp_path, monkeypatch, command, options):
    # 0 is not "unset": Geometry refuses it instead of replacing it by --n
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_projector", _no_projector)
    assert run(command, "--n", 8, "--angles", 6, "--detectors", 0,
               *options) == EXIT_ARG_ERROR
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,options", [
    pytest.param("reconstruct", ("--sino", "s.bin", "--solver",
                                 "wmg-bicgstab", "--iters", 5, "--out", "x",
                                 "--log", "l"), id="reconstruct"),
    pytest.param("bench", ("--table", "1", "--outdir", "bench"), id="bench"),
])
def test_oversized_coarse_blocks_rejected_before_projecting(
        tmp_path, monkeypatch, command, options):
    # n=192 at --levels 2 leaves 96x96 coarsest images, whose dense
    # 9216x9216 blocks exceed the assembly guard
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "build_projector", _no_projector)
    write_grid("s.bin", np.zeros(24 * 24), 24, 24)
    assert run(command, "--n", 192, "--angles", 24, "--detectors", 24,
               "--levels", 2, *options) == EXIT_ARG_ERROR
    assert [p.name for p in tmp_path.iterdir()] == ["s.bin"]


SOLVERS = ["sirt", "bicgstab", "wmg-bicgstab"]


def _by_hand(solver, w, g, lam, b, cfg, x_ex):
    """The solve as assembled from the library calls, without setup_solve."""
    if solver == "sirt":
        return sirt_solve(w, b, lam, cfg, x_ex=x_ex)
    precond = (wmg_preconditioner(build_wmg_hierarchy(w, g, lam, 2))
               if solver == "wmg-bicgstab" else None)
    return bicgstab_solve(normal_operator(w, lam), w.T @ b, cfg,
                          precond=precond, x_ex=x_ex)


def _same_solve(got, want):
    """Equal images and equal records, wall-clock times excepted."""
    (x, rec), (x_want, rec_want) = got, want
    assert np.array_equal(x, x_want)
    fields = {k: v for k, v in vars(rec).items() if k != "seconds"}
    assert fields == {k: v for k, v in vars(rec_want).items()
                      if k != "seconds"}


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("solver", SOLVERS)
class TestSetupSolve:
    """setup_solve is the path reconstruct, bench and the acceptance gate
    share; it must solve exactly as the library calls do by hand."""

    CFG = SolverConfig(max_iterations=12)

    def test_equals_the_hand_assembled_solve(self, w16, phantom16, solver,
                                             lam):
        # (16, 15, 6)'s boundary rays break the F/R symmetry, so its coarse
        # Grams keep the single N-by-N factor; they are singular at lam = 0
        scans = [w16]
        if lam:
            g = Geometry(16, 15, 6)
            scans.append((g, build_projector(g)))
        for g, w in scans:
            b = w @ phantom16
            _same_solve(
                setup_solve(solver, w, g, lam, 2)(b, self.CFG, phantom16),
                _by_hand(solver, w, g, lam, b, self.CFG, phantom16))

    def test_one_setup_serves_two_sinograms(self, w16, phantom16, solver,
                                            lam):
        g, w = w16
        clean = w @ phantom16
        solve = setup_solve(solver, w, g, lam, 2)
        for b in (clean, add_noise(clean, 0.01, 11)):
            _same_solve(solve(b, self.CFG, phantom16),
                        setup_solve(solver, w, g, lam, 2)(b, self.CFG,
                                                          phantom16))


class TestReconstructCommand:
    def test_sirt_reconstruction_with_log(self, small_problem):
        ph, sino, tmp = small_problem
        out, log = tmp / "x.bin", tmp / "conv.csv"
        assert run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "sirt", "--iters", 30,
                   "--xexact", ph, "--out", out, "--log", log) == 0
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 31
        assert rows[0]["iter"] == "0" and rows[0]["rel_res"] == "1.0"
        assert float(rows[-1]["rel_err_l2"]) < float(rows[0]["rel_err_l2"])
        assert read_manifest(out)["levels"] == ""

    def test_wmg_bicgstab_converges(self, small_problem):
        ph, sino, tmp = small_problem
        out, log = tmp / "x.bin", tmp / "conv.csv"
        assert run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "wmg-bicgstab",
                   "--levels", 2, "--lambda", 1.0, "--iters", 30,
                   "--xexact", ph, "--out", out, "--log", log) == 0
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["rel_err_l2"]) < 0.2
        assert read_manifest(out)["levels"] == "2"
        # without --levels the manifest records the default that was built
        out3 = tmp / "x3.bin"
        assert run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "wmg-bicgstab",
                   "--lambda", 1.0, "--iters", 1, "--out", out3,
                   "--log", tmp / "conv3.csv") == 0
        assert read_manifest(out3)["levels"] == "3"

    def test_pgm_preview(self, small_problem):
        _, sino, tmp = small_problem
        pgm = tmp / "x.pgm"
        assert run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "bicgstab", "--iters", 3,
                   "--out", tmp / "x.bin", "--log", tmp / "l",
                   "--pgm", pgm) == 0
        header = b"P5\n16 16\n255\n"
        data = pgm.read_bytes()
        assert data.startswith(header)
        assert len(data) == len(header) + 16 * 16

    def test_iters_zero_writes_zero_image(self, small_problem):
        ph, sino, tmp = small_problem
        out, log = tmp / "x.bin", tmp / "conv.csv"
        for solver in ("sirt", "bicgstab", "wmg-bicgstab"):
            assert run("reconstruct", "--sino", sino, "--n", 16,
                       "--angles", 24, "--detectors", 24, "--solver", solver,
                       "--iters", 0, "--xexact", ph, "--out", out,
                       "--log", log) == 0
            data, _, _ = read_grid(out)
            np.testing.assert_array_equal(data, 0.0)
            with open(log) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 1
            assert rows[0]["iter"] == "0" and rows[0]["rel_res"] == "1.0"
            assert rows[0]["rel_err_l2"] == rows[0]["rel_err_linf"] == "1.0"
            assert read_manifest(out)["status"] == "skipped"

    @pytest.mark.parametrize("solver", ["sirt", "bicgstab", "wmg-bicgstab"])
    def test_tolerance_stops_converged(self, small_problem, solver):
        _, sino, tmp = small_problem
        out, log = tmp / "x.bin", tmp / "conv.csv"
        assert run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", solver, "--iters", 100,
                   "--tol", 0.05, "--out", out, "--log", log) == 0
        assert read_manifest(out)["status"] == "converged"
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) < 101
        assert float(rows[-1]["rel_res"]) < 0.05

    @pytest.mark.parametrize("command,options", [
        pytest.param("reconstruct", ("--solver", "wmg-bicgstab", "--levels",
                                     2, "--lambda", 1.0, "--iters", 2),
                     id="wmg-bicgstab"),
        pytest.param("reconstruct", ("--solver", "bicgstab", "--iters", 2),
                     id="bicgstab"),
        pytest.param("reconstruct", ("--solver", "sirt", "--iters", 2),
                     id="sirt"),
        pytest.param("project", (), id="project"),
        pytest.param("bench", ("--table", "1", "--levels", 2,
                               "--iters-scale", 0.02), id="bench"),
        pytest.param("spectrum", ("--operator", "normal"), id="spectrum"),
    ])
    def test_memory_preflight_refuses_before_projecting(
            self, small_problem, monkeypatch, command, options):
        # 16^2, 24 x 24 rays: the projector build's 34 bytes for each of
        # 576 * 32 entries, 626,688 bytes, exceed W's 221,184 plus the
        # five dense 64^2 blocks of a levels-2 hierarchy
        ph, sino, tmp = small_problem
        argv = {"reconstruct": ("--sino", sino, "--n", 16, "--log", tmp / "l"),
                "project": ("--image", ph),
                "bench": ("--n", 16),
                "spectrum": ("--n", 16)}[command]
        argv += ("--angles", 24, "--detectors", 24, *options,
                 "--outdir" if command == "bench" else "--out")
        monkeypatch.setattr(cli, "mem_available", lambda: 626_687)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_projector", _no_projector)
            assert run(command, *argv, tmp / "refused") == EXIT_ARG_ERROR
        assert not (tmp / "refused").exists()
        for available in (626_688, None):
            monkeypatch.setattr(cli, "mem_available", lambda: available)
            assert run(command, *argv, tmp / "out") == 0

    def test_memory_estimate_covers_the_benchmark_peak(self, monkeypatch):
        # 160^2, 400 x 160 rays, levels 3, the scan whose wmg-bicgstab run
        # peaks at 619 MB RSS: W's 245,760,000 bytes, twice that for the
        # level-2 factors and 17 dense 1600^2 blocks come to 1,085,440,000
        # bytes (1035 MB, 1.67 times the peak), computed without projecting
        g = Geometry(160, 160, 400)
        monkeypatch.setattr(cli, "mem_available", lambda: 619 * 2 ** 20)
        with pytest.raises(CliError, match="needs about 1035 MB"):
            cli.check_memory(g, 3)
        monkeypatch.setattr(cli, "mem_available", lambda: 1_085_440_000)
        cli.check_memory(g, 3)

    def test_memory_preflight_reads_meminfo(self):
        available = cli.mem_available()
        assert available is None or available > 0

    def test_sinogram_shape_mismatch_rejected(self, small_problem):
        _, sino, tmp = small_problem
        code = run("reconstruct", "--sino", sino, "--n", 16, "--angles", 10,
                   "--detectors", 24, "--solver", "sirt", "--iters", 5,
                   "--out", tmp / "x", "--log", tmp / "l")
        assert code == EXIT_ARG_ERROR

    def test_nan_sinogram_rejected_without_output(self, small_problem):
        _, sino, tmp = small_problem
        values, rows, cols = read_grid(sino)
        values[7] = np.nan
        write_grid(sino, values, rows, cols)
        out = tmp / "x.bin"
        code = run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "bicgstab", "--iters", 5,
                   "--out", out, "--log", tmp / "l")
        assert code == EXIT_ARG_ERROR
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("solver", ["sirt", "bicgstab", "wmg-bicgstab"])
    def test_overflowing_sinogram_is_numerical_error(self, small_problem,
                                                     solver):
        # 1e308 is finite, so read_grid accepts it, but the residual norm
        # overflows, already at iterate 0
        _, sino, tmp = small_problem
        values, rows, cols = read_grid(sino)
        values[7] = 1e308
        write_grid(sino, values, rows, cols)
        out = tmp / "x.bin"
        for iters in (5, 0):
            code = run("reconstruct", "--sino", sino, "--n", 16,
                       "--angles", 24, "--detectors", 24, "--solver", solver,
                       "--iters", iters, "--out", out, "--log", tmp / "l")
            assert code == EXIT_NUMERICAL_ERROR
            assert not out.exists()

    def test_breakdown_is_numerical_error(self, small_problem, monkeypatch,
                                          capsys):
        _, sino, tmp = small_problem

        def breaks_down(op, f, cfg, precond=None, x_ex=None):
            record = ConvergenceRecord(status=STATUS_BREAKDOWN)
            record.log(0, 1.0, None, None, 0.0)
            record.log(1, 0.5, None, None, 0.0)
            return np.zeros_like(f), record

        monkeypatch.setattr(cli, "bicgstab_solve", breaks_down)
        out = tmp / "x.bin"
        assert run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "bicgstab", "--iters", 5,
                   "--out", out, "--log", tmp / "l") == EXIT_NUMERICAL_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == (
            "numerical failure: bicgstab stopped with status breakdown "
            "after iteration 1\n")

    @pytest.mark.parametrize("option,value,iters", [
        pytest.param("--lambda", "nan", 5, id="nan"),
        pytest.param("--lambda", "inf", 5, id="inf"),
        # --iters 0 checks lambda and the tolerance the same way
        pytest.param("--lambda", "nan", 0, id="nan-iters0"),
        pytest.param("--tol", "nan", 5, id="tol-nan"),
        pytest.param("--tol", "nan", 0, id="tol-nan-iters0"),
    ])
    def test_non_finite_lambda_rejected(self, small_problem, option, value,
                                        iters):
        _, sino, tmp = small_problem
        out = tmp / "x.bin"
        code = run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "bicgstab", "--iters", iters,
                   option, value, "--out", out, "--log", tmp / "l")
        assert code == EXIT_ARG_ERROR
        assert not out.exists()

    def test_xexact_size_mismatch_rejected_before_projecting(
            self, small_problem, monkeypatch):
        _, sino, tmp = small_problem
        monkeypatch.setattr(cli, "build_projector", _no_projector)
        ph8, out = tmp / "ph8.bin", tmp / "x.bin"
        run("phantom", "--n", 8, "--out", ph8)
        code = run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "sirt", "--iters", 5,
                   "--xexact", ph8, "--out", out, "--log", tmp / "l")
        assert code == EXIT_ARG_ERROR
        assert not out.exists()

    def test_zero_xexact_rejected_before_projecting(self, small_problem,
                                                    monkeypatch):
        # relative errors against an all-zero image are undefined; refused
        # before the projector and the hierarchy are built
        _, sino, tmp = small_problem
        monkeypatch.setattr(cli, "build_projector", _no_projector)
        zero, out = tmp / "zero.bin", tmp / "x.bin"
        write_grid(zero, np.zeros(256), 16, 16)
        code = run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "wmg-bicgstab",
                   "--iters", 5, "--xexact", zero, "--out", out,
                   "--log", tmp / "l")
        assert code == EXIT_ARG_ERROR
        assert not out.exists()

    def test_negative_iters_rejected_before_projecting(self, small_problem,
                                                       monkeypatch):
        _, sino, tmp = small_problem
        monkeypatch.setattr(cli, "build_projector", _no_projector)
        out = tmp / "x.bin"
        code = run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "sirt", "--iters", -1,
                   "--out", out, "--log", tmp / "l")
        assert code == EXIT_ARG_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("levels", [0, 1, -2, 6])
    def test_invalid_levels_rejected_before_projecting(
            self, small_problem, monkeypatch, levels):
        # 16 is not divisible by 2^(6-1); 0 used to run 3 levels
        _, sino, tmp = small_problem
        monkeypatch.setattr(cli, "build_projector", _no_projector)
        out = tmp / "x.bin"
        code = run("reconstruct", "--sino", sino, "--n", 16, "--angles", 24,
                   "--detectors", 24, "--solver", "wmg-bicgstab",
                   "--levels", levels, "--iters", 5, "--out", out,
                   "--log", tmp / "l")
        assert code == EXIT_ARG_ERROR
        assert not out.exists()

    def test_singular_coarse_problem_is_numerical_error(self, tmp_path):
        # a single axis-aligned angle leaves the oscillatory coarse Gram
        # matrices singular, which must surface as a numerical failure
        ph = tmp_path / "ph.bin"
        sino = tmp_path / "sino.bin"
        run("phantom", "--n", 4, "--out", ph)
        run("project", "--image", ph, "--angles", 1, "--detectors", 4,
            "--out", sino)
        code = run("reconstruct", "--sino", sino, "--n", 4, "--angles", 1,
                   "--detectors", 4, "--solver", "wmg-bicgstab",
                   "--levels", 2, "--iters", 5,
                   "--out", tmp_path / "x", "--log", tmp_path / "l")
        assert code == EXIT_NUMERICAL_ERROR


class TestSpectrumCommand:
    def test_sirt_spectrum_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--n", 16, "--angles", 24, "--detectors", 24,
                   "--operator", "sirt-s", "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 256
        mags = [float(r["magnitude"]) for r in rows]
        assert mags == sorted(mags)

    def test_wtg_kappa_in_manifest(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--n", 16, "--angles", 24, "--detectors", 24,
                   "--operator", "wtg", "--lambda", 1.0, "--out", out) == 0
        assert "kappa" in capsys.readouterr().out
        manifest = (tmp_path / "spec.csv.manifest").read_text()
        assert "condition_number=" in manifest

    @pytest.mark.parametrize("operator", ["normal", "sirt-s"])
    def test_dense_guard(self, tmp_path, monkeypatch, operator):
        # N = 82^2 = 6724 exceeds the 6400 guard; refused before projecting
        monkeypatch.setattr(cli, "build_projector", _no_projector)
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--n", 82, "--angles", 4, "--operator",
                   operator, "--out", out) == EXIT_ARG_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("operator,lam", [
        ("sirt-s", "nan"), ("normal", "nan"), ("tg", "-1"), ("wtg", "inf")])
    def test_bad_lambda_rejected_before_projecting(self, tmp_path,
                                                   monkeypatch, operator,
                                                   lam):
        monkeypatch.setattr(cli, "build_projector", _no_projector)
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--n", 8, "--angles", 6, "--operator",
                   operator, "--lambda", lam, "--out", out) == EXIT_ARG_ERROR
        assert not out.exists()

    def test_eigenmode_export(self, tmp_path):
        out = tmp_path / "spec.csv"
        prefix = tmp_path / "mode_"
        assert run("spectrum", "--n", 8, "--angles", 12, "--operator",
                   "sirt-s", "--modes", 2, "--modes-prefix", prefix,
                   "--out", out) == 0
        for j in range(2):
            assert (tmp_path / f"mode_{j:03d}.pgm").exists()

    def test_negative_mode_count_rejected(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--n", 6, "--angles", 12, "--operator",
                   "sirt-s", "--modes", -1, "--modes-prefix",
                   tmp_path / "mode_", "--out", out) == EXIT_ARG_ERROR
        assert not out.exists()
        assert not list(tmp_path.glob("mode_*"))

    def test_mode_count_above_pixel_count_rejected(self, tmp_path):
        # a 4x4 image has 16 eigenmodes
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--n", 4, "--angles", 4, "--operator",
                   "sirt-s", "--modes", 100, "--modes-prefix",
                   tmp_path / "mode_", "--out", out) == EXIT_ARG_ERROR
        assert not out.exists()
        assert not list(tmp_path.glob("mode_*"))


class TestBenchCommand:
    def test_smoke_and_determinism(self, tmp_path):
        args = ["bench", "--table", "3", "--n", 16, "--angles", 24,
                "--detectors", 24, "--levels", 2, "--iters-scale", 0.02]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run(*args, "--outdir", out1) == 0
        assert run(*args, "--outdir", out2) == 0

        def numerical_rows(path):
            with open(path / "table3.csv") as fh:
                rows = list(csv.reader(fh))
            # drop the wall-clock column, keep everything else verbatim
            return [[c for i, c in enumerate(r) if i != 2] for r in rows]

        assert numerical_rows(out1) == numerical_rows(out2)

    def test_table1_noise_free(self, tmp_path):
        assert run("bench", "--table", "1", "--n", 16, "--angles", 24,
                   "--detectors", 24, "--levels", 2, "--iters-scale", 0.02,
                   "--outdir", tmp_path) == 0
        with open(tmp_path / "table1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["solver"] for r in rows] == ["sirt", "bicgstab",
                                               "wmg-bicgstab"]
        manifest = (tmp_path / "table1.csv.manifest").read_text()
        assert "noise=0.0" in manifest

    @pytest.mark.parametrize("n,levels", [(18, 3), (16, 1), (16, 0)])
    def test_invalid_levels_rejected_before_any_run(self, tmp_path,
                                                    monkeypatch, n, levels):
        monkeypatch.setattr(cli, "build_projector", _no_projector)
        outdir = tmp_path / "bench"
        assert run("bench", "--table", "1", "--n", n, "--angles", 24,
                   "--levels", levels, "--iters-scale", 0.02,
                   "--outdir", outdir) == EXIT_ARG_ERROR
        assert not outdir.exists()

    def test_zero_angles_rejected_before_outdir(self, tmp_path):
        outdir = tmp_path / "bench"
        assert run("bench", "--table", "1", "--n", 16, "--angles", 0,
                   "--levels", 2, "--outdir", outdir) == EXIT_ARG_ERROR
        assert not outdir.exists()

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_bad_iters_scale_rejected(self, tmp_path, scale):
        outdir = tmp_path / "bench"
        assert run("bench", "--table", "1", "--n", 16, "--angles", 24,
                   "--detectors", 24, "--iters-scale", scale,
                   "--outdir", outdir) == EXIT_ARG_ERROR
        assert not outdir.exists()
