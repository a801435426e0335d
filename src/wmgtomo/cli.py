"""Command-line driver: phantom generation, projection, reconstruction,
spectral analysis, and benchmark table reproduction.

File format for images and sinograms: 16-byte header (magic "WMGT",
format version, rows, cols as little-endian uint32) followed by row-major
little-endian float64 values. Every output is accompanied by a flat
key=value manifest; re-running from the same parameters reproduces all
non-timing outputs bit-for-bit.

Exit codes: 0 success, 2 argument/file errors (non-finite input values
included), 3 numerical failure (a solver's breakdown or non-finite stop
included).
"""

from __future__ import annotations

import argparse
import csv
import struct
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import Geometry, build_projector
from .multilevel import build_wmg_hierarchy, check_levels, wmg_preconditioner
from .phantom import add_noise, shepp_logan
from .solvers import (STATUS_BREAKDOWN, STATUS_NON_FINITE,
                      ConvergenceRecord, SolverConfig, bicgstab_solve,
                      check_dense_dim, check_nonneg, normal_operator,
                      sirt_solve)
from .spectral import spectrum
from .sparse_kernels import NotPositiveDefiniteError

MAGIC = b"WMGT"
FORMAT_VERSION = 1

EXIT_ARG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

# The bench tables' reference runs: solver -> (iterations, relative L2
# error, lambda); the pass/fail window is +-30% of the reference error.
TABLE_TARGETS = {
    "1": {"sirt": (1000, 0.1015, 0.0), "bicgstab": (300, 0.0166, 0.0),
          "wmg-bicgstab": (50, 0.0152, 0.0)},
    "2": {"bicgstab": (300, 0.0180, 0.4), "wmg-bicgstab": (50, 0.0165, 0.4)},
    "3": {"sirt": (1000, 0.1385, 0.001), "bicgstab": (100, 0.1074, 10.0),
          "wmg-bicgstab": (14, 0.1083, 10.0)},
}
DEFAULT_BENCH_SEED = 11


class CliError(Exception):
    """User-facing argument or file error (exit code 2)."""


def check_output_dirs(*paths):
    """Refuse, before any work, an output path not in an existing directory."""
    for path in filter(None, paths):
        if not Path(path).parent.is_dir():
            raise CliError(f"{path} is not in an existing directory")


def write_grid(path, values: np.ndarray, rows: int, cols: int):
    values = np.ascontiguousarray(values, dtype="<f8").ravel()
    if values.size != rows * cols:
        raise CliError(f"grid size {values.size} != {rows}x{cols}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, rows, cols))
        fh.write(values.tobytes())


def read_grid(path) -> tuple[np.ndarray, int, int]:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != MAGIC:
            raise CliError(f"{path}: not a WMGT grid file")
        version, rows, cols = struct.unpack("<III", header[4:])
        if version != FORMAT_VERSION:
            raise CliError(f"{path}: unsupported format version {version}")
        payload = fh.read()
    if len(payload) != 8 * rows * cols:
        raise CliError(f"{path}: payload is {len(payload)} bytes, "
                       f"expected {8 * rows * cols} for {rows}x{cols}")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(data).all():
        raise CliError(f"{path}: payload holds NaN or infinite values")
    return data, rows, cols


def write_pgm(path, values: np.ndarray, rows: int, cols: int):
    """8-bit PGM with linear min-max scaling, for visual inspection."""
    img = np.asarray(values, dtype=np.float64).reshape(rows, cols)
    lo, hi = img.min(), img.max()
    scaled = np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)
    bytes_ = (scaled * 255).round().astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode())
        fh.write(bytes_.tobytes())


def write_manifest(out, command: str, entries: dict):
    """The key=value manifest of output `out`, written next to it: the
    software, version, command and timestamp, then `entries` in order."""
    entries = {"software": "wmgtomo", "version": __version__,
               "command": command,
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **entries}
    lines = [f"{k}={v}" for k, v in entries.items()]
    Path(f"{out}.manifest").write_text("\n".join(lines) + "\n")


def write_csv(path, header: list, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_convergence_csv(path, record: ConvergenceRecord):
    """Columns iter, rel_res, rel_err_l2, rel_err_linf, seconds; error
    fields are blank when no exact image was supplied."""
    write_csv(path, ["iter", "rel_res", "rel_err_l2", "rel_err_linf",
                     "seconds"],
              ([k, repr(res), "" if e2 is None else repr(e2),
                "" if einf is None else repr(einf), repr(sec)]
               for k, res, e2, einf, sec in zip(
                   record.iterations, record.rel_residual, record.rel_err_l2,
                   record.rel_err_linf, record.seconds)))


def cmd_phantom(args) -> int:
    check_output_dirs(args.out, args.pgm)
    x = shepp_logan(args.n)
    write_grid(args.out, x, args.n, args.n)
    if args.pgm:
        write_pgm(args.pgm, x, args.n, args.n)
    write_manifest(args.out, "phantom", {"n": args.n, "out": args.out})
    return 0


def cmd_project(args) -> int:
    check_output_dirs(args.out)
    check_nonneg(args.noise, "--noise")
    x, rows, cols = read_grid(args.image)
    if rows != cols:
        raise CliError("input image must be square")
    if args.noise and args.seed is None:
        raise CliError("--noise requires an explicit --seed")
    g = Geometry(rows, args.detectors, args.angles)
    check_memory(g)
    w = build_projector(g)
    b = w @ x
    if args.noise:
        b = add_noise(b, args.noise, args.seed)
    write_grid(args.out, b, args.angles, args.detectors)
    write_manifest(args.out, "project", dict(
        image=args.image, n=rows, angles=args.angles,
        detectors=args.detectors, noise=args.noise or 0.0,
        **(dict(seed=args.seed, rng="PCG64") if args.noise else {})))
    return 0


def mem_available():
    """MemAvailable in bytes from /proc/meminfo, or None where that file
    cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def check_memory(g: Geometry, levels: int | None = None,
                 dense_matrices: int = 0):
    """Refuse a run on scan g whose estimated peak memory exceeds what the
    system has available. A line crosses at most 2s cells of an s-by-s
    grid, so W holds at most 2n entries per ray, at 12 bytes each. The peak
    is at least the projector build, 24 bytes per entry: the traced blocks
    and the joined W are alive together (tracemalloc peaks at 2.00 W on
    160^2, 400 angles, 160 detectors and 2.22 W on 16^2, 24 angles, 24
    detectors; RSS rises by 1.2-1.35 W, since the joined arrays are touched
    only as the blocks are freed). With
    `dense_matrices`, it is at least W and that many float64 N-by-N
    matrices too: `spectrum` passes 6, the most tracemalloc saw beyond W on
    40^2, 100 angles, 40 detectors, in multiples of 8 N^2 bytes (wtg 6.0,
    sirt-s with eigenvectors 5.0, tg 4.5, normal and sirt-s 2.46). With
    `levels`, it is at least a wmg-bicgstab hierarchy too: W, the internal
    nodes' factors (level l's add at most 2^(l-1) W), 8 N_c^2 bytes of
    unsplit dense factor for each of the 4^(levels-1) coarsest nodes of
    side N_c, and one more for the Gram being built."""
    n = g.n_pixels_per_side
    entries = g.n_data * 2 * n
    need = max(24 * entries, 12 * entries + dense_matrices * 8 * n ** 4)
    if levels is not None:
        dense = 8 * ((n >> (levels - 1)) ** 2) ** 2
        need = max(need, 12 * entries * (2 ** (levels - 1) - 1)
                   + dense * (4 ** (levels - 1) + 1))
    available = mem_available()
    if available is not None and need > available:
        raise CliError(f"this run needs about {need / 2 ** 20:.0f} MB, "
                       f"but only {available / 2 ** 20:.0f} MB is available")


def setup_solve(solver, w, g, lam, levels):
    """Set `solver` up once on scan g's projector w at Tikhonov weight lam
    (for wmg-bicgstab, with a `levels`-level V-cycle). Returns
    solve(b, cfg, x_ex) -> (x, record) for any sinogram b of the scan."""
    if solver == "sirt":
        return lambda b, cfg, x_ex=None: sirt_solve(w, b, lam, cfg, x_ex=x_ex)
    op = normal_operator(w, lam)
    precond = (wmg_preconditioner(build_wmg_hierarchy(w, g, lam, levels))
               if solver == "wmg-bicgstab" else None)
    return lambda b, cfg, x_ex=None: bicgstab_solve(
        op, w.T @ b, cfg, precond=precond, x_ex=x_ex)


def cmd_reconstruct(args) -> int:
    check_output_dirs(args.out, args.log, args.pgm)
    b, rows, cols = read_grid(args.sino)
    if rows != args.angles or cols != args.detectors:
        raise CliError(
            f"sinogram is {rows}x{cols}, geometry says "
            f"{args.angles}x{args.detectors}")
    if args.solver != "wmg-bicgstab" and args.levels is not None:
        raise CliError("--levels requires --solver wmg-bicgstab")
    levels = 3 if args.levels is None else args.levels
    g = Geometry(args.n, args.detectors, args.angles)
    if args.solver == "wmg-bicgstab":
        check_levels(args.n, levels)
    check_memory(g, levels if args.solver == "wmg-bicgstab" else None)
    cfg = SolverConfig(max_iterations=args.iters, residual_tolerance=args.tol)
    check_nonneg(args.regularization, "lambda")
    x_ex = None
    if args.xexact:
        x_ex, xr, xc = read_grid(args.xexact)
        if xr != args.n or xc != args.n:
            raise CliError("--xexact image does not match --n")
        if not x_ex.any():
            raise CliError("--xexact image is all zero, so relative errors "
                           "are undefined")
    w = build_projector(g)
    solve = setup_solve(args.solver, w, g, args.regularization, levels)
    x, record = solve(b, cfg, x_ex)
    if record.status in (STATUS_NON_FINITE, STATUS_BREAKDOWN):
        print(f"numerical failure: {args.solver} stopped with status "
              f"{record.status} after iteration {record.iterations[-1]}",
              file=sys.stderr)
        return EXIT_NUMERICAL_ERROR

    write_grid(args.out, x, args.n, args.n)
    write_convergence_csv(args.log, record)
    if args.pgm:
        write_pgm(args.pgm, x, args.n, args.n)
    write_manifest(args.out, "reconstruct", dict(
        sino=args.sino, n=args.n, angles=args.angles,
        detectors=args.detectors, solver=args.solver, iters=args.iters,
        tol=args.tol, regularization_lambda=args.regularization,
        levels=levels if args.solver == "wmg-bicgstab" else "",
        status=record.status if args.iters else "skipped"))
    return 0


def cmd_spectrum(args) -> int:
    check_nonneg(args.modes, "--modes")
    check_nonneg(args.regularization, "lambda")
    if args.modes and args.operator != "sirt-s":
        raise CliError("--modes requires --operator sirt-s")
    check_output_dirs(args.out, args.modes and f"{args.modes_prefix}000.pgm")
    if args.modes > args.n ** 2:
        raise CliError(f"--modes {args.modes} exceeds the {args.n ** 2} "
                       f"eigenmodes of a {args.n}-by-{args.n} image")
    check_dense_dim(args.n ** 2)  # every operator is dense n^2-by-n^2
    if args.operator in ("tg", "wtg") and args.n % 2:
        raise CliError(f"--operator {args.operator} halves the image once, "
                       f"so --n must be even, got {args.n}")
    g = Geometry(args.n, args.n if args.detectors is None
                 else args.detectors, args.angles)
    check_memory(g, dense_matrices=6)
    w = build_projector(g)
    spec = spectrum(w, args.operator, args.regularization, bool(args.modes))
    write_csv(args.out, ["index", "real", "imag", "magnitude"],
              ([i, repr(float(v.real)), repr(float(v.imag)),
                repr(float(abs(v)))] for i, v in enumerate(spec.eigenvalues)))
    for j in range(args.modes):
        vec = spec.eigenvectors[:, j].real
        # fix the sign: largest-magnitude component positive
        if vec[np.argmax(np.abs(vec))] < 0:
            vec = -vec
        write_pgm(f"{args.modes_prefix}{j:03d}.pgm", vec, args.n, args.n)
    manifest = dict(n=args.n, angles=args.angles, detectors=g.n_detectors,
                    operator=args.operator,
                    regularization_lambda=args.regularization)
    if spec.condition_number is not None:
        manifest["condition_number"] = repr(spec.condition_number)
        print(f"kappa = {spec.condition_number:.4e}")
    write_manifest(args.out, "spectrum", manifest)
    return 0


def cmd_bench(args) -> int:
    if not 0 < args.iters_scale < np.inf:
        raise CliError(f"--iters-scale must be finite and positive, got "
                       f"{args.iters_scale}")
    check_levels(args.n, args.levels)  # every table has a wmg-bicgstab row
    table = args.table
    n = args.n
    g = Geometry(n, n if args.detectors is None else args.detectors,
                 args.angles)
    check_memory(g, args.levels)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    w = build_projector(g)
    x_ex = shepp_logan(n)
    b = w @ x_ex
    noise = 0.01 if table == "3" else 0.0
    if noise:
        b = add_noise(b, noise, args.seed)

    rows = []
    for solver, (iters, target_l2, lam) in TABLE_TARGETS[table].items():
        budget = max(1, int(round(iters * args.iters_scale)))
        cfg = SolverConfig(max_iterations=budget)
        t0 = time.perf_counter()
        _, record = setup_solve(solver, w, g, lam, args.levels)(b, cfg, x_ex)
        elapsed = time.perf_counter() - t0
        rel_l2, rel_linf = record.rel_err_l2[-1], record.rel_err_linf[-1]
        low, high = 0.7 * target_l2, 1.3 * target_l2
        ok = "yes" if low <= rel_l2 <= high else "no"
        rows.append([solver, budget, f"{elapsed:.3f}", repr(rel_l2),
                     repr(rel_linf), repr(target_l2), ok])

    csv_path = outdir / f"table{table}.csv"
    write_csv(csv_path, ["solver", "iterations", "seconds", "rel_l2",
                         "rel_linf", "ref_rel_l2", "within_window"], rows)
    write_manifest(csv_path, "bench", dict(
        table=table, n=n, angles=args.angles, detectors=g.n_detectors,
        levels=args.levels, iters_scale=args.iters_scale, noise=noise,
        **(dict(seed=args.seed, rng="PCG64") if noise else {})))
    for row in rows:
        print(" ".join(str(v) for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmgtomo",
        description="Algebraic tomographic reconstruction with wavelet-based "
                    "multigrid preconditioned Krylov solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate the Shepp-Logan test image")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", help="also write an 8-bit PGM preview")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("project", help="forward-project an image")
    p.add_argument("--image", required=True)
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--detectors", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("reconstruct", help="solve the reconstruction problem")
    p.add_argument("--sino", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--detectors", type=int, required=True)
    p.add_argument("--solver", required=True,
                   choices=["sirt", "bicgstab", "wmg-bicgstab"])
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--lambda", dest="regularization", type=float, default=0.0)
    p.add_argument("--levels", type=int)
    p.add_argument("--xexact")
    p.add_argument("--out", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--pgm")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("spectrum", help="eigenvalue analysis of small operators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--detectors", type=int)
    p.add_argument("--operator", required=True,
                   choices=["sirt-s", "normal", "tg", "wtg"])
    p.add_argument("--lambda", dest="regularization", type=float, default=0.0)
    p.add_argument("--modes", type=int, default=0,
                   help="export this many eigenmode images (sirt-s only)")
    p.add_argument("--modes-prefix", default="mode_")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bench", help="reproduce a benchmark table")
    p.add_argument("--table", required=True, choices=["1", "2", "3"])
    p.add_argument("--outdir", required=True)
    p.add_argument("--n", type=int, default=160)
    p.add_argument("--angles", type=int, default=400)
    p.add_argument("--detectors", type=int)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--iters-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=DEFAULT_BENCH_SEED)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotPositiveDefiniteError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARG_ERROR


if __name__ == "__main__":
    sys.exit(main())
