"""Reconstruction benchmark: sinogram file in, image file out.

    python3 perfbench/run.py --workload wmg-2pct --seed 11 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout. The benchmark makes its inputs with
`wmgtomo phantom` and `wmgtomo project` (the seed seeds the noise of noisy
workloads), outside any timing, and keeps them in .perfbench_work/ for later
runs of the same source tree. It then runs `wmgtomo reconstruct` as a
separate cold process, each repetition in a fresh empty directory, as many
times as fit in `--seconds` (at least once), and checks every repetition:
exit code 0, finite pixels, the expected manifest status, the target error
reached within the budget, a final error recomputed from the image that
matches the log, and image bytes equal to every other run of the workload
on the same source tree and inputs.

With `--trace 0` it reports the end-to-end metrics as medians over the
repetitions. With `--trace 1` each repetition is an untraced process plus a
traced one (perfbench/spans.py), whose image must be byte-identical, and it
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import spans
import stats
from workloads import (DEFAULT_SEED, END_TO_END, EXPECTED_STATUS, PER_LAYER,
                       WORKLOADS, Workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; children are killed at this deadline
RUN_BUDGET_S = 170.0
# the log's final error and the one recomputed from the image agree to
# rounding: both are norms of the same float64 vectors
LOG_AGREEMENT_RTOL = 1e-9


class BenchError(Exception):
    """The benchmark cannot run here: no source tree, or no inputs."""


def child_env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp)
    return env


def run_child(cmd, cwd: Path, env: dict, deadline: float, log: Path):
    """Run one process to completion; (exit code, wall s, peak RSS MB).

    The wall time runs from launch to exit. The child is reaped with wait4,
    which gives its own ru_maxrss, and is killed at the deadline. Its
    output goes to `log`.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        # Popen.kill does nothing once the child is reaped
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_grid(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != b"WMGT":
        raise ValueError(f"{path.name}: not a WMGT grid file")
    version, rows, cols = np.frombuffer(raw[4:16], dtype="<u4")
    data = np.frombuffer(raw[16:], dtype="<f8")
    if version != 1 or data.size != int(rows) * int(cols):
        raise ValueError(f"{path.name}: bad header or payload")
    return data


def read_log(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows.append({"iter": int(row["iter"]),
                     "rel_err_l2": float(row["rel_err_l2"]),
                     "seconds": float(row["seconds"])})
    if not rows:
        raise ValueError(f"{path.name}: no iterations logged")
    return rows


def read_manifest(path: Path) -> dict:
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


def tree_digest(root: Path) -> str:
    """Digest of every file under src/, so recorded image hashes are only
    compared between runs of the same program."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def wmgtomo_cmd(args) -> list[str]:
    return [sys.executable, "-m", "wmgtomo.cli", *args]


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, w: Workload, seed: int, root: Path, deadline: float):
        self.w = w
        self.root = root
        self.deadline = deadline
        self.work = root / ".perfbench_work"
        for sub in ("inputs", "images"):
            (self.work / sub).mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=self.work))
        self.tree = tree_digest(root)
        self.env = child_env(root, self.dir)
        self.seed = seed
        self.reps = 0
        self.image_sha = None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def make_inputs(self):
        """Phantom and sinogram files, made before any timing.

        They are kept in the work directory and reused by later runs of the
        same source tree, workload and (for noisy workloads) seed.
        """
        w = self.w
        seed = self.seed if w.noise else ""
        key = hashlib.sha256(f"{self.tree} {w!r} {seed}".encode())
        name = f"{w.name}-{key.hexdigest()[:24]}"
        cached = self.work / "inputs" / name
        self.phantom = cached / "phantom.bin"
        self.sino = cached / "sino.bin"
        self.record = self.work / "images" / f"{name}.sha256"
        if not cached.is_dir():
            d = self.dir / "inputs"
            d.mkdir()
            project = ["project", "--image", str(d / "phantom.bin"),
                       "--angles", str(w.angles),
                       "--detectors", str(w.detectors),
                       "--out", str(d / "sino.bin")]
            if w.noise:
                project += ["--noise", repr(w.noise), "--seed", str(seed)]
            for args in (["phantom", "--n", str(w.n),
                          "--out", str(d / "phantom.bin")], project):
                log = self.dir / f"{args[0]}.out"
                code, _, _ = run_child(wmgtomo_cmd(args), d, self.env,
                                       self.deadline, log)
                if code != 0:
                    raise BenchError(f"wmgtomo {args[0]} exited {code}: "
                                     + log.read_text())
            d.replace(cached)
        self.x_exact = read_grid(self.phantom)

    def reconstruct(self, traced: bool) -> dict:
        """One cold reconstruct process in a fresh directory.

        Returns the wall time, the list of failures, the end-to-end values
        when the target was reached, and the spans when traced.
        """
        self.reps += 1
        d = self.dir / f"rep{self.reps}"
        d.mkdir()
        args = self.w.reconstruct_args(str(self.sino), str(self.phantom))
        cmd = ([sys.executable, str(HERE / "spans.py"), "spans.json", *args]
               if traced else wmgtomo_cmd(args))
        log = self.dir / f"rep{self.reps}.out"
        code, wall, rss = run_child(cmd, d, self.env, self.deadline, log)
        rep = {"wall": wall, "failures": []}
        fail = rep["failures"]
        if code != 0:
            fail.append(f"exit code {code}: " + log.read_text()[-500:])
            return rep
        try:
            image = read_grid(d / "rec.bin")
            rows = read_log(d / "conv.csv")
            status = read_manifest(d / "rec.bin.manifest").get("status")
            if traced:
                rep["trace"] = json.loads((d / "spans.json").read_text())
        except (OSError, ValueError, KeyError) as exc:
            fail.append(f"unreadable output: {exc}")
            return rep
        final_err = float(np.linalg.norm(image - self.x_exact)
                          / np.linalg.norm(self.x_exact))
        solve_s = rows[-1]["seconds"]
        setup_s = wall - solve_s
        reached = stats.time_to_target(setup_s, rows, self.w.target)
        if not np.isfinite(image).all():
            fail.append("non-finite pixel")
        if status != EXPECTED_STATUS:
            fail.append(f"manifest status {status!r}")
        if reached is None:
            fail.append(f"target {self.w.target} not reached in "
                        f"{self.w.iters} iterations")
        if abs(final_err - rows[-1]["rel_err_l2"]) > (
                LOG_AGREEMENT_RTOL * final_err):
            fail.append(f"image error {final_err!r} != log "
                        f"{rows[-1]['rel_err_l2']!r}")
        fail += self.check_bytes(
            hashlib.sha256((d / "rec.bin").read_bytes()).hexdigest())
        if reached is not None:
            rep["metrics"] = {
                "reconstruct_s": wall, "setup_s": setup_s,
                "solve_s": solve_s, "time_to_target_s": reached[1],
                "iters_to_target": reached[0],
                "final_rel_err_l2": final_err, "peak_rss_mb": rss}
        shutil.rmtree(d)
        return rep

    def check_bytes(self, sha: str) -> list[str]:
        """Compare the image digest with this run's other repetitions and
        with the digest recorded by earlier runs on the same tree and inputs."""
        if self.image_sha is None:
            if self.record.exists():
                self.image_sha = self.record.read_text().strip()
            else:
                tmp = self.record.with_suffix(".tmp")
                tmp.write_text(sha + "\n")
                tmp.replace(self.record)
                self.image_sha = sha
        if sha != self.image_sha:
            return [f"image bytes differ from other runs ({sha[:12]} != "
                    f"{self.image_sha[:12]})"]
        return []


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 root: Path = ROOT) -> dict:
    """Measure one workload; returns the result object and the summaries."""
    if not (root / "src" / "wmgtomo" / "cli.py").is_file():
        raise BenchError(f"no wmgtomo source tree under {root}")
    start = time.perf_counter()
    run = Run(w, seed, root, start + RUN_BUDGET_S)
    try:
        run.make_inputs()
        reps, t0 = [], time.perf_counter()
        while True:
            group = [run.reconstruct(traced=False)]
            if trace:
                group.append(run.reconstruct(traced=True))
            reps.append(group)
            now = time.perf_counter()
            last = sum(r["wall"] for r in group)
            # another repetition only if it should end within --seconds
            if now + last - t0 > seconds or now + 1.5 * last > run.deadline:
                break
    finally:
        run.close()

    attempted = sum(len(g) for g in reps)
    failures = [f for g in reps for r in g for f in r["failures"]]
    failed = sum(1 for g in reps for r in g if r["failures"])
    samples: dict[str, list] = {}
    for g in reps:
        if any(r["failures"] for r in g):
            continue
        if trace:
            untraced, traced = g
            values = spans.layer_metrics(traced["trace"])
            values["trace.overhead_s"] = traced["wall"] - untraced["wall"]
        else:
            values = g[0]["metrics"]
        for k, v in values.items():
            samples.setdefault(k, []).append(v)
    if not samples:
        raise BenchError(f"{w.name}: every repetition failed: {failures}")
    catalogue = PER_LAYER if trace else END_TO_END
    summaries = {m.name: (m.unit, stats.summarize(samples[m.name]))
                 for m in catalogue}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": unit}
                    for name, (unit, s) in summaries.items()}}
    return {"result": result, "summaries": summaries, "failures": failures}


def environment() -> dict:
    """Interpreter, library and BLAS facts the timings depend on."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)),
                     "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = fn()
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def print_report(name: str, out: dict):
    res = out["result"]
    share = stats.failed_share(res["failed"], res["attempted"])
    print(f"== {name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"failed_share {share:g}")
    for f in out["failures"]:
        print(f"   FAILED: {f}")
    for metric, (unit, s) in out["summaries"].items():
        high = "" if s["high"] is None else (
            f"  p{s['high'][0]:g} {s['high'][1]:.6g}")
        print(f"   {metric:40s} {unit:6s} median {s['median']:.6g}"
              f"  n={s['n']}{high}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outs = {n: run_workload(WORKLOADS[n], args.seed, seconds,
                                bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment()))
    for n, out in outs.items():
        print_report(n, out)
    if len(outs) == 1:
        final = outs[names[0]]["result"]
    else:
        results = [o["result"] for o in outs.values()]
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{k}": v for n, o in outs.items()
                             for k, v in o["result"]["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
