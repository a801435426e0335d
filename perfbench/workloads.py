"""Workload and metric catalogue of the reconstruction benchmark.

Every workload uses the paper's reference geometry (160x160 image, 400
angles, 160 detectors) with the Shepp-Logan phantom as the exact image, and
runs `wmgtomo reconstruct` as one cold process per repetition.

`PER_LAYER` records, for each layer metric, the end-to-end metric it should
move and on which workload, so a later change can state its prediction in
these names before it is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# reference geometry of the paper's benchmark instance
N, ANGLES, DETECTORS = 160, 400, 160
DEFAULT_SEED = 11
# expected manifest status: the tolerance is 0, so every run uses its budget
EXPECTED_STATUS = "max-iterations"
# per-level metrics are reported for hierarchy levels 1..MAX_LEVEL; the
# deepest workload (levels=3) has internal nodes on levels 1-2
MAX_LEVEL = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dominant_layer: str
    solver: str
    iters: int
    target: float  # relative L2 error the run must reach within `iters`
    levels: Optional[int] = None
    lam: float = 0.0
    noise: float = 0.0  # relative noise amplitude; the benchmark seed seeds it
    n: int = N
    angles: int = ANGLES
    detectors: int = DETECTORS

    def reconstruct_args(self, sino: str, xexact: str) -> list[str]:
        args = ["reconstruct", "--sino", sino, "--n", str(self.n),
                "--angles", str(self.angles),
                "--detectors", str(self.detectors),
                "--solver", self.solver, "--iters", str(self.iters),
                "--lambda", repr(self.lam), "--xexact", xexact,
                "--out", "rec.bin", "--log", "conv.csv"]
        if self.levels is not None:
            args += ["--levels", str(self.levels)]
        return args


WORKLOADS = {w.name: w for w in (
    # budgets: the first iterate at or below the target on the seed commit.
    # A noisy levels=4 workload is left out: a repetition takes ~31 s, so a
    # 60 s run holds only one, and the run budget cannot fit a third workload
    # at that length.
    Workload("wmg-2pct",
             "paper's headline WMG-BiCGStab to 2% error, noise-free, "
             "levels=3; the multilevel hierarchy build dominates",
             "multilevel", solver="wmg-bicgstab", levels=3, iters=8,
             target=0.02),
    Workload("bicgstab-2pct",
             "plain BiCGStab control to 2% error; projector build and "
             "normal-operator applies dominate, no hierarchy",
             "geometry", solver="bicgstab", iters=53, target=0.02),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    bound: Optional[float] = None  # end-to-end only
    moves: str = ""  # per-layer only: "<end-to-end metric> on <workloads>"


# Bounds: timings of one 160x160 reconstruct on a shared 2-vCPU box drift by
# up to 20% over minutes between runs of the same code, so every timing gets
# the largest allowed bound. Both workloads are noise-free, so
# iters_to_target and final_rel_err_l2 repeat exactly.
END_TO_END = (
    Metric("reconstruct_s", "s", "lower", "end-to-end", bound=0.25),
    Metric("setup_s", "s", "lower", "end-to-end", bound=0.25),
    Metric("solve_s", "s", "lower", "end-to-end", bound=0.25),
    Metric("time_to_target_s", "s", "lower", "end-to-end", bound=0.25),
    Metric("iters_to_target", "count", "lower", "end-to-end", bound=0.25),
    Metric("final_rel_err_l2", "ratio", "lower", "end-to-end", bound=0.1),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end", bound=0.05),
)

_SETUP_ALL = "setup_s on both"
_RSS = "peak_rss_mb on both"
_FACTOR_RSS = "peak_rss_mb once the projector stops setting the peak"
_SOLVE_WMG = "solve_s on wmg-2pct"


def _level_metrics() -> tuple[Metric, ...]:
    out = []
    for k in range(1, MAX_LEVEL + 1):
        p = f"multilevel.L{k}."
        out += [
            Metric(p + "factor_nnz", "count", "lower", "multilevel",
                   moves=_FACTOR_RSS),
            Metric(p + "factor_bytes", "bytes", "lower", "multilevel",
                   moves=_FACTOR_RSS),
            Metric(p + "wtg_apply_s", "s", "lower", "multilevel",
                   moves=_SOLVE_WMG),
            Metric(p + "wtg_self_s", "s", "lower", "multilevel",
                   moves=_SOLVE_WMG),
            Metric(p + "apply_system_calls", "count", "lower", "multilevel",
                   moves=_SOLVE_WMG),
            Metric(p + "apply_system_s", "s", "lower", "multilevel",
                   moves=_SOLVE_WMG),
        ]
    return tuple(out)


# The *_nnz and *_bytes metrics are computed, not measured: array sizes
# (data + indices + indptr, or the dense factor) of the objects the traced
# run holds. multilevel.L1's factor is W itself.
PER_LAYER = (
    Metric("geometry.build_projector_s", "s", "lower", "geometry",
           moves="setup_s on bicgstab-2pct"),
    Metric("geometry.w_nnz", "count", "lower", "geometry", moves=_RSS),
    Metric("geometry.w_bytes", "bytes", "lower", "geometry", moves=_RSS),
    Metric("geometry.rss_after_projector_mb", "MB", "lower", "geometry",
           moves=_RSS),
    Metric("solvers.normal_operator_build_s", "s", "lower", "solvers",
           moves=_SETUP_ALL),
    Metric("solvers.normal_op_applies", "count", "lower", "solvers",
           moves="solve_s on bicgstab-2pct"),
    Metric("solvers.normal_op_s", "s", "lower", "solvers",
           moves="solve_s on bicgstab-2pct"),
    Metric("solvers.normal_op_ms", "ms", "lower", "solvers",
           moves="solve_s on bicgstab-2pct"),
    Metric("solvers.precond_applies", "count", "lower", "solvers",
           moves=_SOLVE_WMG),
    Metric("solvers.precond_s", "s", "lower", "solvers",
           moves=_SOLVE_WMG),
    Metric("solvers.iterations", "count", "lower", "solvers",
           moves="iters_to_target on both"),
    Metric("solvers.bicgstab_self_s", "s", "lower", "solvers",
           moves="solve_s on both"),
    Metric("multilevel.build_s", "s", "lower", "multilevel",
           moves="setup_s on wmg-2pct"),
    Metric("multilevel.build_self_s", "s", "lower", "multilevel",
           moves="setup_s on wmg-2pct"),
    Metric("multilevel.coarse_dense_bytes", "bytes", "lower", "multilevel",
           moves=_FACTOR_RSS),
    Metric("multilevel.vcycle_ms", "ms", "lower", "multilevel",
           moves=_SOLVE_WMG),
) + _level_metrics() + (
    Metric("sparse_kernels.spgemm_calls", "count", "lower", "sparse_kernels",
           moves="setup_s on wmg-2pct"),
    Metric("sparse_kernels.spgemm_s", "s", "lower", "sparse_kernels",
           moves="setup_s on wmg-2pct"),
    Metric("sparse_kernels.cholesky_factor_calls", "count", "lower",
           "sparse_kernels", moves="setup_s on wmg-2pct"),
    Metric("sparse_kernels.cholesky_factor_s", "s", "lower",
           "sparse_kernels", moves="setup_s on wmg-2pct"),
    Metric("sparse_kernels.cholesky_solve_calls", "count", "lower",
           "sparse_kernels", moves="solve_s on wmg-2pct"),
    Metric("sparse_kernels.cholesky_solve_s", "s", "lower", "sparse_kernels",
           moves="solve_s on wmg-2pct"),
    Metric("phantom.error_metrics_calls", "count", "lower", "phantom",
           moves="solve_s on both (small)"),
    Metric("phantom.error_metrics_s", "s", "lower", "phantom",
           moves="solve_s on both (small)"),
    Metric("cli.read_grid_s", "s", "lower", "cli",
           moves=_SETUP_ALL + " (small)"),
    Metric("cli.write_grid_s", "s", "lower", "cli",
           moves=_SETUP_ALL + " (small)"),
    Metric("cli.write_log_s", "s", "lower", "cli",
           moves=_SETUP_ALL + " (small)"),
    Metric("trace.coverage", "ratio", "higher", "trace",
           moves="none: share of main() covered by top-level spans"),
    Metric("trace.overhead_s", "s", "lower", "trace",
           moves="none: traced minus untraced reconstruct_s"),
)
