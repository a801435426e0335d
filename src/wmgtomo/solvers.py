"""SIRT stationary iteration and right-preconditioned BiCGStab.

Both solvers start from zero on the (optionally Tikhonov-regularized) normal
equations of the projection system and log per-iteration relative residuals,
relative errors against a known exact image, and cumulative wall-clock time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .phantom import error_metrics
from .sparse_kernels import DimensionMismatchError

BREAKDOWN_REL_TOL = 1e-14
# largest N for which a dense N-by-N operator may be assembled (328 MB)
ASSEMBLY_GUARD = 6400

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max-iterations"
STATUS_BREAKDOWN = "breakdown"
# a residual norm or BiCGStab's alpha denominator overflowed or became NaN
STATUS_NON_FINITE = "non-finite"


@dataclass
class SolverConfig:
    max_iterations: int = 100
    residual_tolerance: float = 0.0

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        check_nonneg(self.residual_tolerance, "tolerance")


def check_nonneg(value: float, name: str):
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def check_dense_dim(dim: int):
    """Refuse a dense dim-by-dim assembly before anything is allocated."""
    if dim > ASSEMBLY_GUARD:
        raise ValueError(f"dense {dim}x{dim} operator exceeds the assembly "
                         f"guard N <= {ASSEMBLY_GUARD}")


@dataclass
class ConvergenceRecord:
    """Per-iteration (index, rel. residual, rel. L2 error, rel. Linf error, seconds)."""

    iterations: list[int] = field(default_factory=list)
    rel_residual: list[float] = field(default_factory=list)
    rel_err_l2: list[Optional[float]] = field(default_factory=list)
    rel_err_linf: list[Optional[float]] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    status: str = STATUS_MAX_ITERATIONS

    def log(self, k, rel_res, err2, errinf, secs):
        self.iterations.append(int(k))
        self.rel_residual.append(float(rel_res))
        self.rel_err_l2.append(None if err2 is None else float(err2))
        self.rel_err_linf.append(None if errinf is None else float(errinf))
        self.seconds.append(float(secs))


def sirt_scaling(w: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Inverse column sums c (length N) and inverse row sums r (length M)
    of W, zero where a sum is zero."""
    w = w.tocsr()
    row_sums = np.asarray(w.sum(axis=1)).ravel()
    col_sums = np.asarray(w.sum(axis=0)).ravel()
    with np.errstate(divide="ignore"):
        r = np.where(row_sums > 0, 1.0 / row_sums, 0.0)
        c = np.where(col_sums > 0, 1.0 / col_sums, 0.0)
    return c, r


def _norm(v: np.ndarray) -> float:
    """||v||, inf or NaN without a RuntimeWarning when it overflows: _stop
    reports a non-finite residual norm as a status."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(v)


def _stop(record: ConvergenceRecord, tol: float, x_ex, t0: float,
          res_norm0: float, k: int, x: np.ndarray, r: np.ndarray,
          solved: bool = False) -> bool:
    """Both solvers' stop rule: log iterate k (residual r) and say whether
    the run stops there, as non-finite for a NaN or infinite relative
    residual (initial norm at k = 0), or as converged for a zero initial
    residual, one below a positive tolerance, or a system found `solved`
    (a zero residual of the solved system at k >= 1 included)."""
    rel = _norm(r) / res_norm0 if k else 1.0
    err2, errinf = (None, None) if x_ex is None else error_metrics(x, x_ex)
    record.log(k, rel, err2, errinf, time.perf_counter() - t0)
    if not np.isfinite(rel if k else res_norm0):
        record.status = STATUS_NON_FINITE
    elif res_norm0 == 0.0 or solved or rel < tol:
        record.status = STATUS_CONVERGED
    return record.status != STATUS_MAX_ITERATIONS


def sirt_solve(w: sp.spmatrix, b: np.ndarray, lam: float,
               cfg: SolverConfig, x_ex: Optional[np.ndarray] = None,
               ) -> tuple[np.ndarray, ConvergenceRecord]:
    """Gregor-Benson scaled SIRT: x <- x + C W^T R (b - W x) - lambda C x.

    The Tikhonov term is passed through the column scaling so the fixed
    point solves the C-scaled regularized normal equations.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != w.shape[0]:
        raise DimensionMismatchError("sirt_solve: dimension mismatch")
    check_nonneg(lam, "lambda")
    x = np.zeros(w.shape[1])
    c, r = sirt_scaling(w)

    record = ConvergenceRecord()
    t0 = time.perf_counter()
    res = b - w @ x
    stop = partial(_stop, record, cfg.residual_tolerance, x_ex, t0,
                   _norm(res))
    if stop(0, x, res):
        return x, record

    for k in range(1, cfg.max_iterations + 1):
        update = c * (w.T @ (r * res))
        if lam > 0:
            update -= lam * (c * x)
        x += update
        res = b - w @ x
        # with lambda > 0, b - W x is not the residual of the solved system
        if stop(k, x, res, solved=lam == 0 and not res.any()):
            break
    return x, record


def normal_operator(w: sp.spmatrix, lam: float) -> Callable[[np.ndarray], np.ndarray]:
    """v -> W^T (W v) + lambda v, computed without materializing W^T W.

    W^T is the CSC view of W's arrays: no copy, and it sums each output
    entry in the same order as a CSR copy of W^T would.
    """
    check_nonneg(lam, "lambda")
    wt = w.T

    def op(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != w.shape[1]:
            raise DimensionMismatchError(
                f"normal_operator: length {v.shape[0]} != {w.shape[1]}")
        out = wt @ (w @ v)
        if lam != 0:
            out = out + lam * v
        return out

    return op


def dense_normal(p: sp.spmatrix, lam: float) -> np.ndarray:
    """The same operator assembled densely: P^T P + lambda I."""
    check_nonneg(lam, "lambda")
    check_dense_dim(p.shape[1])
    a = (p.T @ p).toarray()
    if lam != 0:
        a[np.diag_indices_from(a)] += lam
    return a


def bicgstab_solve(op: Callable[[np.ndarray], np.ndarray], f: np.ndarray,
                   cfg: SolverConfig,
                   precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                   x_ex: Optional[np.ndarray] = None,
                   ) -> tuple[np.ndarray, ConvergenceRecord]:
    """Van der Vorst BiCGStab with right preconditioning.

    `op` applies the system matrix on image-domain vectors, `precond` (when
    given) applies M^{-1}; the solution is reported in the unpreconditioned
    variable. Breakdown (rho or omega vanishing relative to the initial
    scale) returns the last iterate with breakdown status; a residual norm
    or the denominator of alpha that is NaN or infinite returns it with
    non-finite status.
    """
    f = np.asarray(f, dtype=np.float64)
    x = np.zeros_like(f)
    minv = (lambda v: v) if precond is None else precond

    record = ConvergenceRecord()
    t0 = time.perf_counter()
    r = f - op(x)
    res_norm0 = _norm(r)
    stop = partial(_stop, record, cfg.residual_tolerance, x_ex, t0, res_norm0)
    if stop(0, x, r):
        return x, record

    r_hat, r_hat_norm = r.copy(), res_norm0
    rho_prev = alpha = omega = 1.0
    v = p = np.zeros_like(r)

    for k in range(1, cfg.max_iterations + 1):
        rho = float(r_hat @ r)
        # breakdown tests are relative to the current vector magnitudes,
        # not the initial residual, so deep convergence is not mistaken
        # for a Lanczos breakdown
        if abs(rho) <= BREAKDOWN_REL_TOL * r_hat_norm * np.linalg.norm(r):
            record.status = STATUS_BREAKDOWN
            return x, record
        if k == 1:
            p = r.copy()
        else:
            beta = (rho / rho_prev) * (alpha / omega)
            p = r + beta * (p - omega * v)
        p_hat = minv(p)
        v = op(p_hat)
        denom = float(r_hat @ v)
        # an infinite v would pass the breakdown test below
        if not np.isfinite(denom):
            record.status = STATUS_NON_FINITE
            return x, record
        if abs(denom) <= BREAKDOWN_REL_TOL * r_hat_norm * np.linalg.norm(v):
            record.status = STATUS_BREAKDOWN
            return x, record
        alpha = rho / denom
        s = r - alpha * v
        s_hat = minv(s)
        t = op(s_hat)
        tt = float(t @ t)
        if tt < BREAKDOWN_REL_TOL ** 2 * res_norm0 ** 2:
            # s is already (numerically) the solved residual
            x = x + alpha * p_hat
            stop(k, x, s, solved=True)
            return x, record
        omega = float(t @ s) / tt
        x = x + alpha * p_hat + omega * s_hat
        r = s - omega * t
        rho_prev = rho
        if stop(k, x, r, solved=not r.any()):
            return x, record
        if abs(omega) < BREAKDOWN_REL_TOL:
            record.status = STATUS_BREAKDOWN
            return x, record
    return x, record
