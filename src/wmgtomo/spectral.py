"""Dense assembly of small iteration/preconditioned operators and their spectra.

These diagnostics are inherently small-scale: they assemble N-by-N dense
matrices (refused above N = ASSEMBLY_GUARD = 6400, before allocation) and
invert the normal operator by dense factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .multilevel import build_intergrid_set
from .solvers import check_dense_dim, dense_normal, sirt_scaling


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by ascending magnitude."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None
    condition_number: Optional[float] = None


def _dense_sirt_iteration_matrix(w: sp.spmatrix, lam: float = 0.0) -> np.ndarray:
    check_dense_dim(w.shape[1])
    c, r = sirt_scaling(w)
    m = (w.T @ sp.diags(r) @ w).toarray()
    if lam != 0:
        m[np.diag_indices_from(m)] += lam
    s = -c[:, None] * m
    s[np.diag_indices_from(s)] += 1.0
    return s


def _coarse_correction(a: np.ndarray, r: sp.spmatrix) -> np.ndarray:
    """R^T (R A R^T)^{-1} R A, the exact coarse correction of one band."""
    r = r.toarray()
    return r.T @ np.linalg.solve(r @ a @ r.T, r @ a)


def dense_tg_operator(w: sp.spmatrix, n: int, lam: float = 0.0, *,
                      a: Optional[np.ndarray] = None) -> np.ndarray:
    """Error-propagation matrix S (I - R^T (R A R^T)^{-1} R A) S of a classical
    two-grid model: one SIRT pre- and one post-smoothing step around an exact
    LL coarse correction of A = W^T W + lam I, built here unless given as
    `a`. It is analysed by `spectrum --operator tg` and acceptance
    criterion 2's kappa(TG); no solver runs this cycle."""
    a = dense_normal(w, lam) if a is None else a
    s = _dense_sirt_iteration_matrix(w, lam)
    x_ll = _coarse_correction(a, build_intergrid_set(n)["LL"])
    return s @ (np.eye(a.shape[0]) - x_ll) @ s


def dense_wtg_operator(w: sp.spmatrix, n: int, lam: float = 0.0, *,
                       a: Optional[np.ndarray] = None) -> np.ndarray:
    """Error-propagation matrix of the wavelet two-grid correction that
    `multilevel.wtg_apply` runs: the LL correction first, then the three
    oscillatory-band corrections added from one refreshed residual. A =
    W^T W + lam I is built here unless given as `a`."""
    a = dense_normal(w, lam) if a is None else a
    grids = build_intergrid_set(n)
    eye = np.eye(a.shape[0])
    # e += sum_b R_b^T A_b^{-1} R_b r' with a single refreshed residual
    bands = sum(_coarse_correction(a, grids[b]) for b in ("LH", "HL", "HH"))
    return (eye - bands) @ (eye - _coarse_correction(a, grids["LL"]))


def spectrum(w: sp.spmatrix, operator: str, lam: float = 0.0,
             with_eigenvectors: bool = False) -> Spectrum:
    """Spectrum of the dense operator that `spectrum --operator` names, on
    the n-by-n image W maps, at Tikhonov weight lam: 'sirt-s' is
    S = I - C (W^T R W + lam I), real up to roundoff as S is similar to a
    symmetric matrix, and alone has eigenvectors; 'normal' is
    A = W^T W + lam I; 'tg' and 'wtg' are I - A G A^{-1} for the dense
    error propagation G. All but 'sirt-s' give kappa = max|ev| / min|ev|."""
    if operator not in ("sirt-s", "normal", "tg", "wtg"):
        raise ValueError(f"unknown operator '{operator}'")
    if with_eigenvectors and operator != "sirt-s":
        raise ValueError("only operator 'sirt-s' has eigenvectors")
    vecs = None
    if operator == "sirt-s":
        s = _dense_sirt_iteration_matrix(w, lam)
        vals, vecs = (scipy.linalg.eig(s) if with_eigenvectors
                      else (scipy.linalg.eigvals(s), None))
    elif operator == "normal":
        vals = scipy.linalg.eigvalsh(dense_normal(w, lam)).astype(np.complex128)
    else:
        a = dense_normal(w, lam)
        dense_error = dense_tg_operator if operator == "tg" else dense_wtg_operator
        g = dense_error(w, math.isqrt(w.shape[1]), lam, a=a)
        # I - A G A^{-1}: right-preconditioned iteration matrix
        iteration = np.eye(a.shape[0]) - a @ np.linalg.solve(a.T, g.T).T
        vals = scipy.linalg.eigvals(iteration)
    mags = np.abs(vals)
    order = np.argsort(mags, kind="stable")
    return Spectrum(eigenvalues=vals[order],
                    eigenvectors=None if vecs is None else vecs[:, order],
                    condition_number=None if operator == "sirt-s"
                    else float(mags.max() / mags.min()))
