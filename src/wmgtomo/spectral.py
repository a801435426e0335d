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


def _dense_sirt_iteration_matrix(w: sp.spmatrix, lam: float) -> np.ndarray:
    check_dense_dim(w.shape[1])
    c, r = sirt_scaling(w)
    m = (w.T @ sp.diags(r) @ w).toarray()
    m[np.diag_indices_from(m)] += lam
    s = -c[:, None] * m
    s[np.diag_indices_from(s)] += 1.0
    return s


def _coarse_correction(a: np.ndarray, r: sp.spmatrix) -> np.ndarray:
    """R^T (R A R^T)^{-1} R A, the exact coarse correction of one band."""
    r = r.toarray()
    return r.T @ np.linalg.solve(r @ a @ r.T, r @ a)


def dense_tg_operator(w: sp.spmatrix, lam: float) -> np.ndarray:
    """Error-propagation matrix G = S (I - R^T (R A R^T)^{-1} R A) S of a
    classical two-grid model, one SIRT pre- and post-smoothing step around
    an exact LL coarse correction of A = W^T W + lam I, that `spectrum
    --operator tg` and criterion 2's kappa(TG) analyse as I - G."""
    a = dense_normal(w, lam)
    s = _dense_sirt_iteration_matrix(w, lam)
    grids = build_intergrid_set(math.isqrt(w.shape[1]))
    return s @ (np.eye(a.shape[0]) - _coarse_correction(a, grids["LL"])) @ s


def dense_wtg_operator(w: sp.spmatrix, lam: float) -> np.ndarray:
    """Error-propagation matrix G of the wavelet two-grid correction that
    `multilevel.wtg_apply` runs: the LL correction of A = W^T W + lam I
    first, then the three oscillatory-band corrections added from one
    refreshed residual. `spectrum --operator wtg` analyses I - G."""
    a = dense_normal(w, lam)
    grids = build_intergrid_set(math.isqrt(w.shape[1]))
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
    A = W^T W + lam I; 'tg' and 'wtg' are I - G for the dense error
    propagation G, to which A M^{-1} = A (I - G) A^{-1} is similar for
    one cycle from zero. All but 'sirt-s' give kappa = max|ev| / min|ev|."""
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
        dense_error = dense_tg_operator if operator == "tg" else dense_wtg_operator
        g = dense_error(w, lam)
        # I - G in place, with no second N-by-N matrix beside G
        g *= -1.0
        g[np.diag_indices_from(g)] += 1.0
        vals = scipy.linalg.eigvals(g)
    mags = np.abs(vals)
    order = np.argsort(mags, kind="stable")
    return Spectrum(eigenvalues=vals[order],
                    eigenvectors=None if vecs is None else vecs[:, order],
                    condition_number=None if operator == "sirt-s"
                    else float(mags.max() / mags.min()))
