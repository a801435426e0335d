"""Dense assembly of small iteration/preconditioned operators and their spectra.

These diagnostics are inherently small-scale: they assemble N-by-N dense
matrices (refused above N = ASSEMBLY_GUARD = 6400, before allocation) and
invert the normal operator by dense factorization.
"""

from __future__ import annotations

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


def _magnitude_ratio(vals: np.ndarray) -> float:
    mags = np.abs(vals)
    return float(mags.max() / mags.min())


def _sorted_by_magnitude(vals, vecs=None):
    order = np.argsort(np.abs(vals), kind="stable")
    vals = vals[order]
    vecs = vecs[:, order] if vecs is not None else None
    return vals, vecs


def _dense_sirt_iteration_matrix(w: sp.spmatrix, lam: float = 0.0) -> np.ndarray:
    check_dense_dim(w.shape[1])
    c, r = sirt_scaling(w)
    m = (w.T @ sp.diags(r) @ w).toarray()
    if lam != 0:
        m[np.diag_indices_from(m)] += lam
    s = -c[:, None] * m
    s[np.diag_indices_from(s)] += 1.0
    return s


def sirt_spectrum(w: sp.spmatrix, with_eigenvectors: bool = False) -> Spectrum:
    """Spectrum of S = I - C W^T R W (real up to roundoff; S is similar to
    a symmetric matrix)."""
    s = _dense_sirt_iteration_matrix(w)
    if with_eigenvectors:
        vals, vecs = scipy.linalg.eig(s)
    else:
        vals, vecs = scipy.linalg.eigvals(s), None
    vals, vecs = _sorted_by_magnitude(vals, vecs)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def _coarse_correction(a: np.ndarray, r: sp.spmatrix) -> np.ndarray:
    """R^T (R A R^T)^{-1} R A, the exact coarse correction of one band."""
    r = r.toarray()
    return r.T @ np.linalg.solve(r @ a @ r.T, r @ a)


def dense_tg_operator(w: sp.spmatrix, n: int, lam: float = 0.0) -> np.ndarray:
    """Error-propagation matrix S (I - R^T (R A R^T)^{-1} R A) S of a classical
    two-grid model: one SIRT pre- and one post-smoothing step around an exact
    LL coarse correction of A = W^T W + lam I. It is analysed by
    `spectrum --operator tg` and acceptance criterion 2's kappa(TG); no
    solver runs this cycle."""
    a = dense_normal(w, lam)
    s = _dense_sirt_iteration_matrix(w, lam)
    x_ll = _coarse_correction(a, build_intergrid_set(n)["LL"])
    return s @ (np.eye(a.shape[0]) - x_ll) @ s


def dense_wtg_operator(w: sp.spmatrix, n: int, lam: float = 0.0) -> np.ndarray:
    """Error-propagation matrix of the wavelet two-grid correction that
    `multilevel.wtg_apply` runs: the LL correction first, then the three
    oscillatory-band corrections added from one refreshed residual."""
    a = dense_normal(w, lam)
    grids = build_intergrid_set(n)
    eye = np.eye(a.shape[0])
    # e += sum_b R_b^T A_b^{-1} R_b r' with a single refreshed residual
    bands = sum(_coarse_correction(a, grids[b]) for b in ("LH", "HL", "HH"))
    return (eye - bands) @ (eye - _coarse_correction(a, grids["LL"]))


def preconditioned_spectrum(w: sp.spmatrix, n: int, lam: float,
                            precond_kind: str) -> Spectrum:
    """Spectrum (and kappa) of the preconditioned Krylov iteration matrix.

    'none' returns the spectrum of A = W^T W + lam*I itself; 'tg' and 'wtg'
    return the spectrum of I - A G A^{-1} with G the corresponding dense
    error-propagation matrix.
    """
    a = dense_normal(w, lam)
    if precond_kind == "none":
        vals = scipy.linalg.eigvalsh(a).astype(np.complex128)
    else:
        dense_error = {"tg": dense_tg_operator, "wtg": dense_wtg_operator}
        if precond_kind not in dense_error:
            raise ValueError(f"unknown preconditioner kind '{precond_kind}'")
        g = dense_error[precond_kind](w, n, lam)
        # I - A G A^{-1}: right-preconditioned iteration matrix
        iteration = np.eye(a.shape[0]) - a @ np.linalg.solve(a.T, g.T).T
        vals = scipy.linalg.eigvals(iteration)
    vals, _ = _sorted_by_magnitude(vals)
    return Spectrum(eigenvalues=vals, condition_number=_magnitude_ratio(vals))
