"""Shared low-level kernels: sparse-sparse products, dense Cholesky, seeded RNG.

All sparse operators in this package are scipy CSR matrices with nonnegative
dimensions; the helpers here add the dimension checks and numerical
conventions (drop tolerance, positive-definiteness errors) that the rest of
the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# Magnitudes below this are treated as exact-zero cancellation (the Haar
# products cancel +-1/2 entries frequently) and removed from sparse results.
SPGEMM_DROP_TOL = 1e-15
CHOLESKY_SYM_TOL = 1e-10  # largest max|G - G^T| / max|G| taken as symmetric


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


class NotPositiveDefiniteError(ValueError):
    """A matrix expected to be symmetric positive definite is not."""


def spgemm(a: sp.spmatrix, b: sp.spmatrix) -> sp.csr_matrix:
    """Exact sparse-sparse product with tiny-magnitude fill dropped."""
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"spgemm: inner dimensions differ ({a.shape} x {b.shape})")
    c = (a.tocsr() @ b.tocsr()).tocsr()
    if c.nnz:
        c.data[np.abs(c.data) < SPGEMM_DROP_TOL] = 0.0
        c.eliminate_zeros()
    return c


@dataclass(frozen=True)
class DenseFactorization:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix."""

    dimension: int
    lower: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cholesky_solve(self, rhs)


def _asymmetry(g: np.ndarray) -> float:
    """max|G - G^T|, computed in one N-by-N buffer."""
    d = g - g.T
    return np.abs(d, out=d).max()


def cholesky_factor(g: np.ndarray) -> DenseFactorization:
    """Factor a dense SPD matrix, raising NotPositiveDefiniteError on failure."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatchError(f"cholesky_factor: matrix is not square {g.shape}")
    scale = max(g.max(), -g.min()) if g.size else 0.0  # max|G|
    if scale and _asymmetry(g) > CHOLESKY_SYM_TOL * scale:
        raise NotPositiveDefiniteError("matrix is not symmetric")
    try:
        lower = scipy.linalg.cholesky(g, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return DenseFactorization(dimension=g.shape[0], lower=lower)


def cholesky_solve(f: DenseFactorization, rhs: np.ndarray) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != f.dimension:
        raise DimensionMismatchError(
            f"cholesky_solve: rhs length {rhs.shape[0]} != dimension {f.dimension}")
    # the factor was validated when built; re-scanning it for non-finite
    # entries on every solve dominates the cost of the small triangular solves
    return scipy.linalg.cho_solve((f.lower, True), rhs, check_finite=False)


def seeded_uniform(count: int, seed: int) -> np.ndarray:
    """Deterministic i.i.d. samples from the open interval (-1, 1).

    Uses numpy's PCG64 generator. The endpoints are excluded: exact -1.0
    draws (possible since uniform() is half-open) are redrawn.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=count)
    while True:
        bad = u <= -1.0
        if not bad.any():
            return u
        u[bad] = rng.uniform(-1.0, 1.0, size=int(bad.sum()))
