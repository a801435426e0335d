"""Shared low-level kernels: sparse-sparse products, dense Cholesky, seeded RNG.

All sparse operators in this package are scipy CSR matrices with nonnegative
dimensions; the helpers here add the dimension checks and numerical
conventions (drop tolerance, positive-definiteness errors) that the rest of
the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    """Cholesky factorization of a symmetric positive definite matrix G.

    `lower` holds what is stored: G's N-by-N lower factor, or, when
    `orbits` is set, the (4, N/4, N/4) stack of the factors of G's four
    symmetry-sector blocks (see `cholesky_factor`).
    """

    dimension: int
    lower: np.ndarray
    orbits: Optional[np.ndarray] = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cholesky_solve(self, rhs)

    def matrix(self) -> np.ndarray:
        """The factored matrix L L^T, in the image basis."""
        blocks = self.lower @ self.lower.swapaxes(-1, -2)
        if self.orbits is None:
            return blocks
        # block (j, k) of G in orbit coordinates is C[j ^ k], C = H B / 4
        _butterfly(blocks)
        blocks *= 0.25
        perm = self.orbits.ravel()
        g = np.empty((self.dimension, self.dimension))
        g[np.ix_(perm, perm)] = np.block(
            [[blocks[j ^ k] for k in range(4)] for j in range(4)])
        return g


def _asymmetry(g: np.ndarray) -> float:
    """max|G - G^T| over the last two axes, in one buffer of G's size."""
    d = g - g.swapaxes(-1, -2)
    return np.abs(d, out=d).max()


def _butterfly(t: np.ndarray):
    """t <- H t along t's first axis (length 4), in place, with H the 4-by-4
    Walsh-Hadamard matrix. Row s of H holds the signs that orbit
    coordinates (i, F i, R i, FR i) take in sector s, for the sectors
    (F, R) = (+, +), (-, +), (+, -), (-, -); H H = 4 I."""
    for a, b in ((0, 1), (2, 3), (0, 2), (1, 3)):
        d = t[a] - t[b]
        t[a] += t[b]
        t[b] = d


def _sector_blocks(g: np.ndarray, orbits: np.ndarray,
                   scale: float) -> Optional[np.ndarray]:
    """G's four sector blocks as a (4, N/4, N/4) stack, or None when G does
    not commute with F and R to within CHOLESKY_SYM_TOL * max|G| (`scale`).

    In orbit coordinates G is a 4-by-4 array of blocks G[j, k], and the
    index of F, R and FR is 1, 2 and 3, so that composing two of them is
    XOR. G commutes with the group exactly when G[j, k] = G[0, j ^ k]: a
    defect below the tolerance bounds every off-sector entry by three
    times that. The diagonal sector blocks of U^T G U, with U = H / 2 on
    each orbit, are then H applied to the first block row.
    """
    q = orbits.shape[1]
    perm = orbits.ravel()
    t = g[perm].take(perm, axis=1).reshape(4, q, 4, q)
    buf = np.empty((q, q))
    for j in range(1, 4):
        for k in range(4):
            np.subtract(t[j, :, k, :], t[0, :, j ^ k, :], out=buf)
            if np.abs(buf, out=buf).max() > CHOLESKY_SYM_TOL * scale:
                return None
    blocks = t[0].swapaxes(0, 1).copy()
    _butterfly(blocks)
    return blocks


def cholesky_factor(g: np.ndarray,
                    orbits: Optional[np.ndarray] = None) -> DenseFactorization:
    """Factor a dense SPD matrix, raising NotPositiveDefiniteError on failure.

    `orbits` is an optional (4, N/4) table of index orbits (i, F i, R i,
    FR i) under two commuting involutive permutations F and R. When G
    commutes with both, the orthonormal sector basis (H / 2 on each orbit,
    see `_butterfly`) splits G exactly into four N/4 blocks, one per pair
    of F and R eigenvalues, and only their factors are stored: a quarter
    of the memory and a sixteenth of the flops (Fassler & Stiefel, Group
    Theoretical Methods and Their Applications, 1992). Otherwise, and
    without `orbits`, G is factored whole. A G that commutes is symmetric
    exactly when its blocks are, so the split path checks the blocks only.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatchError(f"cholesky_factor: matrix is not square {g.shape}")
    if orbits is not None and (orbits.ndim != 2 or orbits.shape[0] != 4
                               or orbits.size != g.shape[0]):
        raise DimensionMismatchError(
            f"cholesky_factor: orbits {orbits.shape} do not cover {g.shape}")
    scale = max(g.max(), -g.min()) if g.size else 0.0  # max|G|
    blocks = None if orbits is None else _sector_blocks(g, orbits, scale)
    a = g if blocks is None else blocks
    if scale and _asymmetry(a) > CHOLESKY_SYM_TOL * scale:
        raise NotPositiveDefiniteError("matrix is not symmetric")
    try:
        lower = scipy.linalg.cholesky(a, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return DenseFactorization(dimension=g.shape[0], lower=lower,
                              orbits=None if blocks is None else orbits)


def cholesky_solve(f: DenseFactorization, rhs: np.ndarray) -> np.ndarray:
    """G^{-1} rhs; a split factorization gathers rhs into its four sector
    vectors, solves the blocks in one batched call and scatters back."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != f.dimension:
        raise DimensionMismatchError(
            f"cholesky_solve: rhs length {rhs.shape[0]} != dimension {f.dimension}")
    # the factor was validated when built; re-scanning it for non-finite
    # entries on every solve dominates the cost of the small triangular solves
    if f.orbits is None:
        return scipy.linalg.cho_solve((f.lower, True), rhs, check_finite=False)
    # G^{-1} = U B^{-1} U^T with U = H / 2 on each orbit
    s = rhs[f.orbits].reshape(4, f.orbits.shape[1], -1)
    _butterfly(s)
    s = scipy.linalg.cho_solve((f.lower, True), s, check_finite=False)
    _butterfly(s)
    s *= 0.25
    out = np.empty_like(rhs)
    out[f.orbits] = s.reshape(f.orbits.shape + rhs.shape[1:])
    return out


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
