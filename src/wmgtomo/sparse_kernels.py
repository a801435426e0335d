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
    """Cholesky factorization of an SPD matrix G in k orbit-basis blocks.

    `orbits` is a (k, N/k) index table and `lower` the (k, N/k, N/k) stack
    of the blocks' lower factors: k = 4 for G's symmetry-sector blocks (see
    `cholesky_factor`), k = 1 for G whole, with `orbits` = arange(N)[None].
    """

    lower: np.ndarray
    orbits: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cholesky_solve(self, rhs)

    def matrix(self) -> np.ndarray:
        """The factored matrix L L^T, in the image basis."""
        blocks = self.lower @ self.lower.swapaxes(-1, -2)
        # block (j, k) of G in orbit coordinates is C[j ^ k], C = H B / k
        _butterfly(blocks)
        blocks /= len(blocks)
        j = np.arange(len(blocks))
        perm, n = self.orbits.ravel(), self.orbits.size
        g = np.empty((n, n))
        g[np.ix_(perm, perm)] = (blocks[j[:, None] ^ j].swapaxes(1, 2)
                                 .reshape(n, n))
        return g


def _butterfly(t: np.ndarray):
    """t <- H t along t's first axis (length k = 1 or 4), in place, with H
    the k-by-k Walsh-Hadamard matrix (H = 1 when k = 1). Row s of H holds
    the signs that orbit coordinates (i, F i, R i, FR i) take in sector s,
    for the sectors (F, R) = (+, +), (-, +), (+, -), (-, -); H H = k I."""
    for a, b in ((0, 1), (2, 3), (0, 2), (1, 3)) if len(t) == 4 else ():
        d = t[a] - t[b]
        t[a] += t[b]
        t[b] = d


def cholesky_factor(g: np.ndarray,
                    orbits: Optional[np.ndarray] = None) -> DenseFactorization:
    """Factor a dense SPD matrix, raising NotPositiveDefiniteError on failure.

    `orbits` is an optional (4, N/4) table of index orbits (i, F i, R i,
    FR i) under two commuting involutive permutations F and R, given only
    when the caller has certified that G commutes with both. In orbit
    coordinates G is then a 4-by-4 array of blocks G[j, k] = G[0, j ^ k]
    (F, R and FR are 1, 2 and 3, so composing two is XOR), and the
    orthonormal sector basis (H / 2 on each orbit, see `_butterfly`) splits
    G exactly into four N/4 blocks, one per pair of F and R eigenvalues: H
    applied to G's first block row. Only their factors are stored, a quarter
    of the memory and a sixteenth of the flops (Fassler & Stiefel, Group
    Theoretical Methods and Their Applications, 1992). Without `orbits`, G
    is one block on the orbit arange(N). Only the blocks are checked for
    symmetry; a G that does not commute fails that check in general.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatchError(f"cholesky_factor: matrix is not square {g.shape}")
    if orbits is None:
        blocks, orbits = g[None], np.arange(g.shape[0])[None]
    elif orbits.ndim != 2 or orbits.shape[0] != 4 or orbits.size != g.shape[0]:
        raise DimensionMismatchError(
            f"cholesky_factor: orbits {orbits.shape} do not cover {g.shape}")
    else:
        blocks = g[orbits[0][:, None], orbits[:, None]]  # G[0, k] stacked
        _butterfly(blocks)
    scale = max(g.max(), -g.min()) if g.size else 0.0  # max|G|
    d = blocks - blocks.swapaxes(-1, -2)
    if scale and np.abs(d, out=d).max() > CHOLESKY_SYM_TOL * scale:
        raise NotPositiveDefiniteError("matrix is not symmetric")
    del d  # free the check's buffer before the factors are allocated
    try:
        lower = scipy.linalg.cholesky(blocks, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return DenseFactorization(lower=lower, orbits=orbits)


def cholesky_solve(f: DenseFactorization, rhs: np.ndarray) -> np.ndarray:
    """G^{-1} rhs = U B^{-1} U^T rhs with U = H / sqrt(k) on each orbit:
    gather k block vectors, solve them in one batched call, scatter back."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != f.orbits.size:
        raise DimensionMismatchError(
            f"cholesky_solve: rhs length {rhs.shape[0]} != {f.orbits.size}")
    s = rhs[f.orbits].reshape(f.orbits.shape + (-1,))
    _butterfly(s)
    # the factor was validated when built; re-scanning it for non-finite
    # entries on every solve dominates the cost of the small triangular solves
    s = scipy.linalg.cho_solve((f.lower, True), s, check_finite=False)
    _butterfly(s)
    s /= len(s)
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
