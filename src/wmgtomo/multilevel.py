"""Haar intergrid operators, wavelet two-grid correction, and the WMG V-cycle.

The fine normal-equations operator A = W^T W + lambda*I is never formed.
Every hierarchy node stores only its tall-and-skinny factor P (the fine
projector times accumulated interpolations), so its Galerkin operator is
exactly Gram(P) + lambda*I; the orthonormal-row Haar restrictions make the
regularization term pass through coarsening unchanged. Coarsest-level
subproblems are assembled densely and Cholesky-factored once at build time.

Subspace naming: images are row-major array[row, col] with row = y and
col = x (see geometry module). A band name is (x-band, y-band), so LH means
low in x / high in y, i.e. the Haar wavelet acts along y (the Kronecker
row factor) and the scaling function along x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .sparse_kernels import (DenseFactorization, DimensionMismatchError,
                             NotPositiveDefiniteError, cholesky_factor, spgemm)
from .solvers import check_nonneg, dense_normal, normal_operator

BAND_IDS = ("LL", "LH", "HL", "HH")


def _check_even(n: int):
    if n < 2 or n % 2 != 0:
        raise ValueError(f"grid side must be even and >= 2, got {n}")


def haar_scaling_1d(n: int) -> sp.csr_matrix:
    """(n/2)-by-n averaging operator: row k = 1/sqrt(2) at columns 2k, 2k+1."""
    _check_even(n)
    half = n // 2
    rows = np.repeat(np.arange(half), 2)
    cols = np.arange(n)
    vals = np.full(n, 1.0 / np.sqrt(2.0))
    return sp.csr_matrix((vals, (rows, cols)), shape=(half, n))


def haar_wavelet_1d(n: int) -> sp.csr_matrix:
    """(n/2)-by-n differencing operator: row k = 1/sqrt(2) * (1, -1) at 2k, 2k+1."""
    _check_even(n)
    half = n // 2
    rows = np.repeat(np.arange(half), 2)
    cols = np.arange(n)
    vals = np.tile([1.0, -1.0], half) / np.sqrt(2.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(half, n))


def build_intergrid_set(n: int) -> dict:
    """The four orthonormal (n^2/4)-by-n^2 restrictions of one coarsening
    step, keyed by band id: Kronecker products of the 1D Haar operators."""
    _check_even(n)
    s = haar_scaling_1d(n)
    j = haar_wavelet_1d(n)
    # kron(row factor, col factor): the first factor acts along y (rows)
    return {
        "LL": sp.kron(s, s, format="csr"),
        "LH": sp.kron(j, s, format="csr"),  # low x, high y
        "HL": sp.kron(s, j, format="csr"),  # high x, low y
        "HH": sp.kron(j, j, format="csr"),
    }


@dataclass
class WmgNode:
    """One subproblem in the hierarchy, defined by its stored factor P.

    The node's system operator is v -> P^T (P v) + lambda v. Internal nodes
    keep the intergrid set for their side plus four children; coarsest nodes
    keep a dense Cholesky factorization instead.
    """

    side: int
    level: int
    path: str
    factor: Optional[sp.csr_matrix]
    lam: float
    intergrid: Optional[dict] = None
    children: dict = field(default_factory=dict)
    coarse_solve: Optional[DenseFactorization] = None

    @property
    def dim(self) -> int:
        return self.side * self.side

    @property
    def is_coarsest(self) -> bool:
        return self.coarse_solve is not None

    def apply_system(self, v: np.ndarray) -> np.ndarray:
        return normal_operator(self.factor, self.lam)(v)


@dataclass(frozen=True)
class WmgHierarchy:
    levels: int
    lam: float
    root: WmgNode


def _build_node(p: sp.csr_matrix, side: int, level: int, levels: int,
                lam: float, path: str) -> WmgNode:
    if level == levels:
        try:
            solve = cholesky_factor(dense_normal(p, lam))
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                f"coarsest subproblem '{path or 'root'}' is singular "
                f"(lambda={lam}): {exc}") from exc
        # the factor is only needed to assemble the Gram matrix
        return WmgNode(side=side, level=level, path=path, factor=None,
                       lam=lam, coarse_solve=solve)
    node = WmgNode(side=side, level=level, path=path, factor=p, lam=lam,
                   intergrid=build_intergrid_set(side))
    for band in BAND_IDS:
        child_p = spgemm(p, node.intergrid[band].T)
        child_path = f"{path}/{band}" if path else band
        node.children[band] = _build_node(child_p, side // 2, level + 1,
                                          levels, lam, child_path)
    return node


def build_wmg_hierarchy(w: sp.spmatrix, n: int, lam: float,
                        levels: int) -> WmgHierarchy:
    """Recursive 4-way splitting of W into tall-and-skinny coarse factors."""
    if levels < 2:
        raise ValueError("levels must be >= 2")
    check_nonneg(lam, "lambda")
    if n % (2 ** (levels - 1)) != 0:
        raise ValueError(
            f"n={n} is not divisible by 2^(levels-1)={2 ** (levels - 1)}")
    w = w.tocsr()
    if w.shape[1] != n * n:
        raise DimensionMismatchError(
            f"projector has {w.shape[1]} columns, expected {n * n}")
    root = _build_node(w, n, 1, levels, lam, "")
    return WmgHierarchy(levels=levels, lam=lam, root=root)


def _solve_node(node: WmgNode, r: np.ndarray) -> np.ndarray:
    if node.is_coarsest:
        return node.coarse_solve.solve(r)
    return wtg_apply(node, r)


def wtg_apply(node: WmgNode, r: np.ndarray) -> np.ndarray:
    """One wavelet two-grid correction for the node's system, zero initial guess.

    The LL correction comes first; the residual is then recomputed once and
    the LH/HL/HH corrections are added from it, additive among themselves.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[0] != node.dim:
        raise DimensionMismatchError(
            f"wtg_apply: residual length {r.shape[0]} != {node.dim}")
    grids = node.intergrid
    r_ll = grids["LL"] @ r
    e = grids["LL"].T @ _solve_node(node.children["LL"], r_ll)
    r_work = r - node.apply_system(e)
    for band in ("LH", "HL", "HH"):
        r_band = grids[band] @ r_work
        e = e + grids[band].T @ _solve_node(node.children[band], r_band)
    return e


def wmg_preconditioner(h: WmgHierarchy) -> Callable[[np.ndarray], np.ndarray]:
    """One V-cycle as an approximate solve of (W^T W + lambda I) z = v."""
    return lambda v: wtg_apply(h.root, v)
