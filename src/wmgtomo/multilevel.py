"""Haar intergrid operators, wavelet two-grid correction, and the WMG V-cycle.

The fine normal-equations operator A = W^T W + lambda*I is never formed.
Every hierarchy node stores only its tall-and-skinny factor P (the fine
projector times accumulated interpolations), so its Galerkin operator is
exactly Gram(P) + lambda*I; the orthonormal-row Haar restrictions make the
regularization term pass through coarsening unchanged. Every coarsest
subproblem is assembled densely by one formula,
H_S + (I+F)[H_M + (I+R) H_Q], from the rays the scan's mirror and
180-degree rotation leave (all of them when no angles pair), and
Cholesky-factored once at build time. The folded Q rows commute with F
and R by construction; when a seeded probe shows that F and R permute the
S rows, and R the M rows, up to sign, the Gram commutes with both, and
the orbits (i, F i, R i, FR i) of one coarse quadrant split it exactly
into four N/4 sector blocks (sparse_kernels.cholesky_factor): at 160^2
and levels 3 the 16 factors take 82 MB instead of 328 MB. An odd
coarsest side (no orbits of four) and S or M rows that F or R do not
permute (boundary rays of integer detector offsets on an even grid, see
geometry.gram_rows) keep the Gram as one N-by-N block.

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

from .geometry import Geometry, check_projector, gram_rows
from .sparse_kernels import (DenseFactorization, DimensionMismatchError,
                             NotPositiveDefiniteError, cholesky_factor,
                             seeded_uniform, spgemm)
from .solvers import (check_dense_dim, check_nonneg, dense_normal,
                      normal_operator)

BAND_IDS = ("LL", "LH", "HL", "HH")


def build_intergrid_set(n: int) -> dict:
    """The four orthonormal (n^2/4)-by-n^2 restrictions of one coarsening
    step, keyed by band id: Kronecker products of the 1D Haar operators."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"grid side must be even and >= 2, got {n}")
    # the (n/2)-by-n scaling (s) and wavelet (j) filters: row k holds
    # (1, sign) / sqrt(2) at columns 2k and 2k+1
    s, j = (sp.csr_matrix((np.tile([1.0, sign], n // 2) / np.sqrt(2.0),
                           np.arange(n), np.arange(0, n + 1, 2)),
                          shape=(n // 2, n)) for sign in (1.0, -1.0))
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
    keep a dense Cholesky factorization instead, in one block or in four
    sector blocks.
    """

    level: int
    factor: Optional[sp.csr_matrix]
    lam: float
    intergrid: Optional[dict] = None
    children: dict = field(default_factory=dict)
    coarse_solve: Optional[DenseFactorization] = None

    def apply_system(self, v: np.ndarray) -> np.ndarray:
        return normal_operator(self.factor, self.lam)(v)


@dataclass(frozen=True)
class WmgHierarchy:
    root: WmgNode


def _row_range(c: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """c[lo:hi] as a view of c's arrays, so slicing allocates no copy."""
    start, stop = c.indptr[lo], c.indptr[hi]
    return sp.csr_matrix((c.data[start:stop], c.indices[start:stop],
                          c.indptr[lo:hi + 1] - start),
                         shape=(hi - lo, c.shape[1]), copy=False)


def _coarse_gram(p: sp.csr_matrix, r_t: sp.csr_matrix, side: int,
                 lam: float, rays: tuple) -> tuple[np.ndarray, bool]:
    """Dense P_b^T P_b + lambda I of the coarsest factor P_b = p r_t, and
    whether that Gram commutes with F and R.

    Only p's rows Q, M and S (geometry.gram_rows) are multiplied: the Gram
    is H_S + (I+F)[H_M + (I+R) H_Q], where (I+X) H = H + X H X, F is the
    x-reversal of the side-by-side image and R the reversal of the whole
    image (the 180-degree rotation). Every Haar band is even or odd under F
    and under R, so the signs of P_b's mirrored and turned rows cancel in
    the Gram matrix. Without pairs Q and M are empty. The folded Q terms
    commute with F and R, so the Gram does when F and R map the S rows,
    and R the M rows, onto themselves up to sign: then one seeded probe u
    gives the same sorted |rows @ u| as its moved copy, to 1e-9.
    """
    quarter, middle, single = rays
    c = spgemm(p[np.concatenate(rays)], r_t)
    q_end, m_end = quarter.size, quarter.size + middle.size
    m_rows = _row_range(c, q_end, m_end)
    s_rows = _row_range(c, m_end, c.shape[0])
    u = seeded_uniform(side * side, 0)
    commutes = True
    for rows, moved in ((s_rows, u.reshape(side, side)[:, ::-1].ravel()),
                        (s_rows, u[::-1]), (m_rows, u[::-1])):
        a, b = (np.sort(np.abs(rows @ v)) for v in (u, moved))
        commutes &= np.abs(a - b).max(initial=0) <= 1e-9 * a.max(initial=0)
    g = dense_normal(_row_range(c, 0, q_end), 0.0)
    # (R H R)[i, j] = H[R i, R j] reverses both indices
    g += g[::-1, ::-1]
    g += dense_normal(m_rows, 0.0)
    # an image index is (y, x), so (F H F)[i, j] = H[F i, F j] reverses the
    # x axis of both indices
    quad = g.reshape(side, side, side, side)
    quad += quad[:, ::-1, :, ::-1]
    g += dense_normal(s_rows, 0.0)
    if lam != 0:
        g[np.diag_indices_from(g)] += lam
    return g, commutes


def _sector_orbits(side: int) -> np.ndarray:
    """The (4, side^2/4) orbits (i, F i, R i, FR i) of the top-left
    quadrant's pixels i of an even side-by-side image: F flips x, and R
    reverses the flat index (the 180-degree rotation)."""
    half = side // 2
    i = (np.arange(half)[:, None] * side + np.arange(half)).ravel()
    f = i + side - 1 - 2 * (i % side)
    last = side * side - 1
    return np.stack([i, f, last - i, last - f])


def check_levels(n: int, levels: int):
    """n-by-n grid: levels >= 2, 2^(levels-1) | n, dense coarsest blocks."""
    if levels < 2:
        raise ValueError(f"levels must be >= 2, got {levels}")
    if n % (2 ** (levels - 1)) != 0:
        raise ValueError(
            f"n={n} is not divisible by 2^(levels-1)={2 ** (levels - 1)}")
    check_dense_dim((n >> (levels - 1)) ** 2)


def build_wmg_hierarchy(w: sp.spmatrix, g: Geometry, lam: float,
                        levels: int) -> WmgHierarchy:
    """Recursive 4-way splitting of W into tall-and-skinny coarse factors.

    `g` is the scan W was built from; its mirror and its 180-degree rotation
    quarter the rows each coarsest Gram matrix reads (geometry.gram_rows),
    once geometry.check_projector has confirmed that W has both.
    """
    n = g.n_pixels_per_side
    check_levels(n, levels)
    check_nonneg(lam, "lambda")
    w = w.tocsr()
    check_projector(w, g)
    rays = gram_rows(g)
    # every coarsest node has the same side; an odd one has no orbits of 4
    coarse_side = n >> (levels - 1)
    orbits = _sector_orbits(coarse_side) if coarse_side % 2 == 0 else None

    def build(p, r_t, side, level, path):
        """The node whose factor is p r_t (p itself when r_t is None)."""
        if level == levels:
            gram, commutes = _coarse_gram(p, r_t, side, lam, rays)
            try:
                solve = cholesky_factor(gram, orbits if commutes else None)
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError(
                    f"coarsest subproblem '{path}' is singular "
                    f"(lambda={lam}): {exc}") from exc
            # the factor is only needed to assemble the Gram matrix
            return WmgNode(level=level, factor=None, lam=lam,
                           coarse_solve=solve)
        p = p if r_t is None else spgemm(p, r_t)
        grids = build_intergrid_set(side)
        return WmgNode(level=level, factor=p, lam=lam, intergrid=grids,
                       children={
                           band: build(p, grids[band].T, side // 2, level + 1,
                                       f"{path}/{band}" if path else band)
                           for band in BAND_IDS})

    return WmgHierarchy(root=build(w, None, n, 1, ""))


def _solve_node(node: WmgNode, r: np.ndarray) -> np.ndarray:
    if node.coarse_solve is not None:
        return node.coarse_solve.solve(r)
    return wtg_apply(node, r)


def wtg_apply(node: WmgNode, r: np.ndarray) -> np.ndarray:
    """One wavelet two-grid correction for the node's system, zero initial guess.

    The LL correction comes first; the residual is then recomputed once and
    the LH/HL/HH corrections are added from it, additive among themselves.
    """
    r = np.asarray(r, dtype=np.float64)
    grids = node.intergrid
    dim = grids["LL"].shape[1]
    if r.shape[0] != dim:
        raise DimensionMismatchError(
            f"wtg_apply: residual length {r.shape[0]} != {dim}")
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
