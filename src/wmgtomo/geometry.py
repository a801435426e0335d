"""Parallel-beam acquisition geometry and the sparse ray projector.

Conventions (fixed repo-wide):
  * the image is an n-by-n grid of unit pixels centered at the origin; a
    flat image vector is the row-major flattening of array[row, col] where
    row indexes y (top row first) and col indexes x,
  * n_detectors rays per angle, spacing 1.0, the array centered on the
    image center and rotating with the angle,
  * at angle 0 the rays are vertical (they traverse pixel columns), at
    pi/2 they are horizontal.

The projector stores the exact intersection length of each ray with every
pixel it crosses (grid-line traversal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sparse_kernels import DimensionMismatchError


@dataclass(frozen=True)
class Geometry:
    """Equiangular parallel-beam scan: n-by-n grid, angle k = 0..m-1 at
    k pi / m, n_detectors rays per angle. Three integers, so it compares
    and hashes by value."""

    n_pixels_per_side: int
    n_detectors: int
    n_angles: int

    def __post_init__(self):
        if self.n_pixels_per_side < 1 or self.n_detectors < 1 or self.n_angles < 1:
            raise ValueError("geometry dimensions must be positive")

    @property
    def angles(self) -> np.ndarray:
        """The m projection angles k pi / m, in increasing order."""
        return np.arange(self.n_angles) * (np.pi / self.n_angles)

    @property
    def n_image(self) -> int:
        """N, the number of unknown pixels."""
        return self.n_pixels_per_side ** 2

    @property
    def n_data(self) -> int:
        """M, the number of measured ray sums."""
        return self.n_angles * self.n_detectors


def build_geometry(n: int, n_detectors: int, n_angles: int) -> Geometry:
    """Equiangular geometry over the half-turn [0, pi)."""
    return Geometry(n, n_detectors, n_angles)


def mirror_rows(g: Geometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W's rows split by the mirror theta -> pi - theta: (single, half, twin).

    With centred detectors, the ray at angle pi - theta and detector i is
    the x-mirror of the ray at theta and detector i, so angle k pairs with
    angle m - k. `half` (A) holds the rows of the angles 0 < k < m/2,
    `twin` the row of each one's mirror ray, and `single` (S) the rows of
    angle 0 and, for even m, of the self-paired angle m/2. Then W^T W =
    H_S + H_A + F H_A F, with H_X the Gram matrix over the rows X and F the
    x-flip of the image. S and A together are W's first (m//2 + 1) angles;
    `half` is empty when m <= 2.
    """
    m, d = g.n_angles, g.n_detectors
    single = np.array([0, m // 2] if m % 2 == 0 else [0])
    paired = np.arange(1, (m + 1) // 2)
    return tuple(np.add.outer(k * d, np.arange(d)).ravel()
                 for k in (single, paired, m - paired))


def rotation_rows(g: Geometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mirror_rows' `half` (A) split by the 180-degree rotation: (quarter,
    middle, turned).

    The rotation (x, y) -> (-x, -y) maps the ray at angle k and detector i
    onto the ray at angle k and detector d - 1 - i, and reverses a flat
    image vector. `quarter` (Q) holds A's rows with i < d//2, `turned` the
    row of each one's rotated partner, and `middle` (M) the rows of the
    middle detector of an odd count d. Then H_A = H_M + H_Q + R H_Q R, with
    R the reversal of the image. Only A is split: the axis-aligned rays of
    S can run along pixel boundaries, which the projector does not treat
    symmetrically.
    """
    m, d = g.n_angles, g.n_detectors
    paired = np.arange(1, (m + 1) // 2) * d
    lower, middle = np.arange(d // 2), np.arange(d // 2, d - d // 2)
    return tuple(np.add.outer(paired, i).ravel()
                 for i in (lower, middle, d - 1 - lower))


def _snapped_trig(theta: float) -> tuple[float, float]:
    """cos/sin with 1-ulp residue at axis-aligned angles snapped to exact
    values, so axis-aligned rays produce exactly unit weights."""
    c, s = float(np.cos(theta)), float(np.sin(theta))
    if abs(c) < 1e-15:
        c, s = 0.0, float(np.sign(s))
    elif abs(s) < 1e-15:
        c, s = float(np.sign(c)), 0.0
    return c, s


def _line_entries(g: Geometry):
    """Exact ray/pixel intersection lengths, vectorized over rays per angle:
    per-ray entry counts, then every entry's column and length in row order."""
    n = g.n_pixels_per_side
    ndet = g.n_detectors
    offsets = np.arange(ndet) - (ndet - 1) / 2.0
    # pixel boundaries; the grid spans [-n/2, n/2] in both axes
    lines = np.arange(n + 1) - n / 2.0
    half = n / 2.0

    counts_acc, cols_acc, vals_acc = [], [], []
    for theta in g.angles:
        c, s = _snapped_trig(theta)
        dx, dy = -s, c  # ray direction; ray point = offset*(c, s) + t*(dx, dy)
        ox, oy = offsets * c, offsets * s
        # rays parallel to one grid-line family cross only the other; the
        # inf sentinels sort to the end and yield non-finite segments that
        # the keep mask removes before any index arithmetic
        tx = (lines[None, :] - ox[:, None]) / dx if abs(dx) > 1e-12 else \
            np.full((ndet, n + 1), np.inf)
        ty = (lines[None, :] - oy[:, None]) / dy if abs(dy) > 1e-12 else \
            np.full((ndet, n + 1), np.inf)
        t = np.sort(np.concatenate([tx, ty], axis=1), axis=1)
        with np.errstate(invalid="ignore"):
            seg = t[:, 1:] - t[:, :-1]
            tm = 0.5 * (t[:, 1:] + t[:, :-1])
        good = np.isfinite(seg) & (seg > 1e-12)
        tm = np.where(good, tm, 0.0)
        xm = ox[:, None] + tm * dx
        ym = oy[:, None] + tm * dy
        ix = np.floor(xm + half).astype(np.int64)
        iy = np.floor(ym + half).astype(np.int64)
        keep = good & (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)
        counts_acc.append(keep.sum(axis=1))
        cols_acc.append((n - 1 - iy[keep]) * n + ix[keep])
        vals_acc.append(seg[keep])
    return (np.concatenate(counts_acc), np.concatenate(cols_acc),
            np.concatenate(vals_acc))


def build_projector(g: Geometry) -> sp.csr_matrix:
    """Sparse M-by-N projection matrix; rays missing the grid give empty rows."""
    counts, cols, vals = _line_entries(g)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    w = sp.csr_matrix((vals, cols, indptr), shape=(g.n_data, g.n_image))
    w.sum_duplicates()  # sorts each ray's columns, given in traversal order
    return w


def apply(w: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Forward projection W x (sinogram from image)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != w.shape[1]:
        raise DimensionMismatchError(
            f"apply: vector length {x.shape[0]} != n_cols {w.shape[1]}")
    return w @ x


def apply_transpose(w: sp.spmatrix, y: np.ndarray) -> np.ndarray:
    """Backprojection W^T y (image from sinogram); W^T W is never formed."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] != w.shape[0]:
        raise DimensionMismatchError(
            f"apply_transpose: vector length {y.shape[0]} != n_rows {w.shape[0]}")
    return w.T @ y
