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

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .sparse_kernels import DimensionMismatchError


@dataclass(frozen=True)
class Geometry:
    """Parallel-beam scan description: n-by-n grid, m angles, rays per angle."""

    n_pixels_per_side: int
    n_detectors: int
    n_angles: int
    angles: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_pixels_per_side < 1 or self.n_detectors < 1 or self.n_angles < 1:
            raise ValueError("geometry dimensions must be positive")
        a = np.asarray(self.angles, dtype=np.float64)
        if a.shape != (self.n_angles,):
            raise ValueError("angles length must equal n_angles")
        if np.any(a < 0.0) or np.any(a >= np.pi):
            raise ValueError("angles must lie in [0, pi)")
        if np.any(np.diff(a) <= 0.0):
            raise ValueError("angles must be strictly increasing")
        object.__setattr__(self, "angles", a)

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
    if n < 1 or n_detectors < 1 or n_angles < 1:
        raise ValueError("all geometry arguments must be >= 1")
    angles = np.arange(n_angles) * (np.pi / n_angles)
    return Geometry(n_pixels_per_side=n, n_detectors=n_detectors,
                    n_angles=n_angles, angles=angles)


def mirror_rows(g: Geometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W's rows split by the mirror theta -> pi - theta: (single, half, twin).

    With centred detectors, the ray at angle pi - theta and detector i is
    the x-mirror of the ray at theta and detector i. Angles a < b pair when
    |a + b - pi| <= 1e-12; `half` (A) holds the rows of the smaller angle of
    each pair, `twin` the row of each one's mirror ray, and `single` (S) the
    rows of every angle without a distinct partner. Then W^T W = H_S + H_A +
    F H_A F, with H_X the Gram matrix over the rows X and F the x-flip of
    the image. `single` and `half` are sorted; `half` is empty when no angle
    pairs.
    """
    a = g.angles
    k = np.arange(g.n_angles)
    # the first angle within the tolerance of pi - a; a pair must be mutual
    near = np.minimum(np.searchsorted(a, np.pi - a - 1e-12), g.n_angles - 1)
    paired = ((np.abs(a + a[near] - np.pi) <= 1e-12) & (near != k)
              & (near[near] == k))
    detectors = np.arange(g.n_detectors)

    def rows(angles):
        return (angles[:, None] * g.n_detectors + detectors).ravel()

    first = paired & (k < near)
    return (rows(np.flatnonzero(~paired)), rows(np.flatnonzero(first)),
            rows(near[first]))


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
