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

from .sparse_kernels import DimensionMismatchError, seeded_uniform


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


def gram_rows(g: Geometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of W that its Gram matrix needs, given the scan's mirror
    and 180-degree rotation: (quarter, middle, single).

    With centred detectors, the ray at angle pi - theta and detector i is
    the x-mirror of the ray at theta and detector i, so angle k pairs with
    angle m - k; the ray at angle k and detector d - 1 - i is the
    180-degree rotation of the one at detector i, which reverses a flat
    image vector. Of the angles 0 < k < m/2, `quarter` (Q) holds the rows
    with i < d//2 and `middle` (M) the middle detector of an odd count d;
    `single` (S) holds the rows of angle 0 and, for even m, of the
    self-paired angle m/2. Then W^T W = H_S + (I+F)[H_M + (I+R) H_Q], with
    H_X the Gram matrix over the rows X, (I+X) H = H + X H X, F the x-flip
    and R the reversal of the image. S is not turned: its axis-aligned rays
    can run along pixel boundaries, where `_line_entries` gives the whole
    length to the pixel on one side. Q and M are empty when m <= 2.
    """
    m, d = g.n_angles, g.n_detectors
    paired = np.arange(1, (m + 1) // 2)
    single = np.array([0, m // 2] if m % 2 == 0 else [0])
    return tuple(np.add.outer(k * d, i).ravel() for k, i in (
        (paired, np.arange(d // 2)),
        (paired, np.arange(d // 2, d - d // 2)),
        (single, np.arange(d))))


def check_projector(w: sp.spmatrix, g: Geometry):
    """Refuse a W not built from g: a wrong shape, or rows without the
    mirror and rotation `gram_rows` relies on. One seeded probe v is
    projected as it is, x-flipped (F v) and reversed (R v), each read as an
    m-by-d sinogram. On the paired angles 0 < k < m/2, v's sinogram at
    m - k must equal F v's at k, and v's at k, detectors reversed, R v's."""
    if w.shape != (g.n_data, g.n_image):
        raise DimensionMismatchError(
            f"projector is {w.shape[0]}x{w.shape[1]}, expected "
            f"{g.n_data}x{g.n_image}")
    n, m, d = g.n_pixels_per_side, g.n_angles, g.n_detectors
    paired = np.arange(1, (m + 1) // 2)
    v = seeded_uniform(g.n_image, 0)
    sino = (w @ v).reshape(m, d)
    for moved, view, how in (
            (v.reshape(n, n)[:, ::-1].ravel(), sino[m - paired],
             "mirror as the scan's angles say"),
            (v[::-1], sino[paired, ::-1],
             "follow the scan's 180-degree rotation")):
        wu = w @ moved
        gap = np.abs(view - wu.reshape(m, d)[paired]).max(initial=0.0)
        if gap > 1e-9 * np.abs(wu).max(initial=0.0):
            raise DimensionMismatchError(
                f"projector rows do not {how} "
                f"(probe gap {gap:.3g}); was it built from this geometry?")


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
