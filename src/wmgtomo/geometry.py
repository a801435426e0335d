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

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sparse_kernels import DimensionMismatchError, seeded_uniform

# the projector is traced in at most this many contiguous angle blocks
BLOCKS = 8


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


def _index_dtype(maxval: int):
    """scipy's sparse index dtype: int32 while maxval fits it."""
    return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64


def _line_entries(g: Geometry, block: slice = slice(None)):
    """Exact ray/pixel intersection lengths, vectorized over rays per angle,
    for the angles g.angles[block]: per-ray entry counts, then every entry's
    column (in the index dtype of a matrix with N columns) and length in row
    order."""
    n = g.n_pixels_per_side
    ndet = g.n_detectors
    col_dtype = _index_dtype(g.n_image)
    offsets = np.arange(ndet) - (ndet - 1) / 2.0
    # pixel boundaries; the grid spans [-n/2, n/2] in both axes
    lines = np.arange(n + 1) - n / 2.0
    half = n / 2.0

    counts_acc, cols_acc, vals_acc = [], [], []
    for theta in g.angles[block]:
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
        t = np.concatenate([tx, ty], axis=1)
        t.sort(axis=1)
        with np.errstate(invalid="ignore"):
            seg = t[:, 1:] - t[:, :-1]
            tm = t[:, 1:] + t[:, :-1]
            tm *= 0.5
        good = np.isfinite(seg) & (seg > 1e-12)
        tm[~good] = 0.0
        # floor(offset + t_mid * direction + n/2), in place; the pixel
        # indices stay float64 until keep bounds them, so a midpoint far off
        # the grid cannot wrap into it
        ix, iy = tm * dx, tm * dy
        for p, o in ((ix, ox), (iy, oy)):
            p += o[:, None]
            p += half
            np.floor(p, out=p)
        keep = good & (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)
        counts_acc.append(np.count_nonzero(keep, axis=1))
        cols_acc.append(((n - 1 - iy[keep]) * n + ix[keep]).astype(col_dtype))
        vals_acc.append(seg[keep])
    return (np.concatenate(counts_acc), np.concatenate(cols_acc),
            np.concatenate(vals_acc))


def _release_free_heap():
    """Hand the memory freed in the worker threads' malloc arenas back to
    the system, through glibc's malloc_trim where the C library has it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # no such call, or no libc
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


def build_projector(g: Geometry) -> sp.csr_matrix:
    """Sparse M-by-N projection matrix; rays missing the grid give empty rows.

    The scan is traced in at most BLOCKS contiguous angle blocks, mapped
    over a pool of one thread per CPU the process may run on; numpy and
    scipy's sparse routines release the GIL. A row depends on its angle
    alone, so W is the same to the byte for every thread count. The blocks
    are copied in order into arrays allocated once, each block freed as
    soon as it is copied, so the build allocates 2 W at most and keeps
    little more than W plus the blocks in flight resident."""
    m = g.n_angles
    n_blocks = min(BLOCKS, m)
    blocks = [slice(k * m // n_blocks, (k + 1) * m // n_blocks)
              for k in range(n_blocks)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

    def trace(block: slice) -> sp.csr_matrix:
        counts, cols, vals = _line_entries(g, block)
        rows = sp.csr_matrix(
            (vals, cols, np.concatenate(([0], np.cumsum(counts)))),
            shape=(len(counts), g.n_image))
        # sorts each ray's columns, given in traversal order
        rows.sum_duplicates()
        return rows

    with ThreadPoolExecutor(min(cpus, n_blocks)) as pool:
        pieces = list(pool.map(trace, blocks))
    # without this, the workers' freed temporaries stay resident and add
    # about 20 MB to the peak of a hierarchy built next
    _release_free_heap()

    nnz = sum(rows.nnz for rows in pieces)
    idx = _index_dtype(max(g.n_data, g.n_image, nnz))
    data, indices = np.empty(nnz), np.empty(nnz, dtype=idx)
    indptr = np.zeros(g.n_data + 1, dtype=idx)
    row = at = 0
    for k in range(n_blocks):
        rows, pieces[k] = pieces[k], None
        end = at + rows.nnz
        data[at:end], indices[at:end] = rows.data, rows.indices
        ptr = indptr[row + 1:row + 1 + rows.shape[0]]
        ptr[:] = rows.indptr[1:]
        ptr += at
        row, at = row + rows.shape[0], end
    w = sp.csr_matrix((data, indices, indptr), shape=(g.n_data, g.n_image))
    w.has_canonical_format = True  # each block is, and no row is in two
    return w
