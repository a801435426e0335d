"""Shepp-Logan-type test image, white-noise injection, and error metrics."""

from __future__ import annotations

import numpy as np

from .sparse_kernels import seeded_uniform

# Modified (high-contrast) Shepp-Logan ellipse set: value, semi-axes a/b,
# center (x0, y0), rotation in degrees. The standard parameter set is NOT
# mirror-symmetric (the two large tilted ellipses have different axes, and
# the bottom small ellipses differ in placement and orientation); that
# asymmetry is deliberate — a symmetric phantom would make every synthetic
# benchmark right-hand side live in the projector's mirror-symmetric
# invariant subspace, which artificially halves the effective spectrum seen
# by Krylov solvers and distorts iteration counts.
ELLIPSES = (
    (1.0, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.8, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.2, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.2, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.1, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.1, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.1, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.1, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.1, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.1, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)


def shepp_logan(n: int) -> np.ndarray:
    """Length-n^2 image vector, phantom evaluated at pixel centers.

    The phantom lives on [-1, 1]^2 with the object inside the inscribed
    circle; values are in [0, 1].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # pixel centers; row 0 is the top of the image (largest y)
    xs = (np.arange(n) + 0.5) * (2.0 / n) - 1.0
    ys = 1.0 - (np.arange(n) + 0.5) * (2.0 / n)
    x, y = np.meshgrid(xs, ys)
    img = np.zeros((n, n))
    for value, a, b, x0, y0, deg in ELLIPSES:
        phi = np.deg2rad(deg)
        cp, sp_ = np.cos(phi), np.sin(phi)
        xr = (x - x0) * cp + (y - y0) * sp_
        yr = -(x - x0) * sp_ + (y - y0) * cp
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += value
    return img.ravel()


def add_noise(b: np.ndarray, alpha: float, seed: int) -> np.ndarray:
    """b + alpha * U(-1,1) * max|b|, drawn from a seeded PCG64 generator."""
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    b = np.asarray(b, dtype=np.float64)
    if alpha == 0:
        return b.copy()
    u = seeded_uniform(b.size, seed)
    return b + alpha * u * np.abs(b).max()


def error_metrics(x: np.ndarray, x_ex: np.ndarray) -> tuple[float, float]:
    """Relative L2 and L-infinity errors of x against the exact image x_ex."""
    x = np.asarray(x, dtype=np.float64)
    x_ex = np.asarray(x_ex, dtype=np.float64)
    if x.shape != x_ex.shape:
        raise ValueError("error_metrics: length mismatch")
    norm2 = np.linalg.norm(x_ex)
    norminf = np.abs(x_ex).max() if x_ex.size else 0.0
    if norm2 == 0.0:
        raise ValueError("error_metrics: exact image is identically zero")
    e = x - x_ex
    return float(np.linalg.norm(e) / norm2), float(np.abs(e).max() / norminf)
