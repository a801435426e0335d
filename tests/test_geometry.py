import numpy as np
import pytest

from wmgtomo.geometry import (Geometry, apply, apply_transpose,
                              build_geometry, build_projector)
from wmgtomo.sparse_kernels import DimensionMismatchError


class TestGeometry:
    def test_angle_grid(self):
        g = build_geometry(8, 8, 4)
        np.testing.assert_allclose(
            g.angles, [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4], atol=1e-15)
        assert g.n_image == 64
        assert g.n_data == 32

    def test_rejects_bad_sizes(self):
        for bad in [(0, 8, 4), (8, 0, 4), (8, 8, 0)]:
            with pytest.raises(ValueError):
                build_geometry(*bad)

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError):
            Geometry(4, 4, 2, angles=np.array([0.0, np.pi]))
        with pytest.raises(ValueError):
            Geometry(4, 4, 2, angles=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Geometry(4, 4, 2, angles=np.array([0.5, 0.2]))


class TestLineKernel:
    def test_vertical_rays_hit_pixel_columns(self):
        # angle 0: each of the 4 rays runs down one pixel column; every
        # crossed pixel gets weight exactly 1.0
        g = build_geometry(4, 4, 1)
        d = build_projector(g).toarray()
        for det in range(4):
            cols = np.nonzero(d[det])[0]
            np.testing.assert_array_equal(cols % 4, det)
            np.testing.assert_array_equal(d[det, cols], 1.0)
        np.testing.assert_array_equal(d.sum(axis=1), 4.0)

    def test_horizontal_rays_hit_pixel_rows(self):
        # angle pi/2 is the second of two angles
        g = build_geometry(4, 4, 2)
        d = build_projector(g).toarray()[4:]
        for det in range(4):
            cols = np.nonzero(d[det])[0]
            assert len(set(cols // 4)) == 1
            np.testing.assert_array_equal(d[det, cols], 1.0)

    def test_diagonal_chord_is_exact(self):
        # the central ray at 45 degrees crosses the full diagonal of an
        # 8x8 grid; intersection lengths must sum to the exact chord 8*sqrt(2)
        g = build_geometry(8, 11, 4)
        w = build_projector(g)
        row_sums = np.asarray(w.sum(axis=1)).ravel()
        central = 1 * 11 + 5  # angle pi/4, middle detector
        assert abs(row_sums[central] - 8 * np.sqrt(2)) < 1e-12

    def test_rays_missing_grid_give_empty_rows(self):
        # 12 detectors against a 4x4 grid: the outermost rays at angle 0
        # pass entirely outside the image
        g = build_geometry(4, 12, 1)
        w = build_projector(g)
        counts = np.diff(w.indptr)
        assert counts[0] == 0 and counts[-1] == 0
        assert counts[4:8].min() > 0  # central rays do hit

    def test_nonnegative_weights(self, w40):
        _, w = w40
        assert w.data.min() >= 0.0

    def test_sparsity_per_row(self, w40):
        # a ray crosses at most 2n-1 pixels of an n-grid
        _, w = w40
        assert np.diff(w.indptr).max() <= 2 * 40 - 1


class TestApply:
    def test_adjoint_identity(self, w40):
        # <W x, y> == <x, W^T y> to near machine precision
        g, w = w40
        rng = np.random.default_rng(3)
        x = rng.standard_normal(g.n_image)
        y = rng.standard_normal(g.n_data)
        lhs = apply(w, x) @ y
        rhs = x @ apply_transpose(w, y)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_dimension_checks(self, w16):
        _, w = w16
        with pytest.raises(DimensionMismatchError):
            apply(w, np.ones(7))
        with pytest.raises(DimensionMismatchError):
            apply_transpose(w, np.ones(7))
