import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from wmgtomo.geometry import (Geometry, _line_entries, _snapped_trig, apply,
                              apply_transpose, build_projector,
                              check_projector, gram_rows)
from wmgtomo.sparse_kernels import DimensionMismatchError


def chord(x0, y0, dx, dy, half):
    """Length of the line (x0, y0) + t (dx, dy), |(dx, dy)| = 1, inside the
    square [-half, half)^2 of the pixel grid, by Liang-Barsky clipping."""
    t_lo, t_hi = -np.inf, np.inf
    for o, d in ((x0, dx), (y0, dy)):
        if d == 0.0:
            # pixels are half-open, so a line on the far edge misses them
            if not -half <= o < half:
                return 0.0
        else:
            a, b = sorted(((-half - o) / d, (half - o) / d))
            t_lo, t_hi = max(t_lo, a), min(t_hi, b)
    return max(t_hi - t_lo, 0.0)


class TestGeometry:
    def test_angle_grid(self):
        g = Geometry(8, 8, 4)
        np.testing.assert_allclose(
            g.angles, [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4], atol=1e-15)
        assert g.n_image == 64
        assert g.n_data == 32

    def test_rejects_bad_sizes(self):
        for bad in [(0, 8, 4), (8, 0, 4), (8, 8, 0)]:
            with pytest.raises(ValueError):
                Geometry(*bad)

    def test_compares_and_hashes_by_value(self):
        g = Geometry(16, 24, 24)
        assert g == Geometry(16, 24, 24)
        assert hash(g) == hash(Geometry(16, 24, 24))
        assert g != Geometry(16, 48, 12)
        assert {g: "scan"}[Geometry(16, 24, 24)] == "scan"


class TestLineKernel:
    def test_vertical_rays_hit_pixel_columns(self):
        # angle 0: each of the 4 rays runs down one pixel column; every
        # crossed pixel gets weight exactly 1.0
        g = Geometry(4, 4, 1)
        d = build_projector(g).toarray()
        for det in range(4):
            cols = np.nonzero(d[det])[0]
            np.testing.assert_array_equal(cols % 4, det)
            np.testing.assert_array_equal(d[det, cols], 1.0)
        np.testing.assert_array_equal(d.sum(axis=1), 4.0)

    def test_horizontal_rays_hit_pixel_rows(self):
        # angle pi/2 is the second of two angles
        g = Geometry(4, 4, 2)
        d = build_projector(g).toarray()[4:]
        for det in range(4):
            cols = np.nonzero(d[det])[0]
            assert len(set(cols // 4)) == 1
            np.testing.assert_array_equal(d[det, cols], 1.0)

    def test_diagonal_chord_is_exact(self):
        # the central ray at 45 degrees crosses the full diagonal of an
        # 8x8 grid; intersection lengths must sum to the exact chord 8*sqrt(2)
        g = Geometry(8, 11, 4)
        w = build_projector(g)
        row_sums = np.asarray(w.sum(axis=1)).ravel()
        central = 1 * 11 + 5  # angle pi/4, middle detector
        assert abs(row_sums[central] - 8 * np.sqrt(2)) < 1e-12

    def test_rays_missing_grid_give_empty_rows(self):
        # 12 detectors against a 4x4 grid: the outermost rays at angle 0
        # pass entirely outside the image
        g = Geometry(4, 12, 1)
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


    @pytest.mark.parametrize("sizes", [(16, 24, 24), (40, 40, 100),
                                       (15, 15, 7), (8, 7, 8), (33, 64, 4)])
    def test_csr_equals_coo_assembly_of_the_same_entries(self, sizes):
        # the reference is the COO route: one row id per entry, global
        # (row, col) sort, duplicate summation, conversion to CSR
        g = Geometry(*sizes)
        counts, cols, vals = _line_entries(g)
        rows = np.repeat(np.arange(g.n_data), counts)
        ref = sp.coo_matrix((vals, (rows, cols)), shape=(g.n_data, g.n_image))
        ref.sum_duplicates()
        ref = ref.tocsr()
        ref.sort_indices()
        w = build_projector(g)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(w, name), getattr(ref, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), n_detectors=st.integers(1, 15),
       n_angles=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_projector_rows_are_chords_and_transpose_is_adjoint(
        n, n_detectors, n_angles, seed):
    g = Geometry(n, n_detectors, n_angles)
    w = build_projector(g)
    assert w.shape == (g.n_data, g.n_image)
    # canonical CSR: columns strictly increasing within every row
    rows = np.repeat(np.arange(g.n_data), np.diff(w.indptr))
    same_row = rows[1:] == rows[:-1]
    assert (np.diff(w.indices)[same_row] > 0).all()
    assert w.has_canonical_format
    assert (w.data > 0).all()

    offsets = np.arange(n_detectors) - (n_detectors - 1) / 2.0
    expected = []
    for theta in g.angles:
        c, s = _snapped_trig(theta)
        expected += [chord(o * c, o * s, -s, c, n / 2.0) for o in offsets]
    row_sums = np.asarray(w.sum(axis=1)).ravel()
    np.testing.assert_allclose(row_sums, expected, rtol=1e-12, atol=1e-12)

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(g.n_image)
    y = rng.standard_normal(g.n_data)
    scale = np.abs(y) @ (abs(w) @ np.abs(x))
    assert abs(apply(w, x) @ y - x @ apply_transpose(w, y)) <= 1e-13 * scale


SCANS = dict(n=st.integers(1, 10), n_detectors=st.integers(1, 15),
             m=st.integers(1, 12))


def assert_rows_map(w, rows, partners, cols):
    """Row t = partners[j] of W holds row r = rows[j]'s weights moved to the
    image columns cols: indices exact, data to 1e-12."""
    assert partners.shape == rows.shape
    for r, t in zip(rows, partners):
        ray, image = w[r], w[t]
        order = np.argsort(cols[ray.indices])
        np.testing.assert_array_equal(cols[ray.indices][order], image.indices)
        np.testing.assert_allclose(ray.data[order], image.data,
                                   rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 10), n_detectors=st.integers(1, 12),
       m=st.integers(1, 12))
def test_mirror_rows_pair_each_ray_with_its_x_mirror(n, n_detectors, m):
    # angle k pi / m pairs with (m - k) pi / m; angle 0 and, for even m,
    # angle pi/2 have no distinct partner
    g = Geometry(n, n_detectors, m)
    w = build_projector(g)
    quarter, middle, single = gram_rows(g)

    partner = {k: m - k for k in range(1, m) if 2 * k != m}
    detectors = np.arange(n_detectors)

    def rows(ks):
        return np.array([k * n_detectors + detectors for k in ks],
                        dtype=np.int64).reshape(-1)

    np.testing.assert_array_equal(
        single, rows([k for k in range(m) if k not in partner]))
    # the rotation of Q fills up the rest of the lower paired angles
    k, i = divmod(quarter, n_detectors)
    turned = k * n_detectors + n_detectors - 1 - i
    np.testing.assert_array_equal(
        np.sort(np.concatenate([quarter, middle, turned])),
        rows([k for k in range(m) if k in partner and k < partner[k]]))

    # every ray of an angle with a partner: x-mirror of a column is
    # (y, x) -> (y, n - 1 - x)
    paired = rows(sorted(partner))
    k, i = divmod(paired, n_detectors)
    flip = np.arange(g.n_image).reshape(n, n)[:, ::-1].ravel()
    assert_rows_map(w, paired, (m - k) * n_detectors + i, flip)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**SCANS)
def test_rotation_rows_pair_each_ray_with_its_180_degree_turn(
        n, n_detectors, m):
    # detector i pairs with d - 1 - i at the same angle; the middle detector
    # of an odd count is its own partner
    g = Geometry(n, n_detectors, m)
    w = build_projector(g)
    quarter, middle, _ = gram_rows(g)
    n_paired = (m + 1) // 2 - 1

    assert middle.size == (n_detectors % 2) * n_paired
    assert quarter.size == (n_detectors // 2) * n_paired
    np.testing.assert_array_equal(middle % n_detectors, n_detectors // 2)
    k, i = divmod(quarter, n_detectors)
    assert (i < n_detectors // 2).all()
    # the rotation reverses a flat image vector: column j -> N - 1 - j; the
    # middle ray is its own turn
    rev = np.arange(g.n_image)[::-1]
    assert_rows_map(w, quarter, k * n_detectors + n_detectors - 1 - i, rev)
    assert_rows_map(w, middle, middle, rev)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**SCANS)
def test_gram_rows_and_their_images_cover_every_ray_once(n, n_detectors, m):
    # the mirror F sends angle k to m - k, the rotation R detector i to
    # d - 1 - i; S, Q, M, F Q, R Q, F R Q and F M are W's rows exactly once,
    # which is what H_S + (I+F)[H_M + (I+R) H_Q] = W^T W rests on
    g = Geometry(n, n_detectors, m)
    w = build_projector(g)
    quarter, middle, single = gram_rows(g)

    def mirror(rows):
        k, i = divmod(rows, n_detectors)
        return (m - k) * n_detectors + i

    def turn(rows):
        k, i = divmod(rows, n_detectors)
        return k * n_detectors + n_detectors - 1 - i

    # where each map sends image column j: F flips x, R reverses the vector
    flip = np.arange(g.n_image).reshape(n, n)[:, ::-1].ravel()
    rev = np.arange(g.n_image)[::-1]
    images = [(quarter, mirror(quarter), flip), (quarter, turn(quarter), rev),
              (quarter, mirror(turn(quarter)), flip[rev]),
              (middle, mirror(middle), flip)]
    cover = np.concatenate([single, quarter, middle]
                           + [to for _, to, _ in images])
    np.testing.assert_array_equal(np.sort(cover), np.arange(g.n_data))

    for rows, partners, cols in images:
        assert_rows_map(w, rows, partners, cols)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**SCANS)
def test_check_projector_accepts_every_scan_its_own_projector(
        n, n_detectors, m):
    g = Geometry(n, n_detectors, m)
    check_projector(build_projector(g), g)


class TestCheckProjector:
    def test_wrong_shape_is_refused(self, w16):
        _, w = w16
        with pytest.raises(DimensionMismatchError, match="expected"):
            check_projector(w, Geometry(16, 24, 25))

    def test_same_shape_from_another_scan_is_refused(self, w16):
        # 576x256 both, but 48 detectors at 12 angles do not mirror as 24
        # detectors at 24 angles do
        g, _ = w16
        other = build_projector(Geometry(16, 48, 12))
        with pytest.raises(DimensionMismatchError, match="mirror"):
            check_projector(other, g)

    def test_rows_that_mirror_but_do_not_rotate_are_refused(self, w16):
        # zero the ray at angle 1, detector 4, and its mirror at angle m - 1:
        # the mirror still holds, the rotation to detector d - 1 - 4 does not
        g, w = w16
        d = g.n_detectors
        broken = w.tolil()
        broken[d + 4] = 0.0
        broken[(g.n_angles - 1) * d + 4] = 0.0
        with pytest.raises(DimensionMismatchError, match="rotation"):
            check_projector(broken.tocsr(), g)


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
