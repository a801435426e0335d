import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from wmgtomo.multilevel import (BAND_IDS, WmgHierarchy,
                                build_intergrid_set, build_wmg_hierarchy,
                                wmg_preconditioner, wtg_apply)
from wmgtomo.geometry import Geometry, build_projector, gram_rows
from wmgtomo.solvers import (SolverConfig, bicgstab_solve, dense_normal,
                             normal_operator)
from wmgtomo.spectral import dense_wtg_operator
from wmgtomo.sparse_kernels import (DimensionMismatchError,
                                    NotPositiveDefiniteError, cholesky_factor,
                                    spgemm)


class TestHaar1d:
    def test_stencils(self):
        # on a 4-by-4 grid each band is the Kronecker product (y factor
        # first) of the 1D scaling filter s and wavelet filter j
        c = 1.0 / np.sqrt(2.0)
        s = np.array([[c, c, 0, 0], [0, 0, c, c]])
        j = np.array([[c, -c, 0, 0], [0, 0, c, -c]])
        grids = build_intergrid_set(4)
        for band, (y, x) in {"LL": (s, s), "LH": (j, s), "HL": (s, j),
                             "HH": (j, j)}.items():
            np.testing.assert_allclose(grids[band].toarray(), np.kron(y, x))

    def test_rejects_odd(self):
        for bad in (1, 3, 0):
            with pytest.raises(ValueError):
                build_intergrid_set(bad)


def haar_identity_gaps(n):
    """Max-norm gaps of the Haar identities on an n-by-n grid: each band's
    rows orthonormal, the bands mutually orthogonal, and sum_b R_b^T R_b = I.
    Sparse products against sp.identity: a dense n^2-by-n^2 identity would
    take 134 MB at n = 64."""
    grids = build_intergrid_set(n)
    gaps = {"orthonormal": 0.0, "cross": 0.0}
    for i, a in enumerate(BAND_IDS):
        for b in BAND_IDS[i:]:
            prod = grids[a] @ grids[b].T
            if a == b:
                prod = prod - sp.identity(n * n // 4)
            key = "orthonormal" if a == b else "cross"
            gaps[key] = max(gaps[key], abs(prod).max())
    total = sum(grids[b].T @ grids[b] for b in BAND_IDS)
    gaps["reconstruction"] = abs(total - sp.identity(n * n)).max()
    return gaps


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
class TestIntergridOrthogonality:
    """The sides the hierarchy uses, pinned."""

    def test_orthonormal_rows(self, n):
        assert haar_identity_gaps(n)["orthonormal"] <= 1e-14

    def test_cross_orthogonality(self, n):
        assert haar_identity_gaps(n)["cross"] <= 1e-14

    def test_perfect_reconstruction(self, n):
        # the four subspace projectors resolve the identity
        assert haar_identity_gaps(n)["reconstruction"] <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True)
@given(half_side=st.integers(1, 32))
def test_haar_bands_are_orthonormal_and_resolve_the_identity(half_side):
    assert max(haar_identity_gaps(2 * half_side).values()) <= 1e-14


class TestIntergridStructure:
    def test_band_orientation(self):
        # LH is low in x / high in y: it must annihilate images constant
        # along y (all rows equal) but not images constant along x
        grids = build_intergrid_set(8)
        const_y = np.tile(np.arange(8.0), 8)          # rows identical
        const_x = np.repeat(np.arange(8.0), 8)        # columns identical
        assert np.abs(grids["LH"] @ const_y).max() <= 1e-13
        assert np.abs(grids["LH"] @ const_x).max() > 0.1
        assert np.abs(grids["HL"] @ const_x).max() <= 1e-13
        assert np.abs(grids["HL"] @ const_y).max() > 0.1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(half_side=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1))
def test_bands_are_even_or_odd_under_the_180_degree_rotation(half_side,
                                                             seed):
    # reversing the image reverses each band's coefficients: LL and HH keep
    # their sign, LH and HL (one Haar wavelet factor) flip it
    n = 2 * half_side
    v = np.random.default_rng(seed).standard_normal(n * n)
    sign = {"LL": 1.0, "LH": -1.0, "HL": -1.0, "HH": 1.0}
    for band, r in build_intergrid_set(n).items():
        np.testing.assert_allclose(r @ v[::-1], sign[band] * (r @ v)[::-1],
                                   rtol=0, atol=1e-13)


class TestHierarchy:
    def test_structure(self, w16):
        g, w = w16
        h = build_wmg_hierarchy(w, g, 1.0, 3)
        assert isinstance(h, WmgHierarchy)
        root = h.root
        assert root.side == 16 and not root.is_coarsest
        assert set(root.children) == set(BAND_IDS)
        child = root.children["LL"]
        assert child.side == 8 and not child.is_coarsest
        grandchild = child.children["HH"]
        assert grandchild.side == 4 and grandchild.is_coarsest
        assert grandchild.coarse_solve.orbits.size == 16
        assert grandchild.path == "LL/HH"

    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
    def test_galerkin_identity(self, w40, lam):
        # Gram(W R^T) + lam I == R (W^T W + lam I) R^T exactly, because the
        # restrictions have orthonormal rows
        g, w = w40
        h = build_wmg_hierarchy(w, g, lam, 2)
        grids = build_intergrid_set(40)
        rng = np.random.default_rng(11)
        for band in BAND_IDS:
            r = grids[band]
            v = rng.standard_normal(400)
            via_fine = r @ (w.T @ (w @ (r.T @ v))) + lam * v
            via_gram = child_apply(h, band, v)
            assert np.abs(via_fine - via_gram).max() <= 1e-10 * max(
                1.0, np.abs(via_fine).max())

    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_apply_system_is_the_normal_operator(self, w16, lam):
        g, w = w16
        h = build_wmg_hierarchy(w, g, lam, 3)
        rng = np.random.default_rng(5)
        for node in (h.root, h.root.children["HL"]):
            v = rng.standard_normal(node.dim)
            assert np.array_equal(node.apply_system(v),
                                  normal_operator(node.factor, lam)(v))

    def test_validation(self, w16):
        g, w = w16
        with pytest.raises(ValueError):
            build_wmg_hierarchy(w, g, 0.0, 1)
        with pytest.raises(ValueError):
            build_wmg_hierarchy(w, g, -1.0, 2)
        with pytest.raises(ValueError):
            build_wmg_hierarchy(w, g, np.nan, 2)
        with pytest.raises(ValueError):
            build_wmg_hierarchy(w, g, 0.0, 6)  # 16 not divisible by 32
        with pytest.raises(DimensionMismatchError):
            build_wmg_hierarchy(w, Geometry(16, 24, 25), 0.0, 2)
        # right shape (576x256), other scan: the rows do not mirror as g says
        other = Geometry(16, 48, 12)
        with pytest.raises(DimensionMismatchError, match="mirror"):
            build_wmg_hierarchy(build_projector(other), g, 0.0, 2)

    def test_rows_that_mirror_but_do_not_rotate_are_refused(self, w16):
        # zero the ray at angle 1, detector 4, and its mirror twin at angle
        # m - 1: the mirror still holds, but the ray's rotated partner
        # (detector d - 1 - 4) does not match it
        g, w = w16
        d = g.n_detectors
        row, twin = d + 4, (g.n_angles - 1) * d + 4
        assert w[row].nnz
        broken = w.tolil()
        broken[row] = 0.0
        broken[twin] = 0.0
        with pytest.raises(DimensionMismatchError, match="rotation"):
            build_wmg_hierarchy(broken.tocsr(), g, 0.0, 2)

    def test_singular_coarse_block_raises(self):
        # one axis-aligned angle: the projector annihilates all vertically
        # oscillating modes, so an HH coarse Gram matrix is singular
        g = Geometry(4, 4, 1)
        w = build_projector(g)
        with pytest.raises(NotPositiveDefiniteError):
            build_wmg_hierarchy(w, g, 0.0, 2)


def coarse_pairs(h):
    """(node, full-ray coarse factor) for every coarsest node of h."""
    stack = [h.root]
    while stack:
        node = stack.pop()
        for band, child in node.children.items():
            if child.is_coarsest:
                yield child, spgemm(node.factor, node.intergrid[band].T)
            else:
                stack.append(child)


class TestMirroredCoarseGram:
    """Coarsest Gram matrices read a quarter of the rays through the scan's
    theta -> pi - theta mirror and its 180-degree rotation; dense_normal
    over all rays is the reference."""

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("g", [
        pytest.param(Geometry(16, 24, 24), id="even-m"),
        pytest.param(Geometry(16, 16, 25), id="odd-m"),
        # offsets on grid lines: the axis-aligned rays run along pixel
        # boundaries, and they are self-paired (angle pi/2) or unpaired (0)
        pytest.param(Geometry(16, 17, 24), id="detector-parity"),
    ])
    def test_matches_full_ray_gram(self, g, levels, lam):
        assert gram_rows(g)[0].size  # the mirrored path runs
        h = build_wmg_hierarchy(build_projector(g), g, lam, levels)
        nodes = 0
        for node, p in coarse_pairs(h):
            ref = dense_normal(p, 0.0)
            got = node.coarse_solve.matrix() - lam * np.eye(node.dim)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
            nodes += 1
        assert nodes == 4 ** (levels - 1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(half_side=st.integers(1, 8), n_detectors=st.integers(1, 15),
           m=st.integers(1, 12))
    def test_random_scans_match_full_ray_gram(self, half_side, n_detectors,
                                              m):
        # odd detector counts put a middle ray in every paired angle
        n = 2 * half_side
        g = Geometry(n, n_detectors, m)
        w = build_projector(g)
        lam = 1.0
        for levels in (2, 3) if n % 4 == 0 else (2,):
            h = build_wmg_hierarchy(w, g, lam, levels)
            for node, p in coarse_pairs(h):
                ref = dense_normal(p, 0.0)
                got = node.coarse_solve.matrix() - lam * np.eye(node.dim)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("lam", [1.0, 2.5])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_scan_without_pairs_is_bit_identical(self, levels, lam):
        # angles 0 and pi/2 are both self-paired; two angles leave the HH
        # Gram matrices singular, so lambda > 0
        g = Geometry(16, 16, 2)
        quarter, middle, _ = gram_rows(g)
        assert quarter.size == middle.size == 0
        h = build_wmg_hierarchy(build_projector(g), g, lam, levels)
        for node, p in coarse_pairs(h):
            want = cholesky_factor(dense_normal(p, lam)).lower
            assert np.array_equal(node.coarse_solve.lower, want)


class TestSectorCoarseSolves:
    """A coarsest Gram that commutes with the coarse x-flip F and the
    180-degree rotation R is stored as four sector blocks; one whose
    boundary rays break that symmetry, or of odd side, keeps one factor."""

    @staticmethod
    def solve_gaps(h, lam):
        """(stored factor shape, max relative solve gap against
        dense_normal) for each coarsest node."""
        rng = np.random.default_rng(8)
        out = []
        for node, p in coarse_pairs(h):
            r = rng.standard_normal(node.dim)
            want = np.linalg.solve(dense_normal(p, lam), r)
            gap = np.abs(node.coarse_solve.solve(r) - want).max()
            out.append((node.coarse_solve.lower.shape,
                        gap / np.abs(want).max()))
        return out

    def test_benchmark_like_scan_splits_every_node(self, w16):
        g, w = w16
        gaps = self.solve_gaps(build_wmg_hierarchy(w, g, 1.0, 3), 1.0)
        assert [shape for shape, _ in gaps] == [(4, 4, 4)] * 16
        assert max(gap for _, gap in gaps) <= 1e-12

    @pytest.mark.parametrize("g", [Geometry(16, 15, 6), Geometry(8, 3, 6)])
    def test_asymmetric_boundary_rays_keep_one_factor(self, g):
        # integer detector offsets on an even grid: boundary rays give
        # their whole length to one side, so some Grams do not commute
        h = build_wmg_hierarchy(build_projector(g), g, 1.0, 2)
        gaps = self.solve_gaps(h, 1.0)
        assert any(shape[0] == 1 for shape, _ in gaps)
        assert max(gap for _, gap in gaps) <= 1e-12

    def test_odd_coarsest_side_keeps_one_factor(self):
        g = Geometry(10, 12, 8)
        assert gram_rows(g)[0].size
        h = build_wmg_hierarchy(build_projector(g), g, 1.0, 2)
        gaps = self.solve_gaps(h, 1.0)
        assert [shape for shape, _ in gaps] == [(1, 25, 25)] * 4
        assert max(gap for _, gap in gaps) <= 1e-12


def child_apply(h, band, v):
    node = h.root.children[band]
    if node.is_coarsest:
        # recover the operator action from the cached factorization
        return node.coarse_solve.matrix() @ v
    return node.apply_system(v)


class TestWtgAgainstDenseOracle:
    """wtg_apply from a zero guess must equal (I - G) A^{-1} with G the
    densely assembled error-propagation operator."""

    def test_two_level_16(self, w16):
        g, w = w16
        lam = 1.0
        a = (w.T @ w).toarray() + lam * np.eye(256)
        g_err = dense_wtg_operator(w, lam)
        h = build_wmg_hierarchy(w, g, lam, 2)
        rng = np.random.default_rng(2)
        for _ in range(3):
            r = rng.standard_normal(256)
            expected = (np.eye(256) - g_err) @ np.linalg.solve(a, r)
            got = wtg_apply(h.root, r)
            assert np.abs(got - expected).max() <= 1e-9

    def test_dimension_check(self, w16):
        g, w = w16
        h = build_wmg_hierarchy(w, g, 1.0, 2)
        with pytest.raises(Exception):
            wtg_apply(h.root, np.ones(7))


class TestPreconditionedSolves:
    def test_wmg_accelerates_bicgstab(self, w16, phantom16):
        g, w = w16
        lam = 1.0
        op = normal_operator(w, lam)
        f = w.T @ (w @ phantom16)
        h = build_wmg_hierarchy(w, g, lam, 2)
        cfg = SolverConfig(max_iterations=200, residual_tolerance=1e-10)
        _, rec_plain = bicgstab_solve(op, f, cfg=cfg)
        _, rec_wmg = bicgstab_solve(op, f, precond=wmg_preconditioner(h),
                                    cfg=cfg)
        assert rec_wmg.iterations[-1] < rec_plain.iterations[-1]
        assert rec_wmg.rel_residual[-1] <= 1e-10
