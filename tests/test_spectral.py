import numpy as np
import pytest
import scipy.sparse as sp

from wmgtomo.spectral import dense_tg_operator, dense_wtg_operator, spectrum


class TestSirtSpectrum:
    def test_small_hand_system(self):
        # W = [[1,1],[0,2]]: R = diag(1/2, 1/2), C = diag(1, 1/3)
        # S = I - C (W^T R W + lam I) computed by hand
        w = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 2.0]]))
        for lam in (0.0, 0.5):
            s_exact = np.eye(2) - np.array([
                [0.5 + lam, 0.5],
                [0.5 / 3.0, (2.5 + lam) / 3.0],
            ])
            spec = spectrum(w, "sirt-s", lam)
            np.testing.assert_allclose(
                np.sort(spec.eigenvalues.real),
                np.sort(np.linalg.eigvals(s_exact).real), atol=1e-12)

    def test_convergent_on_full_system(self, w16):
        _, w = w16
        spec = spectrum(w, "sirt-s")
        assert np.abs(spec.eigenvalues).max() <= 1.0 + 1e-8

    def test_eigenvectors_returned_sorted(self, w16):
        _, w = w16
        spec = spectrum(w, "sirt-s", with_eigenvectors=True)
        mags = np.abs(spec.eigenvalues)
        assert (np.diff(mags) >= -1e-12).all()
        assert spec.eigenvectors.shape == (256, 256)


class TestPreconditionedSpectrum:
    def test_none_matches_cond(self, w16):
        _, w = w16
        lam = 1.0
        a = (w.T @ w).toarray() + lam * np.eye(256)
        spec = spectrum(w, "normal", lam)
        assert abs(spec.condition_number - np.linalg.cond(a)) <= \
            1e-6 * np.linalg.cond(a)

    def test_wtg_reduces_condition_number(self, w16):
        _, w = w16
        lam = 1.0
        base = spectrum(w, "normal", lam)
        wtg = spectrum(w, "wtg", lam)
        assert wtg.condition_number < base.condition_number / 5

    def test_exact_two_level_coarse_solves_cluster_at_one(self, w16):
        # with exact subspace solves the preconditioned matrix A M^{-1}
        # has no eigenvalue below a fixed positive floor
        _, w = w16
        spec = spectrum(w, "wtg", 1.0)
        assert np.abs(spec.eigenvalues).min() > 0.01

    def test_unknown_kind(self, w16):
        _, w = w16
        with pytest.raises(ValueError):
            spectrum(w, "ilu")

    def test_eigenvectors_only_for_sirt_s(self, w16):
        _, w = w16
        with pytest.raises(ValueError, match="eigenvectors"):
            spectrum(w, "normal", with_eigenvectors=True)


class TestDenseOperators:
    def test_wtg_is_contraction(self, w16):
        # the WTG error propagation must be a strict contraction
        _, w = w16
        g = dense_wtg_operator(w, 16, 1.0)
        assert np.abs(np.linalg.eigvals(g)).max() < 1.0

    def test_tg_contracts_with_smoothing(self, w16):
        _, w = w16
        g = dense_tg_operator(w, 16, 1.0)
        assert np.abs(np.linalg.eigvals(g)).max() < 1.0

    def test_tg_is_smoothed_ll_coarse_correction(self, w16):
        # S (I - R^T (R A R^T)^{-1} R A) S built from dense numpy alone:
        # S = I - C (W^T R_w W + lam I) with C, R_w the inverse column and
        # row sums, and R the LL restriction kron(h, h)
        _, w = w16
        lam = 1.0
        wd = w.toarray()
        eye = np.eye(256)
        a = wd.T @ wd + lam * eye
        rows, cols = wd.sum(axis=1), wd.sum(axis=0)
        r_w = np.divide(1.0, rows, out=np.zeros_like(rows), where=rows > 0)
        c = np.divide(1.0, cols, out=np.zeros_like(cols), where=cols > 0)
        s = eye - c[:, None] * (wd.T @ (r_w[:, None] * wd) + lam * eye)
        h = np.kron(np.eye(8), [1.0, 1.0]) / np.sqrt(2.0)
        r_ll = np.kron(h, h)
        coarse = r_ll @ a @ r_ll.T
        expected = s @ (eye - r_ll.T @ np.linalg.solve(coarse, r_ll @ a)) @ s
        got = dense_tg_operator(w, 16, lam)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
