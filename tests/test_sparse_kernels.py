import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from wmgtomo.sparse_kernels import (DimensionMismatchError,
                                    NotPositiveDefiniteError, SPGEMM_DROP_TOL,
                                    cholesky_factor, cholesky_solve,
                                    seeded_uniform, spgemm)


class TestSpgemm:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(0)
        a = sp.random(13, 9, density=0.4, random_state=rng, format="csr")
        b = sp.random(9, 7, density=0.4, random_state=rng, format="csr")
        c = spgemm(a, b)
        assert isinstance(c, sp.csr_matrix)
        np.testing.assert_allclose(c.toarray(), a.toarray() @ b.toarray(),
                                   atol=1e-14)

    def test_cancellation_is_dropped(self):
        # rows (1, 1) and (1, -1) against column (1, -1): one exact zero
        a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]))
        b = sp.csr_matrix(np.array([[1.0], [1.0]]))
        c = spgemm(a, b)
        assert c.nnz == 1
        assert c[0, 0] == 2.0

    def test_tiny_fill_is_dropped(self):
        a = sp.csr_matrix(np.array([[SPGEMM_DROP_TOL / 10]]))
        b = sp.csr_matrix(np.array([[1.0]]))
        assert spgemm(a, b).nnz == 0

    def test_dimension_mismatch(self):
        a = sp.identity(3, format="csr")
        b = sp.identity(4, format="csr")
        with pytest.raises(DimensionMismatchError):
            spgemm(a, b)


class TestCholesky:
    def test_known_factor(self):
        # [[4,2],[2,3]] factors as L = [[2,0],[1,sqrt(2)]]
        f = cholesky_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert f.orbits.size == 2
        np.testing.assert_allclose(
            f.lower, [[[2.0, 0.0], [1.0, np.sqrt(2.0)]]], atol=1e-14)

    def test_solve_matches_direct(self, spd8):
        a, rhs, x_direct = spd8
        f = cholesky_factor(a)
        np.testing.assert_allclose(f.solve(rhs), x_direct, atol=1e-10)
        np.testing.assert_allclose(cholesky_solve(f, rhs), x_direct,
                                   atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            cholesky_factor(np.ones((2, 3)))

    def test_unsplit_factor_is_one_block_of_lapack_bytes(self, spd8):
        # without orbits G is the one block of the orbit arange(N), and the
        # batched calls on it give the same bytes as LAPACK on G itself
        a, rhs, _ = spd8
        f = cholesky_factor(a)
        assert f.lower.shape == (1, 8, 8)
        want = scipy.linalg.cholesky(a, lower=True)
        assert f.lower[0].tobytes() == want.tobytes()
        for b in (rhs, np.random.default_rng(9).standard_normal((8, 3))):
            x = scipy.linalg.cho_solve((want, True), b)
            assert f.solve(b).tobytes() == x.tobytes()

    def test_solve_rejects_wrong_length(self, spd8):
        a, _, _ = spd8
        with pytest.raises(DimensionMismatchError):
            cholesky_factor(a).solve(np.ones(5))


def sector_group(q, seed):
    """Random orbits (4, q) of two commuting fixed-point-free involutions F
    and R on 4q indices, with F, R and FR as index maps."""
    orbits = np.random.default_rng(seed).permutation(4 * q).reshape(4, q)
    maps = []
    for images in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
        x = np.empty(4 * q, dtype=np.int64)
        x[orbits] = orbits[list(images)]
        maps.append(x)
    return orbits, maps


def group_average(a, maps):
    """(A + F A F + R A R + FR A FR) / 4; (X A X)[i, j] = A[X i, X j]."""
    return (a + sum(a[np.ix_(x, x)] for x in maps)) / 4


def random_spd(n, seed):
    b = np.random.default_rng(seed).standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


class TestSectorCholesky:
    """With index orbits under F and R, a Gram matrix that commutes with
    both is factored as four sector blocks; any other is refused."""

    def test_commuting_matrix_splits_into_four_blocks(self):
        q = 6
        orbits, maps = sector_group(q, 0)
        a = group_average(random_spd(4 * q, 1), maps)
        f = cholesky_factor(a, orbits)
        assert f.lower.shape == (4, q, q)
        rhs = np.random.default_rng(2).standard_normal(4 * q)
        want = np.linalg.solve(a, rhs)
        assert np.abs(f.solve(rhs) - want).max() <= 1e-12 * np.abs(want).max()
        many = np.random.default_rng(3).standard_normal((4 * q, 3))
        np.testing.assert_allclose(f.solve(many), np.linalg.solve(a, many),
                                   rtol=0, atol=1e-12)
        assert np.abs(f.matrix() - a).max() <= 1e-12 * np.abs(a).max()

    def test_matrix_that_does_not_commute_is_refused(self):
        # the caller certifies the commutation; the blocks built from the
        # first block row of any other G are not symmetric
        q = 6
        orbits, _ = sector_group(q, 0)
        for seed in range(4, 9):
            a = random_spd(4 * q, seed)
            with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
                cholesky_factor(a, orbits)
            assert cholesky_factor(a).lower.shape == (1, 4 * q, 4 * q)

    def test_asymmetric_block_is_refused(self):
        # an antisymmetric part that commutes with F and R has no
        # off-sector part, so only the blocks' own check can catch it
        q = 6
        orbits, maps = sector_group(q, 0)
        k = np.random.default_rng(6).standard_normal((4 * q, 4 * q))
        a = group_average(random_spd(4 * q, 1) + k - k.T, maps)
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            cholesky_factor(a, orbits)

    def test_orbits_must_cover_the_matrix(self):
        orbits, maps = sector_group(3, 0)
        a = group_average(random_spd(12, 1), maps)
        with pytest.raises(DimensionMismatchError):
            cholesky_factor(a[:8, :8], orbits)

    def test_indefinite_block_is_refused(self):
        q = 3
        orbits, maps = sector_group(q, 0)
        a = group_average(random_spd(4 * q, 1), maps)
        a -= 2 * np.abs(a).max() * np.eye(4 * q)
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor(a, orbits)


class TestSeededUniform:
    def test_frozen_values(self):
        # frozen from numpy PCG64 with seed 42
        np.testing.assert_allclose(
            seeded_uniform(4, 42),
            [0.5479121, -0.12224312, 0.71719584, 0.39473606], atol=1e-8)

    def test_deterministic(self):
        np.testing.assert_array_equal(seeded_uniform(100, 5),
                                      seeded_uniform(100, 5))
        assert not np.array_equal(seeded_uniform(100, 5),
                                  seeded_uniform(100, 6))

    def test_open_interval(self):
        u = seeded_uniform(10000, 0)
        assert u.min() > -1.0 and u.max() < 1.0

    def test_count_validation(self):
        assert seeded_uniform(0, 1).size == 0
        with pytest.raises(ValueError):
            seeded_uniform(-1, 1)
