import inspect

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wmgtomo.cli import setup_solve
from wmgtomo.multilevel import build_wmg_hierarchy, wmg_preconditioner
from wmgtomo.phantom import add_noise, shepp_logan
from wmgtomo.sparse_kernels import DimensionMismatchError
from wmgtomo.solvers import (ConvergenceRecord, STATUS_BREAKDOWN,
                             STATUS_CONVERGED, STATUS_MAX_ITERATIONS,
                             STATUS_NON_FINITE, SolverConfig, bicgstab_solve,
                             dense_normal, normal_operator, sirt_scaling,
                             sirt_solve)


class TestConfigAndRecord:
    def test_config_validation(self):
        assert SolverConfig(max_iterations=0).max_iterations == 0
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=-1)
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                SolverConfig(residual_tolerance=bad)


class TestSirtScaling:
    def test_hand_values(self):
        w = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]]))
        c, r = sirt_scaling(w)
        np.testing.assert_allclose(r, [1 / 3, 0.0, 1 / 3])
        np.testing.assert_allclose(c, [1 / 4, 1 / 2])


class TestSirtSolve:
    def test_fixed_point_unregularized(self, w16, phantom16):
        # consistent data: the error against the generating image shrinks
        _, w = w16
        b = w @ phantom16
        cfg = SolverConfig(max_iterations=1000)
        x, rec = sirt_solve(w, b, 0.0, cfg, x_ex=phantom16)
        assert rec.rel_err_l2[-1] < 0.05
        assert rec.rel_err_l2[-1] < rec.rel_err_l2[0]

    def test_regularized_fixed_point_equation(self, w16, phantom16):
        # the limit solves (W^T R W + lam I) x = W^T R b
        _, w = w16
        lam = 0.5
        b = w @ phantom16
        x, _ = sirt_solve(w, b, lam, SolverConfig(max_iterations=4000))
        _, r = sirt_scaling(w)
        lhs = w.T @ (r * (w @ x)) + lam * x
        rhs = w.T @ (r * b)
        assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(rhs)

    def test_iteration_zero_logged_as_one(self, w16, phantom16):
        _, w = w16
        x, rec = sirt_solve(w, w @ phantom16, 0.0,
                            SolverConfig(max_iterations=3))
        assert rec.iterations == [0, 1, 2, 3]
        assert rec.rel_residual[0] == 1.0
        assert rec.rel_err_l2[0] is None
        assert rec.status == STATUS_MAX_ITERATIONS
        assert all(b >= a for a, b in zip(rec.seconds, rec.seconds[1:]))

    def test_tolerance_stop(self, w16, phantom16):
        _, w = w16
        cfg = SolverConfig(max_iterations=500, residual_tolerance=0.5)
        _, rec = sirt_solve(w, w @ phantom16, 0.0, cfg)
        assert rec.status == STATUS_CONVERGED
        assert rec.rel_residual[-1] < 0.5
        assert len(rec.iterations) < 501

    def test_dimension_mismatch(self, w16):
        _, w = w16
        with pytest.raises(DimensionMismatchError):
            sirt_solve(w, np.ones(3), 0.0, SolverConfig())

    def test_rejects_negative_or_non_finite_lambda(self, w16, phantom16):
        _, w = w16
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lambda"):
                sirt_solve(w, w @ phantom16, bad, SolverConfig())

    def test_zero_residual_converges_only_without_lambda(self):
        # W = [1], b = 1: iterate 1 is x = 1 and b - W x = 0, the solution
        # at lambda = 0 but not of the regularized system at lambda > 0
        w = sp.csr_matrix(np.array([[1.0]]))
        for lam, status in ((0.0, STATUS_CONVERGED),
                            (0.5, STATUS_MAX_ITERATIONS)):
            _, rec = sirt_solve(w, np.ones(1), lam,
                                SolverConfig(max_iterations=3))
            assert rec.rel_residual[1] == 0.0
            assert rec.status == status

    def test_divergence_stops_as_non_finite(self):
        # W = [1], lambda = 1e3: x <- 1 - 1e3 x grows until it overflows
        w = sp.csr_matrix(np.array([[1.0]]))
        with np.errstate(over="ignore", invalid="ignore"):
            _, rec = sirt_solve(w, np.ones(1), 1e3,
                                SolverConfig(max_iterations=500))
        assert rec.status == STATUS_NON_FINITE
        assert rec.iterations[-1] < 500


@pytest.mark.parametrize("solver", ["sirt", "bicgstab", "wmg-bicgstab"])
class TestStopRule:
    """Every CLI solver stops on the same triggers with the same status."""

    @pytest.fixture
    def solve(self, w16, solver):
        g, w = w16
        return setup_solve(solver, w, g, 0.0, 2)

    def test_zero_data_converges_at_iterate_zero(self, w16, solve):
        _, w = w16
        x, rec = solve(np.zeros(w.shape[0]), SolverConfig())
        assert rec.status == STATUS_CONVERGED
        assert rec.iterations == [0] and rec.rel_residual == [1.0]
        np.testing.assert_array_equal(x, 0.0)

    def test_zero_iterations_log_only_iterate_zero(self, w16, phantom16,
                                                   solve):
        _, w = w16
        x, rec = solve(w @ phantom16, SolverConfig(max_iterations=0))
        assert rec.status == STATUS_MAX_ITERATIONS
        assert rec.iterations == [0] and rec.rel_residual == [1.0]
        np.testing.assert_array_equal(x, 0.0)

    def test_nan_in_data_is_non_finite(self, w16, phantom16, solve):
        _, w = w16
        b = w @ phantom16
        b[5] = np.nan
        _, rec = solve(b, SolverConfig())
        assert rec.status == STATUS_NON_FINITE
        assert rec.iterations == [0]

    def test_tolerance_above_one_stops_at_iterate_zero(self, w16, phantom16,
                                                        solve):
        # iterate 0 has relative residual 1.0, already below the tolerance
        _, w = w16
        cfg = SolverConfig(max_iterations=10, residual_tolerance=2.0)
        _, rec = solve(w @ phantom16, cfg)
        assert rec.status == STATUS_CONVERGED
        assert rec.iterations == [0]

    def test_tolerance_converges(self, w16, phantom16, solve):
        _, w = w16
        cfg = SolverConfig(max_iterations=500, residual_tolerance=0.5)
        _, rec = solve(w @ phantom16, cfg)
        assert rec.status == STATUS_CONVERGED
        assert rec.rel_residual[-1] < 0.5 <= min(rec.rel_residual[:-1])
        assert len(rec.iterations) < 501


class TestNormalOperator:
    def test_matches_dense(self, w16):
        _, w = w16
        a = (w.T @ w).toarray() + 2.5 * np.eye(w.shape[1])
        op = normal_operator(w, 2.5)
        v = np.random.default_rng(1).standard_normal(w.shape[1])
        np.testing.assert_allclose(op(v), a @ v, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("instance", ["w16", "w40"])
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_equals_transpose_copy_formula(self, request, instance, lam):
        # the CSC view W^T sums in the same order as a CSR copy of W^T
        _, w = request.getfixturevalue(instance)
        v = np.random.default_rng(2).standard_normal(w.shape[1])
        expected = w.T.tocsr() @ (w @ v) + lam * v
        assert np.array_equal(normal_operator(w, lam)(v), expected)

    def test_rejects_negative_lambda(self, w16):
        _, w = w16
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                normal_operator(w, bad)

    def test_rejects_wrong_length(self, w16):
        _, w = w16
        with pytest.raises(DimensionMismatchError):
            normal_operator(w, 0.0)(np.ones(5))


class TestDenseNormal:
    @pytest.mark.parametrize("lam", [0.0, 2.5])
    def test_equals_gram_plus_shift(self, w16, lam):
        _, w = w16
        expected = (w.T @ w).toarray() + lam * np.eye(w.shape[1])
        assert np.array_equal(dense_normal(w, lam), expected)


class TestBicgstab:
    def test_matches_direct_solve(self, spd8):
        a, f, x_direct = spd8
        cfg = SolverConfig(max_iterations=8, residual_tolerance=1e-10)
        x, rec = bicgstab_solve(lambda v: a @ v, f, cfg=cfg)
        assert rec.status == STATUS_CONVERGED
        np.testing.assert_allclose(x, x_direct, atol=1e-10)

    def test_exact_preconditioner_converges_immediately(self, spd8):
        a, f, x_direct = spd8
        ainv = np.linalg.inv(a)
        cfg = SolverConfig(max_iterations=5, residual_tolerance=1e-12)
        x, rec = bicgstab_solve(lambda v: a @ v, f,
                                precond=lambda v: ainv @ v, cfg=cfg)
        assert rec.status == STATUS_CONVERGED
        assert rec.iterations[-1] <= 2
        np.testing.assert_allclose(x, x_direct, atol=1e-9)

    def test_solution_reported_in_original_variable(self, spd8):
        # right preconditioning must return x, not the preconditioned y
        a, f, x_direct = spd8
        m = np.diag(1.0 / np.diag(a))
        cfg = SolverConfig(max_iterations=100, residual_tolerance=1e-13)
        x, _ = bicgstab_solve(lambda v: a @ v, f, precond=lambda v: m @ v,
                              cfg=cfg)
        np.testing.assert_allclose(x, x_direct, atol=1e-9)

    def test_zero_rhs(self, spd8):
        a, _, _ = spd8
        x, rec = bicgstab_solve(lambda v: a @ v, np.zeros(8), SolverConfig())
        assert rec.status == STATUS_CONVERGED
        np.testing.assert_array_equal(x, 0.0)

    def test_breakdown_flagged(self, spd8):
        _, f, _ = spd8
        x, rec = bicgstab_solve(lambda v: np.zeros_like(v), f,
                                cfg=SolverConfig(max_iterations=10))
        assert rec.status == STATUS_BREAKDOWN

    def test_exact_solution_at_iterate_one_converges(self):
        # iterate 1 solves the system exactly: a zero residual counts as
        # converged at any iterate, as at iterate 0, also at tolerance 0,
        # so iteration 2 never reaches its rho test
        a = np.array([[-1.0, 0.0], [-1.0, 2.0]])
        f = np.array([2.0, 0.0])
        for iters in (1, 10):
            applies = []

            def op(v):
                applies.append(v)
                return a @ v

            x, rec = bicgstab_solve(op, f, SolverConfig(max_iterations=iters))
            assert rec.status == STATUS_CONVERGED
            assert rec.iterations == [0, 1]
            assert rec.rel_residual == [1.0, 0.0]
            np.testing.assert_array_equal(x, [-2.0, -1.0])
            # the initial residual and iteration 1's two applies
            assert len(applies) == 3

    def test_rho_breakdown_after_iterate_one(self):
        # r_hat . r = 0 when iteration 2 begins, with iterate 1 unsolved
        # (omega = -0.4); an iteration budget of 1 never reaches that test
        a = np.array([[-2.0, -2.0, -1.0], [0.0, -2.0, 0.0],
                      [-1.0, 0.0, -2.0]])
        f = np.array([0.0, 1.0, 0.0])
        for iters, status in ((1, STATUS_MAX_ITERATIONS),
                              (10, STATUS_BREAKDOWN)):
            applies = []

            def op(v):
                applies.append(v)
                return a @ v

            x, rec = bicgstab_solve(op, f, SolverConfig(max_iterations=iters))
            assert rec.status == status
            assert rec.iterations == [0, 1]
            assert rec.rel_residual[1] == pytest.approx(1 / np.sqrt(5),
                                                        rel=1e-12)
            # the initial residual and iteration 1's two applies: the rho
            # test stops iteration 2 before it applies the operator
            assert len(applies) == 3

    def test_omega_breakdown_after_iterate_one(self):
        # t . s = 0 in iteration 1: omega vanishes after iterate 1 is
        # logged, so the breakdown is flagged even within a budget of 1
        a = np.array([[-2.0, -1.0], [-1.0, 0.0]])
        f = np.array([-2.0, -2.0])
        x, rec = bicgstab_solve(lambda v: a @ v, f,
                                SolverConfig(max_iterations=1))
        assert rec.status == STATUS_BREAKDOWN
        assert rec.iterations == [0, 1]
        assert rec.rel_residual == [1.0, 0.5]
        np.testing.assert_array_equal(x, [1.0, 1.0])

    def test_infinite_preconditioner_output_is_non_finite(self):
        # v = inf makes the alpha denominator +inf, which the breakdown test
        # alone would report as a breakdown
        _, rec = bicgstab_solve(lambda v: v, np.ones(8),
                                precond=lambda v: np.full_like(v, np.inf),
                                cfg=SolverConfig(max_iterations=10))
        assert rec.status == STATUS_NON_FINITE

    def test_error_logging_against_exact(self, spd8):
        a, f, x_direct = spd8
        cfg = SolverConfig(max_iterations=100, residual_tolerance=1e-13)
        _, rec = bicgstab_solve(lambda v: a @ v, f, cfg=cfg, x_ex=x_direct)
        assert rec.rel_err_l2 and None not in rec.rel_err_l2
        assert rec.rel_err_l2[-1] < 1e-10


class TestNormalEquationsEndToEnd:
    def test_bicgstab_reconstructs_phantom(self, w16, phantom16):
        _, w = w16
        f = w.T @ (w @ phantom16)
        cfg = SolverConfig(max_iterations=400, residual_tolerance=1e-12)
        x, rec = bicgstab_solve(normal_operator(w, 0.0), f, cfg=cfg,
                                x_ex=phantom16)
        assert min(rec.rel_err_l2) < 1e-3


@pytest.mark.skipif(
    "rtol" not in inspect.signature(spla.bicgstab).parameters,
    reason="scipy < 1.12: bicgstab has no rtol keyword and a different "
           "implementation")
class TestBicgstabMatchesScipy:
    """Our BiCGStab iterates against scipy.sparse.linalg.bicgstab on noisy
    normal equations, plain and with a two-level WMG preconditioner."""

    ITERATIONS = 15

    @pytest.mark.parametrize("preconditioned", [False, True],
                             ids=["plain", "wmg"])
    @pytest.mark.parametrize("instance", ["w16", "w40"])
    def test_first_iterates_agree(self, request, instance, preconditioned):
        g, w = request.getfixturevalue(instance)
        n = g.n_pixels_per_side
        b = add_noise(w @ shepp_logan(n), 0.01, 11)
        f = w.T @ b
        op = normal_operator(w, 0.0)
        precond = (wmg_preconditioner(build_wmg_hierarchy(w, g, 0.0, 2))
                   if preconditioned else None)

        theirs = []
        spla.bicgstab(
            spla.LinearOperator((n * n, n * n), matvec=op), f,
            rtol=0.0, atol=0.0, maxiter=self.ITERATIONS,
            M=None if precond is None
            else spla.LinearOperator((n * n, n * n), matvec=precond),
            callback=lambda xk: theirs.append(xk.copy()))
        assert len(theirs) == self.ITERATIONS

        # bicgstab_solve returns only its last iterate; the runs are
        # deterministic, so a run stopped after k iterations gives iterate k
        for k, x_theirs in enumerate(theirs, start=1):
            x_ours, rec = bicgstab_solve(
                op, f, precond=precond, cfg=SolverConfig(max_iterations=k))
            assert rec.iterations[-1] == k
            gap = np.abs(x_ours - x_theirs).max() / np.abs(x_theirs).max()
            assert gap <= 1e-12, f"iterate {k}: relative max-norm gap {gap:.2e}"
