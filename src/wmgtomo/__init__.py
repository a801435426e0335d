"""Tomographic reconstruction solvers with a wavelet-based multigrid
Krylov preconditioner."""

__version__ = "0.1.0"

from .geometry import Geometry, apply, apply_transpose, build_projector
from .multilevel import (WmgHierarchy, build_intergrid_set,
                         build_wmg_hierarchy, haar_scaling_1d, haar_wavelet_1d,
                         wmg_preconditioner, wtg_apply)
from .phantom import add_noise, error_metrics, shepp_logan
from .solvers import (ConvergenceRecord, SirtScaling, SolverConfig,
                      bicgstab_solve, dense_normal, find_kopt,
                      normal_operator, sirt_scaling, sirt_solve)
from .spectral import Spectrum, preconditioned_spectrum, sirt_spectrum
from .sparse_kernels import (DenseFactorization, cholesky_factor,
                             cholesky_solve, seeded_uniform, spgemm)
