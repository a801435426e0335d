"""Tomographic reconstruction solvers with a wavelet-based multigrid
Krylov preconditioner."""

__version__ = "0.1.0"
