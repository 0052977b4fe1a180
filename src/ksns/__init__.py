"""Finite-volume laboratory for a chemotaxis-fluid system whose cell
density satisfies a flux-coupled nonlinear boundary condition."""

__version__ = "0.1.0"

from .grid import (BoundaryData, Grid, GridMismatchError, ScalarField,
                   VectorField, discrete_norm, integrate, read_field_snapshot,
                   write_field_snapshot)
from .eigen import EigenResult, lambda_dirichlet, lambda_neumann

__all__ = [
    "BoundaryData", "Grid", "GridMismatchError", "ScalarField",
    "VectorField", "discrete_norm", "integrate",
    "read_field_snapshot", "write_field_snapshot", "EigenResult",
    "lambda_dirichlet", "lambda_neumann",
    "__version__",
]
