"""Smallest Laplacian eigenvalues: the two Poincare constants.

``lambda_neumann`` returns the smallest nonzero eigenvalue of the
zero-flux Laplacian restricted to mean-zero functions, ``lambda_dirichlet``
the smallest eigenvalue with homogeneous Dirichlet data.  Both are closed
forms: the 1-D finite-volume symbols s = 4/h^2 sin^2(pi/2n) give
lambda_N = min(sx, sy) and lambda_D = sx + sy, and the eigenfields are the
first cosine (zero flux) and sine (Dirichlet) modes sampled at the cell
centres, both taken from the eigenbases the implicit solves use.  The reported residual is ||A psi - lambda psi|| for the
Euclidean-normalised psi, from one application of the operator.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, _lap_zero_flux
from .linstep import _eigenbasis, _lap_dirichlet


@dataclass
class EigenResult:
    lam: float
    eigenfield: ScalarField
    residual: float


def _result(grid: Grid, lam: float, psi: np.ndarray, apply_op) -> EigenResult:
    psi = psi / np.linalg.norm(psi)
    res = float(np.linalg.norm(apply_op(psi) - lam * psi))
    vol_norm = np.sqrt(grid.cell_volume)
    return EigenResult(lam=lam, eigenfield=ScalarField(grid, psi / vol_norm),
                       residual=res)


def _check_tol(tol: float) -> None:
    if not 0.0 < tol <= 1e-3:
        raise ValueError("tol must lie in (0, 1e-3]")


def lambda_neumann(grid: Grid, tol: float = 1e-8) -> EigenResult:
    """Smallest nonzero eigenvalue of the zero-flux Laplacian.

    The eigenfield is cos(pi x / Lx) or cos(pi y / Ly), whichever direction
    has the smaller symbol (x on a tie); it is mean-zero.  ``tol`` is
    validated for compatibility with the ``[eigen] tol`` setting; the
    closed form leaves a residual at rounding level.
    """
    _check_tol(tol)
    ny, nx = grid.shape
    Qx, lam_x = _eigenbasis(nx, grid.hx, "neumann0")
    Qy, lam_y = _eigenbasis(ny, grid.hy, "neumann0")
    if lam_x[1] <= lam_y[1]:
        psi = np.broadcast_to(Qx[:, 1], grid.shape)
    else:
        psi = np.broadcast_to(Qy[:, 1:2], grid.shape)
    return _result(grid, float(min(lam_x[1], lam_y[1])), psi,
                   lambda v: -_lap_zero_flux(grid, v))


def lambda_dirichlet(grid: Grid, tol: float = 1e-8) -> EigenResult:
    """Smallest eigenvalue of the Dirichlet Laplacian, sin(pi x / Lx) *
    sin(pi y / Ly) sampled at the cell centres."""
    _check_tol(tol)
    ny, nx = grid.shape
    Qx, lam_x = _eigenbasis(nx, grid.hx, "dirichlet0")
    Qy, lam_y = _eigenbasis(ny, grid.hy, "dirichlet0")
    psi = np.outer(Qy[:, 0], Qx[:, 0])
    return _result(grid, float(lam_x[0] + lam_y[0]), psi,
                   lambda v: -_lap_dirichlet(grid, v))
